// Shared state of one benchmark run: configuration, generated inputs with
// their reference solutions, warm solvers, the operation oracle and the
// tracer. Work units (cold.cpp, warm.cpp, service.cpp) read the fixture and
// append samples; main.cpp runs the units and turns samples into
// metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "service/solve_service.hpp"
#include "shard/coordinator.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

using blocktri::Csr;
using blocktri::index_t;
using Solver = blocktri::BlockSolver<double>;

/// Columns of the right-hand-side panel (and of the per-pattern RHS pool).
inline constexpr index_t kPanel = 16;
/// Warm solves timed after each cold create (the Table 5 question).
inline constexpr int kWarmSolvesPerCreate = 100;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      // self-check size: every phase in about a second
  double rate = 0.0;      // open-loop offered rate, requests/s (--rate)
  int nproc = 1;          // usable CPUs
  std::string run_dir;    // scratch directory, relative to the checkout
  std::string out_dir;    // where results and traces are written
};

/// The output oracle's ledger: every timed library call is one attempt, and
/// it fails on a non-ok Status or on a wrong answer.
class Ops {
 public:
  /// Counts one attempt; returns `good`. A failure is logged (first few).
  bool check(bool good, const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct Pattern {
  std::string name;
  Csr<double> L;   // the system
  Csr<double> L2;  // same pattern, new values (refresh_values input)
  Solver::Options opt;
  std::vector<std::vector<double>> rhs;  // kPanel right-hand sides
  std::vector<std::vector<double>> ref;  // threads=1 solutions under L
  std::vector<double> ref2;              // threads=1 solution of rhs[0], L2
  std::vector<double> B, Xref;           // rhs / ref as n x kPanel panels
  std::unique_ptr<Solver> t1;            // warm, threads = 1
  std::unique_ptr<Solver> tn;            // warm, threads = nproc
  /// tn holds a sync-free triangle, whose threaded single-RHS kernel may
  /// reorder sums: its solves are checked by residual instead of bitwise.
  bool tn_reorders = false;
  std::unique_ptr<blocktri::shard::ShardCoordinator<double>> shard;  // P = 2
};

struct ServiceFixture {
  Csr<double> L;
  Solver::Options opt;
  std::unique_ptr<blocktri::service::SolveService> svc;
  std::uint64_t id = 0;
  std::vector<std::vector<double>> rhs, ref;
};

struct Fixture {
  Config cfg;
  std::vector<Pattern> pats;
  ServiceFixture svc;
  Ops ops;
  Tracer tracer;
};

bool bitwise_equal(const double* a, const double* b, std::size_t n);
/// Normwise relative residual ‖Lx − b‖∞ / (‖L‖∞‖x‖∞ + ‖b‖∞).
double relative_residual(const Csr<double>& L, const double* x,
                         const double* b);
/// The library's default residual tolerance, 100 · n · eps.
double residual_tolerance(index_t n);

// --- Work units ------------------------------------------------------------
// Each unit is a small, self-contained piece of one phase. main.cpp runs
// each workload's fixed cycle of units, round-robin, until the measured
// seconds are spent.

/// Per pattern, one entry per sample (seconds unless noted).
using Samples = std::map<std::string, std::vector<double>>;

struct ColdSamples {
  Samples create, create_plus_100, load, hit, refresh;
  Samples level_analyses;                 // per cold create (count)
  std::uint64_t warm_level_analyses = 0;  // load + hit + refresh: must be 0
  std::uint64_t cache_hits = 0, cache_misses = 0;
};
/// cold create → 100 warm solves → save_artifact → create_from_file
/// → create on a PlanCache hit → refresh_values → verify, on one pattern.
void cold_pipeline(Fixture& fx, Pattern& p, ColdSamples* out);

struct WarmSamples {
  Samples t1, tn, panel, shard;
};
/// One call per pattern of: single-RHS solve at threads=1 / threads=nproc,
/// k=16 panel at threads=nproc, k=16 panel through 2 shards.
void warm_t1_round(Fixture& fx, int round, WarmSamples* out);
void warm_tn_round(Fixture& fx, int round, WarmSamples* out);
void warm_panel_round(Fixture& fx, WarmSamples* out);
void warm_shard_round(Fixture& fx, WarmSamples* out);

struct ServiceSamples {
  std::vector<double> closed_rps;  // completions per second, per segment
  std::vector<double> open_ms;     // in-process latencies, from due time
  std::vector<double> socket_ms;   // socket latencies, from due time
  std::vector<double> late_ms;     // generator lateness (both open loops)
};

/// Drives the registered service: closed-loop, open-loop and socket
/// segments. The socket server and its nproc connections live as long as
/// the object.
class ServiceLoad {
 public:
  explicit ServiceLoad(Fixture& fx);
  ~ServiceLoad();
  ServiceLoad(const ServiceLoad&) = delete;
  ServiceLoad& operator=(const ServiceLoad&) = delete;

  void closed(double seconds);
  void open(double seconds);
  void socket(double seconds);
  const ServiceSamples& samples() const { return s_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServiceSamples s_;
};

// --- Traced per-layer probes (layers.cpp) ----------------------------------

using MetricMap = std::map<std::string, double>;
/// Runs every per-layer probe and adds its metrics to `out`. `t1_ms` and
/// `create_ms` are the traced pass's per-pattern medians of the threads=1
/// solve and the cold create (the totals the probes' parts are taken from).
void run_layer_probes(Fixture& fx, const std::map<std::string, double>& t1_ms,
                      const std::map<std::string, double>& create_ms,
                      MetricMap* out);

}  // namespace perfbench
