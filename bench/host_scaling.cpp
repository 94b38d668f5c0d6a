// Host thread-scaling benchmark for the multithreaded execution backend:
// real wall-clock times (not the GPU simulator) for the parallel SpTRSV and
// SpMV kernels and the BlockSolver executor, swept over a list of thread
// counts, with serial (1-thread) runs as the speedup baseline.
//
//   ./bench/host_scaling [--threads=1,2,4,8] [--out=BENCH_host.json]
//                        [--min-ms=80] [--n=400000] [--tiny]
//
// --tiny is the CI smoke mode: one small matrix, a handful of repetitions,
// still exercising every kernel and the JSON writer. The JSON records
// hardware_concurrency so readers can tell when the sweep was run on fewer
// cores than the requested thread counts (speedups are then not expected).
//
// Note: BLOCKTRI_THREADS overrides BlockSolver's Options::threads, which
// would pin every point of the sweep to one count — the bench refuses to run
// with it set.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

std::vector<int> parse_thread_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  for (const int t : out) {
    if (t < 1) {
      std::fprintf(stderr, "bad --threads list '%s'\n", s.c_str());
      std::exit(1);
    }
  }
  return out;
}

/// Repeats fn until `min_ms` of wall-clock has elapsed (at least twice, after
/// one untimed warmup) and returns the per-call milliseconds.
template <class Fn>
double time_ms(double min_ms, Fn&& fn) {
  fn();  // warmup
  Stopwatch sw;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (sw.milliseconds() < min_ms || reps < 2);
  return sw.milliseconds() / reps;
}

struct Record {
  std::string matrix;
  std::string kernel;
  int threads = 1;
  double ms = 0.0;
  double gflops = 0.0;  // 2*nnz / time (0 for preprocessing records)
  double speedup = 0.0; // vs the 1-thread run of the same (matrix, kernel)
};

class Sweep {
 public:
  Sweep(std::string matrix, double min_ms, std::vector<Record>* out)
      : matrix_(std::move(matrix)), min_ms_(min_ms), out_(out) {}

  /// Times fn(pool) for one thread count (pool == nullptr for 1 thread) and
  /// appends the record; `flops` = 0 suppresses the GFLOP/s column.
  template <class Fn>
  void point(const std::string& kernel, int threads, double flops, Fn&& fn) {
    ThreadPool* pool = nullptr;
    std::unique_ptr<ThreadPool> owned;
    if (threads > 1) {
      owned = std::make_unique<ThreadPool>(threads);
      pool = owned.get();
    }
    Record r;
    r.matrix = matrix_;
    r.kernel = kernel;
    r.threads = threads;
    r.ms = time_ms(min_ms_, [&] { fn(pool); });
    if (flops > 0.0) r.gflops = flops / (r.ms * 1e6);
    if (threads == 1) serial_ms_[kernel] = r.ms;
    const auto it = serial_ms_.find(kernel);
    r.speedup = it == serial_ms_.end() ? 0.0 : it->second / r.ms;
    out_->push_back(r);
    std::fprintf(stderr, "  %-28s %-16s t=%d  %9.4f ms  %7.3f GF/s  %5.2fx\n",
                 matrix_.c_str(), kernel.c_str(), threads, r.ms, r.gflops,
                 r.speedup);
  }

 private:
  std::string matrix_;
  double min_ms_;
  std::vector<Record>* out_;
  std::map<std::string, double> serial_ms_;
};

void write_json(const std::string& path, const std::vector<Record>& recs,
                const std::vector<int>& threads) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"host_scaling\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"threads\": [");
  for (std::size_t i = 0; i < threads.size(); ++i)
    std::fprintf(f, "%s%d", i == 0 ? "" : ", ", threads[i]);
  std::fprintf(f, "],\n  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(f,
                 "    {\"matrix\": \"%s\", \"kernel\": \"%s\", \"threads\": "
                 "%d, \"ms\": %.6f, \"gflops\": %.4f, \"speedup\": %.4f}%s\n",
                 r.matrix.c_str(), r.kernel.c_str(), r.threads, r.ms,
                 r.gflops, r.speedup, i + 1 == recs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const auto threads =
      parse_thread_list(cli.get("threads", tiny ? "1,2" : "1,2,4,8"));
  const double min_ms = cli.get_double("min-ms", tiny ? 2.0 : 80.0);
  const auto n = static_cast<index_t>(cli.get_int("n", tiny ? 20000 : 400000));
  const std::string out_path = cli.get("out", "BENCH_host.json");
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }
  if (std::getenv("BLOCKTRI_THREADS") != nullptr) {
    std::fprintf(stderr, "unset BLOCKTRI_THREADS before running the sweep — "
                         "it pins every BlockSolver point to one count\n");
    return 1;
  }
  std::fprintf(stderr, "host_scaling: hardware_concurrency=%u\n",
               std::thread::hardware_concurrency());

  // Two profiles where the paper's kernels differ: a wide banded matrix
  // (few levels, SpMV-heavy) and a level-structured one (sync-free-friendly).
  struct Case {
    std::string name;
    Csr<double> L;
  };
  std::vector<Case> cases;
  cases.push_back(Case{"banded", gen::banded(n, 64, 24.0, 11)});
  cases.push_back(
      Case{"random_levels", gen::random_levels(n, 160, 10.0, 1.0, 12)});

  std::vector<Record> recs;
  for (const Case& c : cases) {
    const Csr<double>& L = c.L;
    const auto b = gen::random_rhs<double>(L.nrows, 7);
    std::vector<double> x(static_cast<std::size_t>(L.nrows));
    std::vector<double> y(static_cast<std::size_t>(L.nrows));
    const double flops = 2.0 * static_cast<double>(L.nnz());
    const Dcsr<double> D = csr_to_dcsr(L);
    Sweep sweep(c.name, min_ms, &recs);

    for (const int t : threads) {
      // SpTRSV kernels (solver built once per thread count so the analysis
      // also runs with that pool; solve timing dominates).
      {
        std::unique_ptr<ThreadPool> pool;
        if (t > 1) pool = std::make_unique<ThreadPool>(t);
        Stopwatch pre;
        const LevelSetSolver<double> ls(L, pool.get());
        const double pre_ms = pre.milliseconds();
        sweep.point("sptrsv_levelset", t, flops,
                    [&](ThreadPool* p) { ls.solve(b.data(), x.data(), p); });
        recs.push_back({c.name, "pre_levelset", t, pre_ms, 0.0, 0.0});
        pre.reset();
        const SyncFreeSolver<double> sf(L);
        const double pre_sf_ms = pre.milliseconds();
        sweep.point("sptrsv_syncfree", t, flops,
                    [&](ThreadPool* p) { sf.solve(b.data(), x.data(), p); });
        recs.push_back({c.name, "pre_syncfree", t, pre_sf_ms, 0.0, 0.0});
      }

      // SpMV kernels: y -= L x (y reset cost is part of each rep; identical
      // across thread counts, so speedups stay comparable).
      sweep.point("spmv_csr", t, flops, [&](ThreadPool* p) {
        std::fill(y.begin(), y.end(), 0.0);
        spmv_update(L, x.data(), y.data(), p);
      });
      sweep.point("spmv_rows", t, flops, [&](ThreadPool* p) {
        std::fill(y.begin(), y.end(), 0.0);
        spmv_update(D, x.data(), y.data(), p);
      });

      // Full BlockSolver: preprocessing (construction) + executor solve.
      BlockSolver<double>::Options opt;
      opt.planner.stop_rows = std::max<index_t>(1024, n / 16);
      opt.threads = t;
      Stopwatch pre;
      const BlockSolver<double> solver(L, opt);
      recs.push_back(
          {c.name, "pre_blocksolver", t, pre.milliseconds(), 0.0, 0.0});
      sweep.point("blocksolver_solve", t, flops,
                  [&](ThreadPool*) { x = solver.solve(b); });
    }
  }

  write_json(out_path, recs, threads);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());
  return 0;
}
