// Host thread-scaling benchmark for the multithreaded execution backend:
// real wall-clock times (not the GPU simulator) for the parallel SpTRSV and
// SpMV kernels and the BlockSolver executor, swept over a list of thread
// counts, with serial (1-thread) runs as the speedup baseline. A sync-free
// triangle solves one right-hand side serially at any thread count, so it
// is timed once, at threads = 1. The BlockSolver rows time one solve and
// one k = 16 solve_many, whose lone-step waves hand the pool to the batched
// kernels. Each point is the median of kSamples samples, each the mean
// over as many calls as fill min_ms / kSamples (at least one): single
// samples on a shared host moved by up to 1.9x between runs. Every thread
// count keeps its pool and its solvers alive for the whole matrix, and a
// kernel's samples are taken round-robin over the thread counts, so a slow
// stretch of the host weighs on every count alike instead of shifting one
// count's whole row (sweeping the counts one after another read one run's
// threads = 4 level-set at 0.97x where the others read 1.27-2.02x).
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

constexpr int kSamples = 5;

/// One thread count of the sweep, alive for the whole matrix: its pool
/// (none at threads = 1) and its BlockSolver, built with that count.
struct Slot {
  int threads = 1;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<BlockSolver<double>> solver;
};

struct Record {
  std::string matrix;
  std::string kernel;
  int threads = 1;
  double ms = 0.0;
  double gflops = 0.0;  // 2*nnz / time (0 for preprocessing records)
  double speedup = 0.0; // vs the 1-thread run of the same (matrix, kernel)
};

/// Times fn(slot) for each slot and appends one record per slot; `flops`
/// = 0 suppresses the GFLOP/s column. kSamples rounds each take one sample
/// of every slot in turn, a sample being the per-call mean over as many
/// calls as fill min_ms / kSamples (at least one) after one untimed call,
/// which wakes the slot's pool after the other slots ran; a point is the
/// median of its slot's samples.
template <class Fn>
void point(const std::string& matrix, const std::string& kernel,
           const std::vector<Slot*>& slots, double min_ms, double flops,
           std::vector<Record>* out, Fn&& fn) {
  std::vector<std::vector<double>> samples(slots.size());
  for (int s = 0; s < kSamples; ++s)
    for (std::size_t k = 0; k < slots.size(); ++k) {
      fn(*slots[k]);
      Stopwatch sw;
      int reps = 0;
      do {
        fn(*slots[k]);
        ++reps;
      } while (sw.milliseconds() < min_ms / kSamples);
      samples[k].push_back(sw.milliseconds() / reps);
    }
  double serial_ms = 0.0;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    std::vector<double>& v = samples[k];
    std::nth_element(v.begin(), v.begin() + kSamples / 2, v.end());
    Record r;
    r.matrix = matrix;
    r.kernel = kernel;
    r.threads = slots[k]->threads;
    r.ms = v[kSamples / 2];
    if (flops > 0.0) r.gflops = flops / (r.ms * 1e6);
    if (r.threads == 1) serial_ms = r.ms;
    r.speedup = serial_ms > 0.0 ? serial_ms / r.ms : 0.0;
    out->push_back(r);
    std::fprintf(stderr, "  %-28s %-20s t=%d  %9.4f ms  %7.3f GF/s  %5.2fx\n",
                 matrix.c_str(), kernel.c_str(), r.threads, r.ms, r.gflops,
                 r.speedup);
  }
}

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
    constexpr index_t kPanel = 16;
    const auto B = gen::random_rhs<double>(L.nrows * kPanel, 8);
    std::vector<double> X(B.size());
    std::vector<double> x(static_cast<std::size_t>(L.nrows));
    std::vector<double> y(static_cast<std::size_t>(L.nrows));
    const double flops = 2.0 * static_cast<double>(L.nnz());
    const Dcsr<double> D = csr_to_dcsr(L);

    // Preprocessing, once per thread count: the level-set analysis with
    // that count's pool and the whole BlockSolver (planning + analyses).
    // A level-set triangle does not keep the pool it was analysed with,
    // so the first one built serves every count's solves.
    std::vector<Slot> slots(threads.size());
    std::unique_ptr<TriSolver<double>> ls;
    for (std::size_t k = 0; k < threads.size(); ++k) {
      Slot& slot = slots[k];
      slot.threads = threads[k];
      if (slot.threads > 1)
        slot.pool = std::make_unique<ThreadPool>(slot.threads);
      Stopwatch pre;
      auto built = std::make_unique<TriSolver<double>>(
          TriKernelKind::kLevelSet, L, slot.pool.get());
      recs.push_back(
          {c.name, "pre_levelset", slot.threads, pre.milliseconds(), 0.0, 0.0});
      if (!ls) ls = std::move(built);
      BlockSolver<double>::Options opt;
      opt.planner.stop_rows = std::max<index_t>(1024, n / 16);
      opt.threads = slot.threads;
      pre.reset();
      slot.solver = std::make_unique<BlockSolver<double>>(L, opt);
      recs.push_back({c.name, "pre_blocksolver", slot.threads,
                      pre.milliseconds(), 0.0, 0.0});
    }
    std::vector<Slot*> all;
    for (Slot& slot : slots) all.push_back(&slot);

    point(c.name, "sptrsv_levelset", all, min_ms, flops, &recs,
          [&](Slot& s) { ls->solve(b.data(), x.data(), 1, 1, s.pool.get()); });
    // One sync-free right-hand side is serial: one record, at threads = 1.
    for (Slot& slot : slots) {
      if (slot.threads != 1) continue;
      Stopwatch pre;
      const TriSolver<double> sf(TriKernelKind::kSyncFree, L);
      recs.push_back({c.name, "pre_syncfree", 1, pre.milliseconds(), 0.0, 0.0});
      point(c.name, "sptrsv_syncfree", {&slot}, min_ms, flops, &recs,
            [&](Slot&) { sf.solve(b.data(), x.data()); });
    }

    // SpMV kernels: y -= L x (y reset cost is part of each rep; identical
    // across thread counts, so speedups stay comparable).
    point(c.name, "spmv_csr", all, min_ms, flops, &recs, [&](Slot& s) {
      std::fill(y.begin(), y.end(), 0.0);
      spmv_update(L, x.data(), y.data(), s.pool.get());
    });
    point(c.name, "spmv_rows", all, min_ms, flops, &recs, [&](Slot& s) {
      std::fill(y.begin(), y.end(), 0.0);
      spmv_update(D, x.data(), y.data(), s.pool.get());
    });

    // The BlockSolver executor, each count on its own solver and pool.
    point(c.name, "blocksolver_solve", all, min_ms, flops, &recs,
          [&](Slot& s) { x = s.solver->solve(b); });
    point(c.name, "blocksolver_many_k16", all, min_ms, kPanel * flops, &recs,
          [&](Slot& s) { s.solver->solve_many(B.data(), X.data(), kPanel); });
  }

  write_json(out_path, recs, threads);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());
  return 0;
}
