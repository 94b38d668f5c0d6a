// Table 5 reproduction: average preprocessing time, single-SpTRSV time, and
// total time for preprocessing + 100 / 500 / 1000 solves, for the three
// methods, on the (scaled) Titan RTX.
//
// Preprocessing times come from the host cost model (DESIGN.md §5): the
// block algorithm's recursive level analyses + permutations + block
// extraction are counted by the actual passes; the baselines' analyses are
// the standard ones (cuSPARSE: level analysis incl. the level-item
// bucketing; Sync-free: one in-degree counting pass).
//
//   ./bench/table5_preprocessing [--limit=40]
#include <cstdio>

#include "harness.hpp"

using namespace blocktri;
using namespace blocktri::bench;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto limit = static_cast<std::size_t>(cli.get_int("limit", 40));
  const sim::GpuSpec base = sim::titan_rtx();

  double pre_ms[3] = {0, 0, 0};
  double solve_ms[3] = {0, 0, 0};
  const char* names[3] = {"cuSPARSE-like", "Sync-free", "block algorithm"};

  const auto suite = gen::paper_suite();
  std::size_t done = 0;
  for (const auto& entry : suite) {
    if (done >= limit) break;
    ++done;
    const Csr<double> L = entry.build();
    const sim::GpuSpec gpu = sim::scale_for_dataset(base, entry.scale);
    const auto stop =
        static_cast<index_t>(sim::paper_stop_rows(base, entry.scale));
    const auto b = gen::random_rhs<double>(L.nrows, 7);
    const auto nnz_bytes =
        L.nnz() * static_cast<std::int64_t>(sizeof(index_t) + sizeof(double));

    {
      // cuSPARSE-like preprocessing: level analysis = two passes over the
      // nonzeros (level assignment + item bucketing) plus per-row pointers.
      const TriSolver<double> s(TriKernelKind::kCusparseLike, L);
      sim::HostSim hs(sim::host_default());
      hs.ops(2 * L.nnz() + 2 * L.nrows);
      hs.bytes(2 * nnz_bytes);
      pre_ms[0] += hs.ms();
      solve_ms[0] += measure_baseline(s, L, b, gpu).ms;
    }
    {
      // Sync-free preprocessing: one atomic-increment pass over the nonzeros
      // (Alg. 3 lines 1–5) — the cheapest analysis of the three.
      const TriSolver<double> s(TriKernelKind::kSyncFree, L);
      sim::HostSim hs(sim::host_default());
      hs.ops(L.nnz());
      hs.bytes(nnz_bytes);
      pre_ms[1] += hs.ms();
      solve_ms[1] += measure_baseline(s, L, b, gpu).ms;
    }
    {
      BlockSolver<double> s(L, bench_block_options<double>(stop));
      pre_ms[2] += s.preprocess_stats().model_ms;
      solve_ms[2] += measure_block(s, b, gpu).ms;
    }
    if (done % 10 == 0)
      std::fprintf(stderr, "  ... %zu matrices\n", done);
  }

  std::printf("Table 5 — average times (ms) over %zu suite matrices, "
              "simulated Titan RTX:\n\n", done);
  TextTable t({"method", "preprocessing", "single SpTRSV", "100 iters",
               "500 iters", "1000 iters"});
  for (int m = 0; m < 3; ++m) {
    const double pre = pre_ms[m] / static_cast<double>(done);
    const double one = solve_ms[m] / static_cast<double>(done);
    t.add_row({names[m], fmt_fixed(pre, 3), fmt_fixed(one, 4),
               fmt_fixed(pre + 100 * one, 2), fmt_fixed(pre + 500 * one, 2),
               fmt_fixed(pre + 1000 * one, 2)});
  }
  std::printf("%s\n", t.to_string().c_str());
  const double ratio =
      (pre_ms[2] / static_cast<double>(done)) /
      (solve_ms[2] / static_cast<double>(done));
  std::printf("block preprocessing / single solve = %.2fx "
              "(paper reports 9.16x on average)\n", ratio);
  std::printf(
      "\nPaper (ms): cuSPARSE 91.32 / 103.09 / 10400.71 / 51638.30 / "
      "103185.29;\n  Sync-free 2.34 / 94.79 / 9481.10 / 47396.15 / 94789.96;\n"
      "  block 104.44 / 11.40 / 1244.05 / 5802.48 / 11500.52.\n");
  return 0;
}
