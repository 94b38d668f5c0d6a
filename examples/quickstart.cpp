// Quickstart: build a sparse lower-triangular system, preprocess it with the
// recursive block algorithm, solve, verify against serial substitution, and
// report the simulated GPU performance of the three SpTRSV methods.
//
//   ./examples/quickstart [--n=250000] [--levels=17] [--gpu=rtx|x]
#include <cstdio>
#include <cmath>

#include "blocktri.hpp"

using namespace blocktri;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<index_t>(cli.get_int("n", 250000));
  const auto nlevels = static_cast<index_t>(cli.get_int("levels", 17));
  const bool use_rtx = cli.get("gpu", "rtx") == "rtx";
  // The benchmark convention (DESIGN.md §2): matrices mimic the paper's at
  // ~1/16 size, so measure on the device scaled to match.
  const double scale = cli.get_double("scale", 16.0);
  const sim::GpuSpec base = use_rtx ? sim::titan_rtx() : sim::titan_x();
  const sim::GpuSpec gpu = sim::scale_for_dataset(base, scale);

  // 1. A sparse lower-triangular system with a KKT-like structure.
  std::printf("Generating a %d x %d KKT-structured system...\n", n, n);
  const Csr<double> L = gen::kkt_structure(n, nlevels, 4.0, /*seed=*/42);
  const std::vector<double> b = gen::random_rhs<double>(n, 7);
  std::printf("  nnz = %s, levels = %d\n", fmt_count(L.nnz()).c_str(),
              compute_level_sets(L).nlevels);

  // 2. Preprocess once (partition + reorder + adaptive kernel selection).
  BlockSolver<double>::Options opt;
  opt.planner.stop_rows =
      static_cast<index_t>(sim::paper_stop_rows(base, scale));
  Stopwatch pre;
  const BlockSolver<double> solver(L, opt);
  std::printf("Preprocessing: %.0f ms wall (host-model %.2f ms)\n",
              pre.milliseconds(), solver.preprocess_stats().model_ms);
  std::printf("  %d triangular blocks, %zu square blocks, depth %d\n",
              solver.plan().num_tri_blocks(), solver.plan().squares.size(),
              solver.plan().depth_used);
  std::printf("  nonzeros moved into square (SpMV) blocks: %s of %s (%.0f%%)\n",
              fmt_count(solver.nnz_in_squares()).c_str(),
              fmt_count(L.nnz()).c_str(),
              100.0 * static_cast<double>(solver.nnz_in_squares()) /
                  static_cast<double>(L.nnz()));

  // 3. Solve and verify.
  const std::vector<double> x = solver.solve(b);
  const std::vector<double> x_ref = sptrsv_serial(L, b);
  double max_err = 0.0;
  for (index_t i = 0; i < n; ++i)
    max_err = std::max(max_err, std::fabs(x[static_cast<std::size_t>(i)] -
                                          x_ref[static_cast<std::size_t>(i)]));
  std::printf("Solved. max |x - x_serial| = %.3e\n", max_err);

  // 4. Simulated performance on the chosen GPU (warm cache, like the
  //    paper's 200-run averages).
  std::printf("\nSimulated SpTRSV on %s:\n", gpu.name.c_str());
  TextTable table({"method", "time (ms)", "GFlops", "kernel launches"});

  {
    sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                          gpu.cache_assoc);
    sim::SolveReport warm;
    solver.solve_simulated(b, gpu, &cache, &warm);
    sim::SolveReport rep;
    solver.solve_simulated(b, gpu, &cache, &rep);
    table.add_row({"recursive block (this work)", fmt_fixed(rep.ms(), 4),
                   fmt_fixed(rep.gflops(), 2),
                   std::to_string(rep.kernel_launches)});
  }
  // A baseline is one kernel over the whole matrix: the model replays it
  // once to warm the cache, then measures.
  auto baseline = [&](TriKernelKind kind, const std::string& name) {
    const TriSolver<double> s(kind, L);
    model::Step step;
    step.tri = model::tri_view(s);
    step.tri_kind = model::kind_of(s);
    const sim::SolveReport rep =
        model::replay_warm({&step, 1}, n, gpu, true, 8);
    table.add_row({name, fmt_fixed(rep.ms(), 4), fmt_fixed(rep.gflops(), 2),
                   std::to_string(rep.kernel_launches)});
  };
  baseline(TriKernelKind::kCusparseLike, "cuSPARSE-like (level merge)");
  baseline(TriKernelKind::kSyncFree, "Sync-free");

  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
