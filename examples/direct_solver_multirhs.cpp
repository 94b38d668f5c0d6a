// Direct-solver scenario — the paper's other §1 motivation: the solve phase
// of a sparse direct factorisation applies L^{-1} to many right-hand sides,
// so preprocessing once and solving fast wins (Table 5's amortisation
// argument, shown here from the user's perspective).
//
// We mimic the triangular factor of a structured factorisation with a banded
// system, then solve a batch of right-hand sides with all three methods and
// report total (preprocess + k solves) simulated time.
//
//   ./examples/direct_solver_multirhs [--n=400000] [--rhs=64]
#include <algorithm>
#include <cstdio>

#include "blocktri.hpp"

using namespace blocktri;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<index_t>(cli.get_int("n", 300000));
  const int num_rhs = static_cast<int>(cli.get_int("rhs", 64));
  const sim::GpuSpec base = sim::titan_rtx();
  const double scale = 16.0;  // dataset-scale convention, DESIGN.md §2
  const sim::GpuSpec gpu = sim::scale_for_dataset(base, scale);

  // A factor with the kkt_power profile (Table 4 row 3): moderate level
  // count, wide parallelism, power-law row lengths — typical of triangular
  // factors from circuit/optimisation problems.
  const Csr<double> L = gen::power_law_levels(n, 17, 0.75, 1.8, 1500, 4.14,
                                              1.3, 0, 0.0, 2, 0.05,
                                              /*seed=*/5);
  std::printf("Triangular factor: n = %d, nnz = %s; solving %d rhs on %s\n\n",
              n, fmt_count(L.nnz()).c_str(), num_rhs, gpu.name.c_str());

  std::vector<std::vector<double>> rhs;
  rhs.reserve(static_cast<std::size_t>(num_rhs));
  for (int k = 0; k < num_rhs; ++k)
    rhs.push_back(gen::random_rhs<double>(n, 100 + static_cast<unsigned>(k)));

  TextTable table({"method", "preprocess (ms)", "per-solve (ms)",
                   "total for " + std::to_string(num_rhs) + " rhs (ms)"});

  // --- Recursive block algorithm (preprocess once, solve many). ---
  {
    BlockSolver<double>::Options opt;
    opt.planner.stop_rows =
        static_cast<index_t>(sim::paper_stop_rows(base, scale));
    const BlockSolver<double> solver(L, opt);
    const double pre_ms = solver.preprocess_stats().model_ms;

    sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                          gpu.cache_assoc);
    sim::SolveReport total;
    for (const auto& b : rhs) solver.solve_simulated(b, gpu, &cache, &total);
    table.add_row({"recursive block (this work)", fmt_fixed(pre_ms, 2),
                   fmt_fixed(total.ms() / num_rhs, 4),
                   fmt_fixed(pre_ms + total.ms(), 2)});
  }

  // --- Baselines. Their preprocessing is cheap (level analysis / in-degree
  // count); we model it as two passes over the nonzeros on the host.
  auto run_baseline = [&](const auto& solver, const std::string& name,
                          std::int64_t pre_passes) {
    sim::HostSim hs(sim::host_default());
    hs.ops(pre_passes * L.nnz());
    hs.bytes(pre_passes * L.nnz() *
             static_cast<std::int64_t>(sizeof(index_t) + sizeof(double)));
    const double pre_ms = hs.ms();

    // One modelled solve per right-hand side, sharing the cache.
    model::Step step;
    step.tri = model::tri_view(solver);
    step.tri_kind = model::kind_of(solver);
    sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                          gpu.cache_assoc);
    sim::SolveReport total;
    for (std::size_t r = 0; r < rhs.size(); ++r)
      model::replay({&step, 1}, n, gpu, &cache, true, 8, &total);
    table.add_row({name, fmt_fixed(pre_ms, 2),
                   fmt_fixed(total.ms() / num_rhs, 4),
                   fmt_fixed(pre_ms + total.ms(), 2)});
  };
  CusparseLikeSolver<double> cusp(L);
  run_baseline(cusp, "cuSPARSE-like (level merge)", 2);
  SyncFreeSolver<double> sf(L);
  run_baseline(sf, "Sync-free", 1);

  std::printf("%s\n", table.to_string().c_str());
  std::printf("The blocked method pays more preprocessing but it amortises\n"
              "across the batch — the Table 5 effect.\n\n");

  // --- Host-measured batched solve: the same amortisation, for real. ------
  // solve_many streams each block's structure once per step for the whole
  // panel instead of once per right-hand side; with the plan reused too, the
  // per-RHS cost drops well below the solve-one-at-a-time workflow. (Bitwise
  // identical to the per-column solve() results — see bench/batched_rhs for
  // the full sweep.)
  {
    const index_t host_n = std::min<index_t>(n, 60000);
    const index_t k = static_cast<index_t>(std::min(num_rhs, 16));
    const Csr<double> Lh = gen::banded(host_n, 48, 16.0, 11);
    std::vector<double> B;
    B.reserve(static_cast<std::size_t>(host_n) * static_cast<std::size_t>(k));
    for (index_t c = 0; c < k; ++c) {
      const auto b = gen::random_rhs<double>(host_n,
                                             300 + static_cast<unsigned>(c));
      B.insert(B.end(), b.begin(), b.end());
    }
    BlockSolver<double>::Options opt;
    opt.planner.stop_rows = std::max<index_t>(512, host_n / 16);
    Stopwatch sw;
    const BlockSolver<double> solver(Lh, opt);
    const double pre_ms = sw.milliseconds();
    sw.reset();
    std::vector<double> x;
    for (index_t c = 0; c < k; ++c)
      x = solver.solve(std::vector<double>(
          B.begin() + static_cast<std::ptrdiff_t>(c) * host_n,
          B.begin() + static_cast<std::ptrdiff_t>(c + 1) * host_n));
    const double singles_ms = sw.milliseconds();
    sw.reset();
    const std::vector<double> X = solver.solve_many(B, k);
    const double batched_ms = sw.milliseconds();
    std::printf("Host wall-clock (n = %d, k = %d): analysis %.2f ms, "
                "%d x solve() %.2f ms, solve_many %.2f ms\n"
                "per-RHS with one-time analysis: %.3f ms batched vs %.3f ms "
                "re-analysed per solve\n",
                host_n, k, pre_ms, k, singles_ms, batched_ms,
                (pre_ms + batched_ms) / k, pre_ms + singles_ms / k);
  }
  return 0;
}
