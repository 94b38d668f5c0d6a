// google-benchmark micro-benchmarks of the host-side kernels: real wall
// time of the SpMV kernels, the baseline SpTRSV solvers, the level-set
// analysis and the preprocessing pipeline. These measure the library's
// actual CPU throughput (not the simulated GPU model) — useful for keeping
// the implementation itself fast.
#include <benchmark/benchmark.h>

#include "blocktri.hpp"
#include "common/simd.hpp"

namespace blocktri {
namespace {

const Csr<double>& test_matrix() {
  static const Csr<double> L = gen::kkt_structure(200000, 17, 4.0, 42);
  return L;
}

const Dcsr<double>& test_matrix_dcsr() {
  static const Dcsr<double> D = csr_to_dcsr(test_matrix());
  return D;
}

/// Forces a simd lowering for the duration of one benchmark run; range(0)
/// selects the Path (0 strict, 1 blocked-scalar, 2 vector).
struct PathScope {
  explicit PathScope(benchmark::State& state) {
    simd::force_path(static_cast<simd::Path>(state.range(0)));
    state.SetLabel(simd::to_string(simd::active_path()));
  }
  ~PathScope() { simd::clear_forced_path(); }
};

void BM_SpmvCsr(benchmark::State& state) {
  const auto& L = test_matrix();
  const auto x = gen::random_rhs<double>(L.ncols, 1);
  auto y = gen::random_rhs<double>(L.nrows, 2);
  for (auto _ : state) {
    spmv_update(L, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_SpmvCsr);

void BM_SpmvListedRows(benchmark::State& state) {
  const auto& D = test_matrix_dcsr();
  const auto x = gen::random_rhs<double>(D.ncols, 1);
  auto y = gen::random_rhs<double>(D.nrows, 2);
  for (auto _ : state) {
    spmv_update(D, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * D.nnz());
}
BENCHMARK(BM_SpmvListedRows);

// SIMD-vs-scalar sweep: the same host kernels under each forced lowering.
void BM_SpmvCsrPath(benchmark::State& state) {
  PathScope ps(state);
  const auto& L = test_matrix();
  const auto x = gen::random_rhs<double>(L.ncols, 1);
  auto y = gen::random_rhs<double>(L.nrows, 2);
  for (auto _ : state) {
    spmv_update(L, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_SpmvCsrPath)->Arg(0)->Arg(1)->Arg(2);

void BM_SpmvDcsrPath(benchmark::State& state) {
  PathScope ps(state);
  const auto& D = test_matrix_dcsr();
  const auto x = gen::random_rhs<double>(D.ncols, 1);
  auto y = gen::random_rhs<double>(D.nrows, 2);
  for (auto _ : state) {
    spmv_update(D, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * D.nnz());
}
BENCHMARK(BM_SpmvDcsrPath)->Arg(0)->Arg(1)->Arg(2);

void BM_SptrsvSerial(benchmark::State& state) {
  const auto& L = test_matrix();
  const auto b = gen::random_rhs<double>(L.nrows, 3);
  std::vector<double> x(static_cast<std::size_t>(L.nrows));
  for (auto _ : state) {
    sptrsv_serial_raw(L, b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_SptrsvSerial);

void BM_SptrsvSyncFreeHost(benchmark::State& state) {
  const auto& L = test_matrix();
  const SyncFreeSolver<double> solver(L);
  const auto b = gen::random_rhs<double>(L.nrows, 3);
  std::vector<double> x(static_cast<std::size_t>(L.nrows));
  for (auto _ : state) {
    solver.solve(b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_SptrsvSyncFreeHost);

void BM_LevelSetAnalysis(benchmark::State& state) {
  const auto& L = test_matrix();
  for (auto _ : state) {
    const LevelSets ls = compute_level_sets(L);
    benchmark::DoNotOptimize(ls.nlevels);
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_LevelSetAnalysis);

void BM_CsrToCsc(benchmark::State& state) {
  const auto& L = test_matrix();
  for (auto _ : state) {
    const Csc<double> c = csr_to_csc(L);
    benchmark::DoNotOptimize(c.nnz());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_CsrToCsc);

void BM_BlockSolverPreprocess(benchmark::State& state) {
  const auto& L = test_matrix();
  for (auto _ : state) {
    BlockSolver<double>::Options opt;
    opt.planner.stop_rows = 5760;
    const BlockSolver<double> solver(L, opt);
    benchmark::DoNotOptimize(solver.nnz_in_squares());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_BlockSolverPreprocess);

void BM_BlockSolverSolveHost(benchmark::State& state) {
  const auto& L = test_matrix();
  BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 5760;
  const BlockSolver<double> solver(L, opt);
  const auto b = gen::random_rhs<double>(L.nrows, 5);
  for (auto _ : state) {
    const auto x = solver.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_BlockSolverSolveHost);

void BM_BlockSolverSolveWarmPath(benchmark::State& state) {
  PathScope ps(state);
  const auto& L = test_matrix();
  BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 5760;
  const BlockSolver<double> solver(L, opt);
  const auto b = gen::random_rhs<double>(L.nrows, 5);
  std::vector<double> x(b.size());
  solver.solve(b.data(), x.data());  // warm the workspace
  for (auto _ : state) {
    solver.solve(b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * L.nnz());
}
BENCHMARK(BM_BlockSolverSolveWarmPath)->Arg(0)->Arg(1)->Arg(2);

void BM_CacheModelProbe(benchmark::State& state) {
  sim::CacheModel cache(6u << 20, 128, 8);
  Rng rng(7);
  std::vector<std::uint64_t> addrs(1 << 16);
  for (auto& a : addrs)
    a = static_cast<std::uint64_t>(rng.uniform_int(0, (64 << 20) - 1));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addrs[i], 8));
    i = (i + 1) & (addrs.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheModelProbe);

}  // namespace
}  // namespace blocktri

BENCHMARK_MAIN();
