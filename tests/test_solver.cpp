// BlockSolver integration tests: correctness of all four schemes on every
// structural family and precision, ablation modes, simulation consistency,
// multi-rhs reuse, and preprocessing statistics.
#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "sptrsv/serial.hpp"

namespace blocktri {
namespace {

using blocktri::testing::default_tol;
using blocktri::testing::test_matrices;
using blocktri::testing::VectorsNear;

template <class T>
typename BlockSolver<T>::Options opts(BlockScheme scheme,
                                      index_t stop_rows = 200,
                                      index_t nseg = 4) {
  typename BlockSolver<T>::Options o;
  o.scheme = scheme;
  o.planner.stop_rows = stop_rows;
  o.planner.nseg = nseg;
  return o;
}

// Cross product: scheme x structural family x precision (via two TESTs).
class SolverOnMatrix
    : public ::testing::TestWithParam<std::tuple<BlockScheme, int>> {};

TEST_P(SolverOnMatrix, MatchesSerialDouble) {
  const auto [scheme, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto L = tm.build();
  const auto b = gen::random_rhs<double>(L.nrows, 101);
  BlockSolver<double> solver(L, opts<double>(scheme));
  EXPECT_TRUE(
      VectorsNear(solver.solve(b), sptrsv_serial(L, b), default_tol<double>()))
      << tm.name;
}

TEST_P(SolverOnMatrix, MatchesSerialFloat) {
  const auto [scheme, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto Lf = gen::convert_values<float>(tm.build());
  const auto b = gen::random_rhs<float>(Lf.nrows, 102);
  BlockSolver<float> solver(Lf, opts<float>(scheme));
  EXPECT_TRUE(
      VectorsNear(solver.solve(b), sptrsv_serial(Lf, b), default_tol<float>()))
      << tm.name;
}

TEST_P(SolverOnMatrix, SimulatedSolveMatchesPlainSolve) {
  const auto [scheme, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto L = tm.build();
  const auto b = gen::random_rhs<double>(L.nrows, 103);
  BlockSolver<double> solver(L, opts<double>(scheme));

  const auto gpu = sim::titan_rtx();
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport rep;
  BlockSolveBreakdown bd;
  const auto xs = solver.solve_simulated(b, gpu, &cache, &rep, &bd);
  EXPECT_EQ(xs, solver.solve(b));  // simulation must not perturb numerics
  EXPECT_GT(rep.ns, 0.0);
  EXPECT_EQ(rep.flops, 2 * L.nnz());
  // The tri/spmv breakdown accounts for all time.
  EXPECT_NEAR(bd.tri_ns + bd.spmv_ns, rep.ns, 1e-6 * rep.ns + 1e-9);
  EXPECT_EQ(bd.spmv_kernels, static_cast<int>(solver.plan().squares.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverOnMatrix,
    ::testing::Combine(::testing::Values(BlockScheme::kColumn,
                                         BlockScheme::kRow,
                                         BlockScheme::kRecursive,
                                         BlockScheme::kHbmc),
                       ::testing::Range(0, static_cast<int>(
                                               test_matrices().size()))),
    [](const ::testing::TestParamInfo<std::tuple<BlockScheme, int>>& info) {
      std::string s = to_string(std::get<0>(info.param));
      for (auto& c : s)
        if (c == '-') c = '_';
      return s + "_" +
             test_matrices()[static_cast<std::size_t>(
                                 std::get<1>(info.param))].name;
    });

TEST(BlockSolver, ForcedKernelsStillCorrect) {
  const auto L = gen::kkt_structure(3000, 13, 3.0, 7);
  const auto b = gen::random_rhs<double>(3000, 104);
  const auto want = sptrsv_serial(L, b);
  for (const auto tri :
       {TriKernelKind::kLevelSet, TriKernelKind::kSyncFree,
        TriKernelKind::kCusparseLike}) {
    for (const auto sq :
         {SpmvKernelKind::kScalarCsr, SpmvKernelKind::kVectorCsr,
          SpmvKernelKind::kScalarDcsr, SpmvKernelKind::kVectorDcsr}) {
      auto o = opts<double>(BlockScheme::kRecursive, 300);
      o.adaptive = false;
      o.forced_tri = tri;
      o.forced_square = sq;
      BlockSolver<double> solver(L, o);
      EXPECT_TRUE(VectorsNear(solver.solve(b), want, default_tol<double>()))
          << to_string(tri) << "/" << to_string(sq);
      // Every block really uses the forced kinds. Empty squares are exempt:
      // they skip selection entirely and carry the canonical scalar-CSR
      // marking (the executors never run them).
      for (const auto& info : solver.tri_info())
        EXPECT_EQ(info.kind, tri);
      for (const auto& info : solver.square_info())
        if (info.nnz > 0) EXPECT_EQ(info.kind, sq);
    }
  }
}

TEST(BlockSolver, ReorderOffStillCorrect) {
  const auto L = gen::trace_network(2500, 9, 1.8, 0.45, 9);
  const auto b = gen::random_rhs<double>(2500, 105);
  auto o = opts<double>(BlockScheme::kRecursive, 250);
  o.planner.reorder = false;
  BlockSolver<double> solver(L, o);
  EXPECT_TRUE(
      VectorsNear(solver.solve(b), sptrsv_serial(L, b), default_tol<double>()));
}

TEST(BlockSolver, EmptySquareBlocksSkippedConsistently) {
  // A diagonal matrix under the column scheme plans squares with zero
  // nonzeros. They must carry the canonical scalar-CSR marking (selection
  // and DCSR conversion are skipped) and every executor — serial, waved,
  // checked, batched — must agree they are no-ops.
  const auto L = gen::diagonal(400, 21);
  auto o = opts<double>(BlockScheme::kColumn, 200, 4);
  o.threads = 2;
  BlockSolver<double> solver(L, o);
  ASSERT_FALSE(solver.square_info().empty());
  for (const auto& info : solver.square_info()) {
    EXPECT_EQ(info.nnz, 0);
    EXPECT_EQ(info.kind, SpmvKernelKind::kScalarCsr);
    EXPECT_EQ(info.empty_ratio, 1.0);
  }
  const auto b = gen::random_rhs<double>(L.nrows, 106);
  const auto want = sptrsv_serial(L, b);
  EXPECT_TRUE(VectorsNear(solver.solve(b), want, default_tol<double>()));
  const auto res = solver.solve_checked(b);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  EXPECT_TRUE(VectorsNear(res.x, want, default_tol<double>()));
  std::vector<double> B(b);
  B.insert(B.end(), b.begin(), b.end());
  const auto X = solver.solve_many(B, 2);
  EXPECT_TRUE(VectorsNear(
      std::vector<double>(X.begin(), X.begin() + L.nrows), want,
      default_tol<double>()));
}

TEST(BlockSolver, MultipleRhsReusePreprocessing) {
  const auto L = gen::grid2d(50, 40, 11);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive, 300));
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto b = gen::random_rhs<double>(L.nrows, 200 + seed);
    EXPECT_TRUE(VectorsNear(solver.solve(b), sptrsv_serial(L, b),
                            default_tol<double>()));
  }
}

TEST(BlockSolver, AdaptiveSelectsDiagonalKernelAfterReorder) {
  // A two-level matrix reordered by level sets: the first leaf should be a
  // pure diagonal block solved by the completely-parallel kernel.
  const auto L = gen::two_level_kkt(4000, 2000, 6.0, 13);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive, 500));
  bool saw_diag_kernel = false;
  for (const auto& info : solver.tri_info())
    if (info.kind == TriKernelKind::kCompletelyParallel) saw_diag_kernel = true;
  EXPECT_TRUE(saw_diag_kernel);
}

TEST(BlockSolver, NnzConservation) {
  const auto L = gen::power_law(3000, 2.1, 128, 5.0, 15);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive, 300));
  offset_t tri_nnz = 0;
  for (const auto& info : solver.tri_info()) tri_nnz += info.nnz;
  EXPECT_EQ(tri_nnz + solver.nnz_in_squares(), L.nnz());
  EXPECT_EQ(solver.nnz(), L.nnz());
  EXPECT_EQ(solver.n(), 3000);
}

TEST(BlockSolver, PreprocessStatsPopulated) {
  const auto L = gen::banded(5000, 32, 3.0, 17);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive, 500));
  const auto st = solver.preprocess_stats();
  EXPECT_GT(st.host_ops, L.nnz());  // at least one pass over the nonzeros
  EXPECT_GT(st.host_bytes, 0);
  EXPECT_GT(st.model_ms, 0.0);
}

TEST(BlockSolver, RejectsNonTriangularInput) {
  Coo<double> coo;
  coo.nrows = coo.ncols = 2;
  coo.row = {0, 0, 1, 1};
  coo.col = {0, 1, 0, 1};
  coo.val = {1, 1, 1, 1};
  const auto a = coo_to_csr(coo);
  EXPECT_THROW(BlockSolver<double>(a, opts<double>(BlockScheme::kRecursive)),
               Error);
}

TEST(BlockSolver, RejectsWrongRhsSize) {
  const auto L = gen::diagonal(10, 1);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive));
  EXPECT_THROW(solver.solve(std::vector<double>(9, 1.0)), Error);
}

TEST(BlockSolver, SingleElementSystem) {
  Csr<double> L;
  L.nrows = L.ncols = 1;
  L.row_ptr = {0, 1};
  L.col_idx = {0};
  L.val = {4.0};
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive));
  const auto x = solver.solve({8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(BlockSolver, ColumnAndRowSchemesHonourNseg) {
  const auto L = gen::banded(1000, 8, 2.0, 19);
  for (const index_t nseg : {1, 2, 7, 16}) {
    BlockSolver<double> sc(L, opts<double>(BlockScheme::kColumn, 200, nseg));
    EXPECT_EQ(sc.plan().num_tri_blocks(), nseg);
    BlockSolver<double> sr(L, opts<double>(BlockScheme::kRow, 200, nseg));
    EXPECT_EQ(sr.plan().num_tri_blocks(), nseg);
    const auto b = gen::random_rhs<double>(1000, 300);
    EXPECT_TRUE(VectorsNear(sc.solve(b), sr.solve(b), default_tol<double>()));
  }
}

TEST(BlockSolver, WarmCacheIsFasterThanCold) {
  // The §2.2 locality argument, observable through the model: a second solve
  // with a warm cache must not be slower than the first cold one.
  const auto L = gen::kkt_structure(20000, 9, 4.0, 21);
  const auto b = gen::random_rhs<double>(20000, 301);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive, 2000));
  const auto gpu = sim::titan_rtx();
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport cold, warm;
  solver.solve_simulated(b, gpu, &cache, &cold);
  solver.solve_simulated(b, gpu, &cache, &warm);
  EXPECT_LE(warm.ns, cold.ns);
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
}

TEST(BlockSolver, SolveCheckedMatchesSolveAndVerifiesResidual) {
  for (const auto& tm : test_matrices()) {
    const auto L = tm.build();
    const auto b = gen::random_rhs<double>(L.nrows, 401);
    BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive));
    const auto res = solver.solve_checked(b);
    ASSERT_TRUE(res.ok()) << tm.name << ": " << res.status.to_string();
    EXPECT_TRUE(res.report.residual_checked) << tm.name;
    EXPECT_LE(res.report.residual, res.report.tolerance) << tm.name;
    EXPECT_TRUE(res.report.fallbacks.empty()) << tm.name;
    EXPECT_EQ(res.report.refinements, 0) << tm.name;
    EXPECT_TRUE(VectorsNear(res.x, solver.solve(b), default_tol<double>()))
        << tm.name;
  }
}

TEST(BlockSolver, SolveCheckedFloatPrecision) {
  const auto Lf = gen::convert_values<float>(gen::grid2d(40, 25, 5));
  const auto b = gen::random_rhs<float>(Lf.nrows, 402);
  BlockSolver<float> solver(Lf, opts<float>(BlockScheme::kRecursive));
  const auto res = solver.solve_checked(b);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  EXPECT_LE(res.report.residual, res.report.tolerance);
}

TEST(BlockSolver, CreateFactoryReturnsTypedStatus) {
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(gen::diagonal(10, 1),
                                          opts<double>(BlockScheme::kRecursive),
                                          &solver)
                  .ok());
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->solve(std::vector<double>(10, 1.0)).size(), 10u);

  Coo<double> coo;  // 2x3: not even square
  coo.nrows = 2;
  coo.ncols = 3;
  coo.row = {0, 1};
  coo.col = {0, 1};
  coo.val = {1, 1};
  std::unique_ptr<BlockSolver<double>> bad;
  EXPECT_EQ(BlockSolver<double>::create(coo_to_csr(coo),
                                        opts<double>(BlockScheme::kRecursive),
                                        &bad)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad, nullptr);
}

TEST(BlockSolver, DeterministicSimulation) {
  const auto L = gen::power_law(5000, 2.0, 256, 4.0, 23);
  const auto b = gen::random_rhs<double>(5000, 302);
  BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive, 500));
  const auto gpu = sim::titan_x();
  auto run = [&] {
    sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                          gpu.cache_assoc);
    sim::SolveReport rep;
    solver.solve_simulated(b, gpu, &cache, &rep);
    return rep.ns;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace blocktri
