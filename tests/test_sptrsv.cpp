// Baseline SpTRSV solver tests: every parallel solver must match the serial
// oracle (Algorithm 1) on every structural family, in both precisions, and
// the GPU model's launch/sync accounting of each solver's structure
// (model/kernels.hpp) must match each algorithm's design.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "helpers.hpp"
#include "model/replay.hpp"
#include "sparse/dense.hpp"
#include "sptrsv/cusparse_like.hpp"
#include "sptrsv/diagonal.hpp"
#include "sptrsv/levelset.hpp"
#include "sptrsv/serial.hpp"
#include "sptrsv/syncfree.hpp"

namespace blocktri {
namespace {

using blocktri::testing::default_tol;
using blocktri::testing::test_matrices;
using blocktri::testing::VectorsNear;

TEST(Serial, MatchesDenseOracle) {
  const auto L = gen::dense_lower(60, 0.4, 1);
  const auto b = gen::random_rhs<double>(60, 2);
  const auto x = sptrsv_serial(L, b);
  const auto want = dense_lower_solve(to_dense(L), 60, b);
  EXPECT_TRUE(VectorsNear(x, want, 1e-12));
}

TEST(Serial, RejectsSingular) {
  auto L = gen::tridiag_chain(5, 1);
  L.val[L.val.size() - 1] = 0.0;  // kill the last diagonal
  EXPECT_THROW(sptrsv_serial(L, std::vector<double>(5, 1.0)), Error);
}

TEST(Serial, SolvesIdentityLikeSystem) {
  const auto L = gen::diagonal(10, 3);
  std::vector<double> b(10, 2.0);
  const auto x = sptrsv_serial(L, b);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(i)],
                     2.0 / L.val[static_cast<std::size_t>(i)]);
}

enum class Baseline { kLevelSet, kSyncFree, kCusparseLike };

std::string baseline_name(Baseline b) {
  switch (b) {
    case Baseline::kLevelSet: return "levelset";
    case Baseline::kSyncFree: return "syncfree";
    case Baseline::kCusparseLike: return "cusparselike";
  }
  return "?";
}

/// Solves with the baseline `which`; with `s`, also models its kernel over
/// the solver's structure into s->report.
template <class T>
std::vector<T> run_baseline(Baseline which, const Csr<T>& L,
                            const std::vector<T>& b,
                            const model::TrsvSim* s = nullptr) {
  std::vector<T> x(static_cast<std::size_t>(L.nrows));
  const auto run = [&](const auto& solver) {
    solver.solve(b.data(), x.data());
    if (s != nullptr)
      model::triangle(model::kind_of(solver), model::tri_view(solver), *s);
  };
  switch (which) {
    case Baseline::kLevelSet:
      run(LevelSetSolver<T>(L));
      break;
    case Baseline::kSyncFree:
      run(SyncFreeSolver<T>(L));
      break;
    case Baseline::kCusparseLike:
      run(CusparseLikeSolver<T>(L));
      break;
  }
  return x;
}

/// The model context of a cache-less device with every base address 0.
model::TrsvSim cacheless(const sim::GpuSpec& gpu, sim::SolveReport* rep) {
  model::TrsvSim ts;
  ts.gpu = &gpu;
  ts.fp64 = true;
  ts.report = rep;
  return ts;
}

// Cross product: baseline x structural family.
class BaselineOnMatrix
    : public ::testing::TestWithParam<std::tuple<Baseline, int>> {};

TEST_P(BaselineOnMatrix, MatchesSerialDouble) {
  const auto [which, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto L = tm.build();
  const auto b = gen::random_rhs<double>(L.nrows, 42);
  const auto want = sptrsv_serial(L, b);
  const auto got = run_baseline(which, L, b);
  EXPECT_TRUE(VectorsNear(got, want, default_tol<double>())) << tm.name;
}

TEST_P(BaselineOnMatrix, MatchesSerialFloat) {
  const auto [which, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto Lf = gen::convert_values<float>(tm.build());
  const auto b = gen::random_rhs<float>(Lf.nrows, 43);
  const auto want = sptrsv_serial(Lf, b);
  const auto got = run_baseline(which, Lf, b);
  EXPECT_TRUE(VectorsNear(got, want, default_tol<float>())) << tm.name;
}

TEST_P(BaselineOnMatrix, SimulatedSolveSameResultAndPositiveTime) {
  const auto [which, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto L = tm.build();
  const auto b = gen::random_rhs<double>(L.nrows, 44);
  const auto want = run_baseline(which, L, b);

  const auto gpu = sim::titan_rtx();
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport rep;
  model::TrsvSim ts = cacheless(gpu, &rep);
  ts.cache = &cache;
  ts.b_base = 1u << 26;
  ts.aux_base = 1u << 27;
  const auto got = run_baseline(which, L, b, &ts);
  EXPECT_EQ(got, want);  // the model reads structure and touches no value
  EXPECT_GT(rep.ns, 0.0);
  EXPECT_EQ(rep.flops, 2 * L.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineOnMatrix,
    ::testing::Combine(::testing::Values(Baseline::kLevelSet,
                                         Baseline::kSyncFree,
                                         Baseline::kCusparseLike),
                       ::testing::Range(0, static_cast<int>(
                                               test_matrices().size()))),
    [](const ::testing::TestParamInfo<std::tuple<Baseline, int>>& info) {
      return baseline_name(std::get<0>(info.param)) + "_" +
             test_matrices()[static_cast<std::size_t>(
                                 std::get<1>(info.param))].name;
    });

TEST(LevelSet, LaunchesOneKernelPerLevel) {
  const auto L = gen::random_levels(2000, 37, 2.0, 1.0, 5);
  LevelSetSolver<double> solver(L);
  EXPECT_EQ(solver.levels().nlevels, 37);

  const auto gpu = sim::titan_rtx();
  sim::SolveReport rep;
  model::level_set(model::tri_view(solver), cacheless(gpu, &rep));
  EXPECT_EQ(rep.kernel_launches, 37);
  EXPECT_EQ(rep.grid_syncs, 0);
}

TEST(SyncFree, OneSolveKernelPlusReset) {
  const auto L = gen::kkt_structure(3000, 21, 3.0, 7);
  SyncFreeSolver<double> solver(L);

  const auto gpu = sim::titan_rtx();
  sim::SolveReport rep;
  model::TrsvSim ts = cacheless(gpu, &rep);
  model::sync_free(model::tri_view(solver), ts);
  // One launch for the whole solve — the algorithm's selling point — plus
  // one for resetting left_sum / in_degree.
  EXPECT_EQ(rep.kernel_launches, 2);
  EXPECT_EQ(rep.grid_syncs, 0);
  // The modelled Alg. 3 report, recorded from a build whose host kernel
  // held the CSC: the model's transient column view must reproduce it
  // exactly.
  EXPECT_EQ(rep.ns, 0x1.21d6924924925p+16  /* 74198.571428571435 */);
  EXPECT_EQ(rep.flops, 28804);
  EXPECT_EQ(rep.bytes, 4675736);

  // Warm cache over two solves: the hit counts are part of the model too.
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport warm;
  ts.cache = &cache;
  ts.report = &warm;
  model::sync_free(model::tri_view(solver), ts);
  model::sync_free(model::tri_view(solver), ts);
  EXPECT_EQ(warm.kernel_launches, 4);
  EXPECT_EQ(warm.ns, 0x1.fc2e492492492p+15  /* 65047.142857142855 */);
  EXPECT_EQ(warm.bytes, 477744);
  EXPECT_EQ(warm.cache_hits, 69326u);
  EXPECT_EQ(warm.cache_misses, 282u);
}

TEST(SyncFree, InDegreesMatchStrictRows) {
  // Alg. 3's in-degrees are the strict row lengths: each kernel row minus
  // its trailing diagonal.
  const auto L = blocktri::testing::figure1_matrix();
  SyncFreeSolver<double> solver(L);
  const Csr<double>& rows = solver.matrix();
  std::vector<index_t> strict;
  for (index_t i = 0; i < rows.nrows; ++i) {
    ASSERT_EQ(rows.col_idx[static_cast<std::size_t>(
                  rows.row_ptr[static_cast<std::size_t>(i) + 1] - 1)],
              i);
    strict.push_back(static_cast<index_t>(rows.row_nnz(i)) - 1);
  }
  EXPECT_EQ(strict, (std::vector<index_t>{0, 0, 1, 1, 1, 2, 0, 2}));
}

TEST(CusparseLike, MergesSmallLevels) {
  // 500 levels of ~width 2 with budget 64: expect far fewer kernels than
  // levels, but more than one.
  const auto L = gen::random_levels(1000, 500, 1.0, 1.0, 9);
  CusparseLikeSolver<double> solver(L, /*merge_component_budget=*/64);
  EXPECT_LT(solver.num_merged_kernels(), 100);
  EXPECT_GT(solver.num_merged_kernels(), 5);

  const auto gpu = sim::titan_rtx();
  sim::SolveReport rep;
  model::cusparse_like(model::tri_view(solver), cacheless(gpu, &rep));
  EXPECT_EQ(rep.kernel_launches, solver.num_merged_kernels());
  EXPECT_EQ(rep.kernel_launches + rep.grid_syncs, 500);
}

TEST(CusparseLike, WideLevelsGetOwnKernels) {
  const auto L = gen::random_levels(4000, 4, 2.0, 1.0, 11);  // 4 wide levels
  CusparseLikeSolver<double> solver(L, 64);
  EXPECT_EQ(solver.num_merged_kernels(), 4);
}

TEST(Diagonal, SolvesAndSimulates) {
  std::vector<double> diag = {2.0, -4.0, 0.5};
  DiagonalSolver<double> solver(diag);
  const std::vector<double> b = {2.0, 8.0, 1.0};
  std::vector<double> x(3);
  solver.solve(b.data(), x.data());
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
  EXPECT_DOUBLE_EQ(x[2], 2.0);

  const auto gpu = sim::titan_rtx();
  sim::SolveReport rep;
  model::diagonal(solver.n(), cacheless(gpu, &rep));
  EXPECT_EQ(rep.kernel_launches, 1);
  EXPECT_GT(rep.ns, 0.0);
}

TEST(Diagonal, RejectsZeroDiagonal) {
  EXPECT_THROW(DiagonalSolver<double>({1.0, 0.0}), Error);
}

TEST(Baselines, DeepChainCostOrdering) {
  // On a serial chain, the sync-free critical path and the cuSPARSE-like
  // merged-sync path should both be far slower per component than on a wide
  // matrix — and the level-set method (one launch per level) slowest of all.
  const auto L = gen::tridiag_chain(4000, 12);
  const auto b = gen::random_rhs<double>(4000, 13);
  const auto gpu = sim::titan_rtx();

  auto simulate = [&](Baseline which) {
    sim::SolveReport rep;
    const model::TrsvSim ts = cacheless(gpu, &rep);
    run_baseline(which, L, b, &ts);
    return rep.ns;
  };
  const double ls = simulate(Baseline::kLevelSet);
  const double sf = simulate(Baseline::kSyncFree);
  const double cu = simulate(Baseline::kCusparseLike);
  EXPECT_GT(ls, cu);  // per-level launches dwarf merged-level syncs
  EXPECT_GT(ls, sf);
  // All should be dominated by per-level serialisation, not bandwidth.
  EXPECT_GT(cu, 4000 * 0.5 * gpu.grid_sync_ns);
}

}  // namespace
}  // namespace blocktri
