// SIMD path equivalence suite: the vector lowering must be bitwise identical
// to the blocked-scalar lowering (they share the canonical 4-lane order, and
// the build disables FP contraction), the strict-scalar escape hatch must
// agree to rounding, and batched kernels must reproduce the single-RHS
// results column by column. Also covers the level-merge execution groups
// (merge width 0 turns merging off) and path dispatch hygiene.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/simd.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "sptrsv/levelset.hpp"
#include "sptrsv/serial.hpp"

namespace blocktri {
namespace {

using blocktri::testing::default_tol;
using blocktri::testing::PathGuard;
using blocktri::testing::test_matrices;
using blocktri::testing::VectorsNear;

/// Bitwise comparison (the vector and blocked-scalar paths share one
/// operation order, so == is the right predicate, not a tolerance).
template <class T>
::testing::AssertionResult VectorsBitwise(const std::vector<T>& a,
                                          const std::vector<T>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i])
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << static_cast<double>(a[i])
             << " != " << static_cast<double>(b[i]);
  return ::testing::AssertionSuccess();
}

template <class T>
std::vector<T> spmv_under(simd::Path p, const Csr<T>& a,
                          const std::vector<T>& x, std::vector<T> y) {
  PathGuard g(p);
  simd::spmv_update_rows(a.row_ptr.data(), a.col_idx.data(), a.val.data(),
                         static_cast<const index_t*>(nullptr), 0, a.nrows,
                         x.data(), y.data());
  return y;
}

/// The batched update over interleaved k-column panels (element (i, c) at
/// i·k + c).
template <class T>
std::vector<T> spmv_many_under(simd::Path p, const Csr<T>& a,
                               const std::vector<T>& x, std::vector<T> y,
                               index_t k) {
  PathGuard g(p);
  simd::spmv_update_rows_many(a.row_ptr.data(), a.col_idx.data(),
                              a.val.data(), static_cast<const index_t*>(nullptr),
                              0, a.nrows, x.data(), y.data(), 0, k, k, k);
  return y;
}

template <class T>
std::vector<T> sptrsv_under(simd::Path p, const Csr<T>& a,
                            const std::vector<T>& b) {
  PathGuard g(p);
  std::vector<index_t> items(static_cast<std::size_t>(a.nrows));
  for (index_t i = 0; i < a.nrows; ++i)
    items[static_cast<std::size_t>(i)] = i;
  std::vector<T> x(b.size());
  simd::sptrsv_rows(a.row_ptr.data(), a.col_idx.data(), a.val.data(),
                    items.data(), 0, a.nrows, b.data(), x.data());
  return x;
}

template <class T>
void expect_kernel_paths_agree(const Csr<T>& a) {
  const index_t n = a.nrows;
  const auto x = gen::random_rhs<T>(a.ncols, 21);
  const auto y0 = gen::random_rhs<T>(n, 22);

  // SpMV update: vector == blocked bitwise; strict agrees to rounding.
  const auto y_blocked = spmv_under(simd::Path::kBlockedScalar, a, x, y0);
  EXPECT_TRUE(VectorsBitwise(spmv_under(simd::Path::kVector, a, x, y0),
                             y_blocked));
  EXPECT_TRUE(VectorsNear(spmv_under(simd::Path::kStrictScalar, a, x, y0),
                          y_blocked, default_tol<T>()));

  // Batched SpMV: bitwise across paths AND column c bitwise equal to the
  // single-RHS kernel applied to that column (the canonical order is shared).
  const index_t k = 16;
  const auto ku = static_cast<std::size_t>(k);
  std::vector<std::vector<T>> xcols, ycols;
  std::vector<T> xp(static_cast<std::size_t>(a.ncols) * ku),
      yp0(static_cast<std::size_t>(n) * ku);
  for (index_t c = 0; c < k; ++c) {
    xcols.push_back(gen::random_rhs<T>(a.ncols, 100 + static_cast<int>(c)));
    ycols.push_back(gen::random_rhs<T>(n, 200 + static_cast<int>(c)));
    for (std::size_t j = 0; j < xcols.back().size(); ++j)
      xp[j * ku + static_cast<std::size_t>(c)] = xcols.back()[j];
    for (std::size_t i = 0; i < ycols.back().size(); ++i)
      yp0[i * ku + static_cast<std::size_t>(c)] = ycols.back()[i];
  }
  const auto yp_blocked =
      spmv_many_under(simd::Path::kBlockedScalar, a, xp, yp0, k);
  EXPECT_TRUE(VectorsBitwise(
      spmv_many_under(simd::Path::kVector, a, xp, yp0, k), yp_blocked));
  EXPECT_TRUE(VectorsNear(
      spmv_many_under(simd::Path::kStrictScalar, a, xp, yp0, k), yp_blocked,
      default_tol<T>()));
  for (index_t c = 0; c < k; ++c) {
    const auto cu = static_cast<std::size_t>(c);
    const auto ycol = spmv_under(simd::Path::kVector, a, xcols[cu], ycols[cu]);
    std::vector<T> got(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < got.size(); ++i)
      got[i] = yp_blocked[i * ku + cu];
    EXPECT_TRUE(VectorsBitwise(got, ycol)) << "column " << c;
  }
}

template <class T>
void expect_sptrsv_paths_agree(const Csr<T>& lower) {
  const auto b = gen::random_rhs<T>(lower.nrows, 33);
  const auto x_blocked = sptrsv_under(simd::Path::kBlockedScalar, lower, b);
  EXPECT_TRUE(VectorsBitwise(sptrsv_under(simd::Path::kVector, lower, b),
                             x_blocked));
  EXPECT_TRUE(VectorsNear(sptrsv_under(simd::Path::kStrictScalar, lower, b),
                          x_blocked, default_tol<T>()));
  EXPECT_TRUE(VectorsNear(sptrsv_serial(lower, b), x_blocked,
                          default_tol<T>()));
}

class SimdOnMatrix : public ::testing::TestWithParam<int> {};

TEST_P(SimdOnMatrix, SpmvPathsAgreeDouble) {
  const auto tm = test_matrices()[static_cast<std::size_t>(GetParam())];
  expect_kernel_paths_agree(tm.build());
}

TEST_P(SimdOnMatrix, SpmvPathsAgreeFloat) {
  const auto tm = test_matrices()[static_cast<std::size_t>(GetParam())];
  expect_kernel_paths_agree(gen::convert_values<float>(tm.build()));
}

TEST_P(SimdOnMatrix, SptrsvPathsAgreeDouble) {
  const auto tm = test_matrices()[static_cast<std::size_t>(GetParam())];
  expect_sptrsv_paths_agree(tm.build());
}

TEST_P(SimdOnMatrix, SptrsvPathsAgreeFloat) {
  const auto tm = test_matrices()[static_cast<std::size_t>(GetParam())];
  expect_sptrsv_paths_agree(gen::convert_values<float>(tm.build()));
}

INSTANTIATE_TEST_SUITE_P(
    AllMatrices, SimdOnMatrix,
    ::testing::Range(0, static_cast<int>(test_matrices().size())));

TEST(SimdDispatch, ForceAndClear) {
  simd::force_path(simd::Path::kStrictScalar);
  EXPECT_EQ(simd::active_path(), simd::Path::kStrictScalar);
  simd::force_path(simd::Path::kBlockedScalar);
  EXPECT_EQ(simd::active_path(), simd::Path::kBlockedScalar);
  simd::force_path(simd::Path::kVector);
  if (simd::vector_isa_available()) {
    EXPECT_EQ(simd::active_path(), simd::Path::kVector);
  } else {
    // Forcing a missing ISA clamps to the (bitwise identical) scalar order.
    EXPECT_EQ(simd::active_path(), simd::Path::kBlockedScalar);
  }
  simd::clear_forced_path();
  EXPECT_NE(simd::to_string(simd::active_path()), nullptr);
  EXPECT_NE(simd::vector_isa_name(), nullptr);
}

TEST(SimdDispatch, DivRowsPathsAgree) {
  const index_t n = 1031;  // odd length exercises the vector tail
  const auto b = gen::random_rhs<double>(n, 5);
  auto d = gen::random_rhs<double>(n, 6);
  for (auto& v : d) v += v < 0 ? -1.0 : 1.0;  // keep away from zero
  std::vector<double> x_scalar(b.size()), x_vector(b.size());
  {
    PathGuard g(simd::Path::kBlockedScalar);
    simd::div_rows(b.data(), d.data(), x_scalar.data(), n);
  }
  {
    PathGuard g(simd::Path::kVector);
    simd::div_rows(b.data(), d.data(), x_vector.data(), n);
  }
  EXPECT_TRUE(VectorsBitwise(x_vector, x_scalar));
}

// Whole-solver equivalence: the same BlockSolver must produce bitwise equal
// solutions on the vector and blocked-scalar paths, for single and batched
// solves, and rounding-level agreement against the strict-scalar loops.
template <class T>
void expect_solver_paths_agree(const Csr<T>& L) {
  typename BlockSolver<T>::Options o;
  o.planner.stop_rows = 200;
  const BlockSolver<T> solver(L, o);
  const auto b = gen::random_rhs<T>(L.nrows, 55);
  const index_t k = 5;
  std::vector<T> B;
  for (index_t c = 0; c < k; ++c) {
    const auto bc = gen::random_rhs<T>(L.nrows, 300 + static_cast<int>(c));
    B.insert(B.end(), bc.begin(), bc.end());
  }

  std::vector<T> x_blocked, x_vector, x_strict, X_blocked, X_vector;
  {
    PathGuard g(simd::Path::kBlockedScalar);
    x_blocked = solver.solve(b);
    X_blocked = solver.solve_many(B, k);
  }
  {
    PathGuard g(simd::Path::kVector);
    x_vector = solver.solve(b);
    X_vector = solver.solve_many(B, k);
  }
  {
    PathGuard g(simd::Path::kStrictScalar);
    x_strict = solver.solve(b);
  }
  EXPECT_TRUE(VectorsBitwise(x_vector, x_blocked));
  EXPECT_TRUE(VectorsBitwise(X_vector, X_blocked));
  EXPECT_TRUE(VectorsNear(x_strict, x_blocked, default_tol<T>()));
  EXPECT_TRUE(VectorsNear(x_blocked, sptrsv_serial(L, b), default_tol<T>()));
}

TEST(SimdSolver, PathsAgreeDouble) {
  for (const auto& tm : test_matrices()) {
    SCOPED_TRACE(tm.name);
    expect_solver_paths_agree(tm.build());
  }
}

TEST(SimdSolver, PathsAgreeFloat) {
  for (const auto& tm : test_matrices()) {
    SCOPED_TRACE(tm.name);
    expect_solver_paths_agree(gen::convert_values<float>(tm.build()));
  }
}

TEST(SimdSolver, RawPointerSolveMatchesVectorApi) {
  const auto L = gen::random_levels(1500, 24, 3.0, 1.0, 8);
  typename BlockSolver<double>::Options o;
  o.planner.stop_rows = 200;
  const BlockSolver<double> solver(L, o);
  const auto b = gen::random_rhs<double>(L.nrows, 77);
  const auto want = solver.solve(b);
  std::vector<double> got(b.size());
  solver.solve(b.data(), got.data());
  EXPECT_TRUE(VectorsBitwise(got, want));

  const index_t k = 3;
  std::vector<double> B;
  for (index_t c = 0; c < k; ++c) {
    const auto bc = gen::random_rhs<double>(L.nrows, 400 + static_cast<int>(c));
    B.insert(B.end(), bc.begin(), bc.end());
  }
  const auto Want = solver.solve_many(B, k);
  std::vector<double> Got(B.size());
  solver.solve_many(B.data(), Got.data(), k);
  EXPECT_TRUE(VectorsBitwise(Got, Want));
}

// Level merging must change only the grouping, never a floating-point
// operation: solves with merging disabled are bitwise identical.
TEST(LevelMerge, DisabledMatchesBitwise) {
  const auto L = gen::random_levels(2000, 500, 2.0, 1.0, 9);
  const auto b = gen::random_rhs<double>(L.nrows, 91);

  const LevelSetSolver<double> merged(L);
  const LevelSetSolver<double> unmerged(L, nullptr, /*merge_max_width=*/0);

  EXPECT_EQ(unmerged.exec_groups(), unmerged.levels().nlevels);
  EXPECT_LE(merged.exec_groups(), merged.levels().nlevels);
  // A 500-deep chain of narrow levels must actually merge something.
  EXPECT_LT(merged.exec_groups(), merged.levels().nlevels);

  std::vector<double> x_merged(b.size()), x_unmerged(b.size());
  merged.solve(b.data(), x_merged.data());
  unmerged.solve(b.data(), x_unmerged.data());
  EXPECT_TRUE(VectorsBitwise(x_merged, x_unmerged));

  const index_t k = 4;
  std::vector<double> B;
  for (index_t c = 0; c < k; ++c) {
    const auto bc = gen::random_rhs<double>(L.nrows, 500 + static_cast<int>(c));
    B.insert(B.end(), bc.begin(), bc.end());
  }
  // B read as an interleaved panel (element (i, c) at i·k + c).
  std::vector<double> X_merged(B.size()), X_unmerged(B.size());
  merged.solve_many(B.data(), X_merged.data(), k, k);
  unmerged.solve_many(B.data(), X_unmerged.data(), k, k);
  EXPECT_TRUE(VectorsBitwise(X_merged, X_unmerged));
}

// The op counters are runtime-only and default off.
TEST(SolveStats, CountersBehindCollectStats) {
  const auto L = gen::random_levels(1500, 24, 3.0, 1.0, 8);
  const auto b = gen::random_rhs<double>(L.nrows, 13);

  BlockSolver<double>::Options off;
  off.planner.stop_rows = 200;
  const BlockSolver<double> s_off(L, off);
  const auto r_off = s_off.solve_checked(b);
  ASSERT_TRUE(r_off.ok());
  EXPECT_EQ(r_off.report.flops, 0);
  EXPECT_EQ(r_off.report.bytes, 0);
  EXPECT_EQ(r_off.report.levels_executed, 0);

  BlockSolver<double>::Options on = off;
  on.collect_stats = true;
  const BlockSolver<double> s_on(L, on);
  const auto r_on = s_on.solve_checked(b);
  ASSERT_TRUE(r_on.ok());
  EXPECT_EQ(r_on.report.flops, 2 * static_cast<std::int64_t>(L.nnz()));
  EXPECT_GT(r_on.report.bytes, 0);
  EXPECT_GE(r_on.report.levels_merged, 0);
  // collect_stats is not plan-affecting: same fingerprint either way.
  EXPECT_EQ(BlockSolver<double>::options_fingerprint(off),
            BlockSolver<double>::options_fingerprint(on));

  const auto rm = s_on.solve_many_checked(b, 1);
  ASSERT_TRUE(rm.ok());
  ASSERT_EQ(rm.reports.size(), 1u);
  EXPECT_EQ(rm.reports[0].flops, r_on.report.flops);
}

}  // namespace
}  // namespace blocktri
