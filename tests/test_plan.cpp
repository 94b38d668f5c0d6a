// Partition-planner tests: block shapes of the three schemes, the exact
// Table 1/2 traffic closed forms, and the recursive reordering invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/features.hpp"
#include "analysis/levels.hpp"
#include "common/prefix.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "order/hbmc.hpp"
#include "persist/artifact.hpp"
#include "sparse/permute.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {
namespace {

TEST(Plan, UniformBoundaries) {
  EXPECT_EQ(uniform_boundaries(10, 4), (std::vector<index_t>{0, 2, 5, 7, 10}));
  EXPECT_EQ(uniform_boundaries(9, 3), (std::vector<index_t>{0, 3, 6, 9}));
  EXPECT_EQ(uniform_boundaries(5, 1), (std::vector<index_t>{0, 5}));
  EXPECT_EQ(uniform_boundaries(3, 5).size(), 6u);  // more segs than rows
}

TEST(Plan, ColumnSchemeShape) {
  const auto p = plan_column(100, 4);
  EXPECT_EQ(p.num_tri_blocks(), 4);
  ASSERT_EQ(p.squares.size(), 3u);
  // Square si: rows below segment si, columns of segment si (Fig. 2a).
  EXPECT_EQ(p.squares[0].r0, 25);
  EXPECT_EQ(p.squares[0].r1, 100);
  EXPECT_EQ(p.squares[0].c0, 0);
  EXPECT_EQ(p.squares[0].c1, 25);
  // Execution order: T0 S0 T1 S1 T2 S2 T3.
  ASSERT_EQ(p.steps.size(), 7u);
  EXPECT_EQ(p.steps[0].kind, ExecStep::Kind::kTri);
  EXPECT_EQ(p.steps[1].kind, ExecStep::Kind::kSquare);
  EXPECT_EQ(p.steps[6].kind, ExecStep::Kind::kTri);
}

TEST(Plan, RowSchemeShape) {
  const auto p = plan_row(100, 4);
  EXPECT_EQ(p.num_tri_blocks(), 4);
  ASSERT_EQ(p.squares.size(), 3u);
  // Square si: rows of segment si+1, all columns before it (Fig. 2b).
  EXPECT_EQ(p.squares[0].r0, 25);
  EXPECT_EQ(p.squares[0].r1, 50);
  EXPECT_EQ(p.squares[0].c0, 0);
  EXPECT_EQ(p.squares[0].c1, 25);
  // Execution order: T0 S0 T1 S1 T2 S2 T3 (square before its triangle).
  ASSERT_EQ(p.steps.size(), 7u);
  EXPECT_EQ(p.steps[1].kind, ExecStep::Kind::kSquare);
  EXPECT_EQ(p.steps[2].kind, ExecStep::Kind::kTri);
}

// Tables 1 and 2 of the paper: closed forms for the dense-model traffic with
// nseg = 2^x triangular parts. We check the published cells exactly.
struct TrafficCase {
  index_t parts;
  double col_b, row_b, rec_b;  // Table 1, in units of n
  double col_x, row_x, rec_x;  // Table 2, in units of n
};

class TrafficTables : public ::testing::TestWithParam<TrafficCase> {};

TEST_P(TrafficTables, MatchPaperFormulas) {
  const auto c = GetParam();
  // n must be divisible by parts so segment boundaries are exact.
  const index_t n = 65536 * 4;

  const auto pc = plan_column(n, c.parts);
  const auto pr = plan_row(n, c.parts);
  EXPECT_DOUBLE_EQ(static_cast<double>(pc.b_items_updated()) / n, c.col_b);
  EXPECT_DOUBLE_EQ(static_cast<double>(pr.b_items_updated()) / n, c.row_b);
  EXPECT_DOUBLE_EQ(static_cast<double>(pc.x_items_loaded()) / n, c.col_x);
  EXPECT_DOUBLE_EQ(static_cast<double>(pr.x_items_loaded()) / n, c.row_x);

  // Recursive plan with exactly log2(parts) depth: force splitting by
  // disabling the stop rule relative to n.
  PlannerOptions opt;
  opt.reorder = false;
  opt.stop_rows = n / c.parts / 2;
  opt.max_depth = static_cast<int>(std::lround(std::log2(c.parts)));
  Csr<double> permuted;
  const auto L = gen::diagonal(n, 1);  // structure is irrelevant for traffic
  const auto prc = plan_recursive(L, opt, &permuted);
  EXPECT_EQ(prc.num_tri_blocks(), c.parts);
  EXPECT_DOUBLE_EQ(static_cast<double>(prc.b_items_updated()) / n, c.rec_b);
  EXPECT_DOUBLE_EQ(static_cast<double>(prc.x_items_loaded()) / n, c.rec_x);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, TrafficTables,
    ::testing::Values(
        // parts, col_b, row_b, rec_b, col_x, row_x, rec_x (Tables 1-2).
        TrafficCase{4, 2.5, 1.75, 2.0, 0.75, 1.5, 1.0},
        TrafficCase{16, 8.5, 1.9375, 3.0, 0.9375, 7.5, 2.0},
        TrafficCase{256, 128.5, 2.0 - 1.0 / 256, 5.0, 1.0 - 1.0 / 256, 127.5,
                    4.0}),
    [](const ::testing::TestParamInfo<TrafficCase>& info) {
      return "parts" + std::to_string(info.param.parts);
    });

PlannerOptions small_opts(index_t stop_rows, bool reorder = true) {
  PlannerOptions o;
  o.stop_rows = stop_rows;
  o.reorder = reorder;
  return o;
}

TEST(Plan, RecursiveBoundsPartitionAndStepsInterleave) {
  const auto L = gen::kkt_structure(2000, 9, 3.0, 3);
  Csr<double> permuted;
  const auto p = plan_recursive(L, small_opts(200), &permuted);

  // Bounds ascend from 0 to n.
  EXPECT_EQ(p.tri_bounds.front(), 0);
  EXPECT_EQ(p.tri_bounds.back(), 2000);
  for (std::size_t i = 1; i < p.tri_bounds.size(); ++i)
    EXPECT_LT(p.tri_bounds[i - 1], p.tri_bounds[i]);

  // Steps: in-order traversal => tri, square, tri, square, ..., tri; and
  // every tri/square index appears exactly once.
  ASSERT_EQ(p.steps.size(), 2 * p.squares.size() + 1 +
                                (static_cast<std::size_t>(p.num_tri_blocks()) -
                                 p.squares.size() - 1));
  std::set<index_t> tris, sqs;
  for (std::size_t s = 0; s < p.steps.size(); ++s) {
    if (p.steps[s].kind == ExecStep::Kind::kTri)
      EXPECT_TRUE(tris.insert(p.steps[s].index).second);
    else
      EXPECT_TRUE(sqs.insert(p.steps[s].index).second);
  }
  EXPECT_EQ(static_cast<index_t>(tris.size()), p.num_tri_blocks());
  EXPECT_EQ(sqs.size(), p.squares.size());
  // First and last steps are triangles.
  EXPECT_EQ(p.steps.front().kind, ExecStep::Kind::kTri);
  EXPECT_EQ(p.steps.back().kind, ExecStep::Kind::kTri);
}

TEST(Plan, SquaresTileTheStrictLowerRegionOfLeafComplement) {
  // For a recursive plan, the union of tri diagonal blocks and squares must
  // cover every nonzero: check on a dense lower triangle by nnz accounting.
  const index_t n = 512;
  const auto L = gen::dense_lower(n, 1.0, 5);  // fully dense lower triangle
  Csr<double> permuted;
  const auto p = plan_recursive(L, small_opts(64, false), &permuted);
  offset_t covered = 0;
  for (index_t t = 0; t < p.num_tri_blocks(); ++t) {
    const index_t r0 = p.tri_bounds[static_cast<std::size_t>(t)];
    const index_t r1 = p.tri_bounds[static_cast<std::size_t>(t) + 1];
    covered += count_block_nnz(permuted, r0, r1, r0, r1);
  }
  for (const auto& sq : p.squares)
    covered += count_block_nnz(permuted, sq.r0, sq.r1, sq.c0, sq.c1);
  EXPECT_EQ(covered, L.nnz());
}

TEST(Plan, StopRuleBoundsLeafSize) {
  const auto L = gen::banded(4096, 8, 2.0, 7);
  Csr<double> permuted;
  const auto p = plan_recursive(L, small_opts(512), &permuted);
  for (index_t t = 0; t < p.num_tri_blocks(); ++t) {
    const index_t rows = p.tri_bounds[static_cast<std::size_t>(t) + 1] -
                         p.tri_bounds[static_cast<std::size_t>(t)];
    EXPECT_GE(rows, 512);          // no leaf below the saturation size
    EXPECT_LT(rows, 2 * 512 + 2);  // and every splittable leaf was split
  }
}

TEST(Plan, MaxDepthCapsRecursion) {
  const auto L = gen::banded(4096, 8, 2.0, 7);
  Csr<double> permuted;
  PlannerOptions o = small_opts(2);
  o.max_depth = 3;
  const auto p = plan_recursive(L, o, &permuted);
  EXPECT_EQ(p.num_tri_blocks(), 8);  // 2^3 leaves
  EXPECT_EQ(p.depth_used, 3);
}

TEST(Plan, ReorderingPreservesSystemAndConcentratesNnz) {
  const auto L = gen::power_law(3000, 2.0, 256, 5.0, 11);
  Csr<double> permuted;
  const auto p = plan_recursive(L, small_opts(400, true), &permuted);

  EXPECT_TRUE(is_permutation_of_iota(p.new_of_old));
  EXPECT_TRUE(is_lower_triangular_nonsingular(permuted));
  // The permuted matrix is exactly P L P^T.
  EXPECT_TRUE(equals(permuted, permute_symmetric(L, p.new_of_old)));

  // §3.3's claim: the reordering moves nonzeros into the square parts.
  Csr<double> unordered;
  const auto p0 = plan_recursive(L, small_opts(400, false), &unordered);
  auto nnz_squares = [](const BlockPlan& plan, const Csr<double>& m) {
    offset_t total = 0;
    for (const auto& sq : plan.squares)
      total += count_block_nnz(m, sq.r0, sq.r1, sq.c0, sq.c1);
    return total;
  };
  EXPECT_GT(nnz_squares(p, permuted), nnz_squares(p0, unordered));
}

TEST(Plan, ReorderedLeavesAreLevelOrdered) {
  const auto L = gen::trace_network(1500, 11, 1.8, 0.45, 13);
  Csr<double> permuted;
  const auto p = plan_recursive(L, small_opts(150, true), &permuted);
  // Within each leaf, rows must be sorted by leaf-local level.
  for (index_t t = 0; t < p.num_tri_blocks(); ++t) {
    const index_t r0 = p.tri_bounds[static_cast<std::size_t>(t)];
    const index_t r1 = p.tri_bounds[static_cast<std::size_t>(t) + 1];
    const auto blk = extract_block(permuted, r0, r1, r0, r1);
    const auto ls = compute_level_sets(blk);
    for (index_t i = 1; i < blk.nrows; ++i)
      EXPECT_LE(ls.level_of[static_cast<std::size_t>(i - 1)],
                ls.level_of[static_cast<std::size_t>(i)])
          << "leaf " << t;
  }
}

TEST(Plan, HostCountersPopulatedOnlyWhenReordering) {
  const auto L = gen::grid2d(40, 40, 17);
  Csr<double> permuted;
  const auto with = plan_recursive(L, small_opts(200, true), &permuted);
  EXPECT_GT(with.host_ops, 0);
  EXPECT_GT(with.host_bytes, 0);
  const auto without = plan_recursive(L, small_opts(200, false), &permuted);
  EXPECT_EQ(without.host_ops, 0);
}

TEST(Plan, TinyMatrixSingleLeaf) {
  const auto L = gen::diagonal(3, 1);
  Csr<double> permuted;
  const auto p = plan_recursive(L, small_opts(512), &permuted);
  EXPECT_EQ(p.num_tri_blocks(), 1);
  EXPECT_TRUE(p.squares.empty());
  ASSERT_EQ(p.steps.size(), 1u);
}

// --- The per-depth algorithm as the oracle ----------------------------------
//
// plan_recursive level-orders each recursion depth with one sweep over the
// input's index arrays and permutes the matrix once. The paper's per-depth
// algorithm it replaced is kept here as the reference: at every depth each
// node's diagonal block is extracted from the re-permuted matrix and
// level-analysed, and the whole matrix is permuted again by the composed
// level orders. Both must agree on every plan field (host counters included)
// and on the stored matrix, bit for bit.

template <class T>
BlockPlan reference_plan_recursive(const Csr<T>& lower,
                                   const PlannerOptions& opt,
                                   Csr<T>* permuted) {
  BlockPlan plan;
  plan.scheme = BlockScheme::kRecursive;
  plan.n = lower.nrows;
  std::vector<std::vector<std::pair<index_t, index_t>>> nodes_by_depth;
  std::function<void(index_t, index_t, int)> build = [&](index_t r0,
                                                         index_t r1,
                                                         int depth) {
    plan.depth_used = std::max(plan.depth_used, depth);
    if (nodes_by_depth.size() <= static_cast<std::size_t>(depth))
      nodes_by_depth.resize(static_cast<std::size_t>(depth) + 1);
    nodes_by_depth[static_cast<std::size_t>(depth)].push_back({r0, r1});
    const index_t rows = r1 - r0;
    if (rows / 2 < opt.stop_rows || depth >= opt.max_depth) {
      plan.tri_bounds.push_back(r1);
      plan.steps.push_back({ExecStep::Kind::kTri,
                            static_cast<index_t>(plan.tri_bounds.size()) - 2});
      return;
    }
    const index_t mid = r0 + rows / 2;
    build(r0, mid, depth + 1);
    plan.squares.push_back({mid, r1, r0, mid});
    plan.steps.push_back({ExecStep::Kind::kSquare,
                          static_cast<index_t>(plan.squares.size()) - 1});
    build(mid, r1, depth + 1);
  };
  plan.tri_bounds.push_back(0);
  if (plan.n > 0) build(0, plan.n, 0);

  const auto elem = static_cast<std::int64_t>(sizeof(index_t) + sizeof(T));
  Csr<T> work = lower;
  plan.new_of_old.resize(static_cast<std::size_t>(plan.n));
  std::iota(plan.new_of_old.begin(), plan.new_of_old.end(), 0);
  if (!opt.reorder) nodes_by_depth.clear();
  for (const auto& nodes : nodes_by_depth) {
    std::vector<index_t> perm(static_cast<std::size_t>(plan.n));
    std::iota(perm.begin(), perm.end(), 0);
    bool any = false;
    for (const auto& [r0, r1] : nodes) {
      const Csr<T> sub = extract_block(work, r0, r1, r0, r1);
      const LevelSets ls = compute_level_sets(sub);
      plan.host_ops += sub.nnz() + (r1 - r0);
      plan.host_bytes += sub.nnz() * elem;
      if (ls.nlevels <= 1) continue;
      const std::vector<index_t> local = level_order_permutation(ls);
      for (index_t i = r0; i < r1; ++i)
        perm[static_cast<std::size_t>(i)] =
            r0 + local[static_cast<std::size_t>(i - r0)];
      any = true;
    }
    if (!any) continue;
    work = permute_symmetric(work, perm);
    for (auto& cur : plan.new_of_old) cur = perm[static_cast<std::size_t>(cur)];
    plan.host_ops += 2 * work.nnz() + plan.n;
    plan.host_bytes += 2 * work.nnz() * elem;
  }
  *permuted = std::move(work);
  return plan;
}

template <class T>
::testing::AssertionResult SameCsr(const Csr<T>& got, const Csr<T>& want) {
  if (got.nrows != want.nrows || got.ncols != want.ncols)
    return ::testing::AssertionFailure() << "shape differs";
  if (got.row_ptr != want.row_ptr)
    return ::testing::AssertionFailure() << "row_ptr differs";
  if (got.col_idx != want.col_idx)
    return ::testing::AssertionFailure() << "col_idx differs";
  if (got.val.size() != want.val.size() ||
      !std::equal(got.val.begin(), got.val.end(), want.val.begin(),
                  [](T a, T b) {
                    return std::memcmp(&a, &b, sizeof(T)) == 0;
                  }))
    return ::testing::AssertionFailure() << "val differs bitwise";
  return ::testing::AssertionSuccess();
}

/// Every option combination the oracle sweep covers for one matrix:
/// stop_rows ∈ {1, n/64, n, 2n}, max_depth ∈ {0, 2, default}, reorder on and
/// off, and no pool plus pools of 1, 2 and 4 threads.
template <class T>
void expect_planner_matches_reference(const Csr<double>& ld) {
  const Csr<T> L = gen::convert_values<T>(ld);
  const index_t n = L.nrows;
  const PlannerOptions defaults;
  ThreadPool pool1(1), pool2(2), pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool4};
  for (const index_t stop :
       {index_t{1}, std::max<index_t>(1, n / 64), std::max<index_t>(1, n),
        std::max<index_t>(1, 2 * n)})
    for (const int depth : {0, 2, defaults.max_depth})
      for (const bool reorder : {true, false}) {
        PlannerOptions opt;
        opt.stop_rows = stop;
        opt.max_depth = depth;
        opt.reorder = reorder;
        Csr<T> want_stored;
        const BlockPlan want = reference_plan_recursive(L, opt, &want_stored);
        for (ThreadPool* pool : pools) {
          SCOPED_TRACE(::testing::Message()
                       << "stop_rows=" << stop << " max_depth=" << depth
                       << " reorder=" << reorder << " threads="
                       << (pool == nullptr ? 0 : pool->size()));
          Csr<T> got_stored;
          const BlockPlan got = plan_recursive(L, opt, &got_stored, pool);
          EXPECT_TRUE(equals(got, want));
          EXPECT_TRUE(SameCsr(got_stored, want_stored));
        }
      }
}

// --- The build the walk replaced, as its oracle ------------------------------
//
// BlockSolver fills every block from the caller's rows in one walk. The cold
// build it replaced is kept here as the reference: the planner's permuted
// matrix (the input itself for the column and row schemes), every block
// extracted from it, and the features, kernel and level analysis derived per
// block. Both must agree on every block array, kind and level count. The
// residual check reads the blocks; it must equal, bitwise, the residual the
// solver computed while it retained the permuted matrix (below), and ‖L‖∞
// the permuted matrix's.

/// ‖L‖∞ of `a`, each row summed in stored order.
template <class T>
double reference_norm_inf(const Csr<T>& a) {
  double norm = 0.0;
  for (index_t i = 0; i < a.nrows; ++i) {
    double row = 0.0;
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      row += std::fabs(static_cast<double>(a.val[static_cast<std::size_t>(k)]));
    norm = std::max(norm, row);
  }
  return norm;
}

/// The normwise residual ‖b − Lx‖∞ / (‖L‖∞‖x‖∞ + ‖b‖∞) over the permuted
/// matrix `stored`: one sequential double accumulation per stored row, cast
/// to T, in the permuted space of `new_of_old`.
template <class T>
double reference_residual(const Csr<T>& stored,
                          const std::vector<index_t>& new_of_old,
                          const std::vector<T>& x, const std::vector<T>& b) {
  const std::size_t n = new_of_old.size();
  std::vector<T> xw(n), bw(n);
  for (std::size_t i = 0; i < n; ++i) {
    xw[static_cast<std::size_t>(new_of_old[i])] = x[i];
    bw[static_cast<std::size_t>(new_of_old[i])] = b[i];
  }
  double rmax = 0.0, xmax = 0.0, bmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (offset_t k = stored.row_ptr[i]; k < stored.row_ptr[i + 1]; ++k)
      acc += static_cast<double>(stored.val[static_cast<std::size_t>(k)]) *
             static_cast<double>(xw[static_cast<std::size_t>(
                 stored.col_idx[static_cast<std::size_t>(k)])]);
    const T r = static_cast<T>(static_cast<double>(bw[i]) - acc);
    rmax = std::max(rmax, std::fabs(static_cast<double>(r)));
    xmax = std::max(xmax, std::fabs(static_cast<double>(xw[i])));
    bmax = std::max(bmax, std::fabs(static_cast<double>(bw[i])));
  }
  const double denom = reference_norm_inf(stored) * xmax + bmax;
  if (denom == 0.0) return rmax == 0.0 ? 0.0 : rmax;
  return rmax / denom;
}

template <class T>
void expect_walk_matches_reference_build(
    const Csr<T>& L, const typename BlockSolver<T>::Options& opt) {
  const BlockSolver<T> solver(L, opt);
  const PlanArtifact<T> art = solver.capture_artifact();
  Csr<T> stored = L;
  BlockPlan plan;
  switch (opt.scheme) {
    case BlockScheme::kColumn:
      plan = plan_column(L.nrows, opt.planner.nseg);
      break;
    case BlockScheme::kRow:
      plan = plan_row(L.nrows, opt.planner.nseg);
      break;
    case BlockScheme::kRecursive:
      plan = plan_recursive(L, opt.planner, &stored);
      break;
    case BlockScheme::kHbmc:
      plan = order::plan_hbmc(
          L, opt.planner, static_cast<index_t>(solver.level_merge_width()),
          &stored);
      break;
  }
  ASSERT_TRUE(equals(plan, art.plan));
  EXPECT_EQ(art.norm_inf, reference_norm_inf(stored));
  {
    const std::vector<T> b = gen::random_rhs<T>(L.nrows, 11);
    const SolveResult<T> res = solver.solve_checked(b);
    ASSERT_TRUE(res.report.residual_checked) << res.status.to_string();
    EXPECT_EQ(res.report.residual,
              reference_residual(stored, plan.new_of_old, res.x, b));
  }

  ASSERT_EQ(art.tri.size(), static_cast<std::size_t>(plan.num_tri_blocks()));
  for (index_t t = 0; t < plan.num_tri_blocks(); ++t) {
    SCOPED_TRACE(::testing::Message() << "triangle " << t);
    const TriBlockArtifact<T>& got = art.tri[static_cast<std::size_t>(t)];
    const index_t r0 = plan.tri_bounds[static_cast<std::size_t>(t)];
    const index_t r1 = plan.tri_bounds[static_cast<std::size_t>(t) + 1];
    const Csr<T> blk = extract_block(stored, r0, r1, r0, r1);
    const TriangularFeatures feat = compute_triangular_features(blk);
    TriKernelKind kind = opt.adaptive
                             ? select_tri_kernel(feat, opt.thresholds)
                             : opt.forced_tri;
    if (kind == TriKernelKind::kCompletelyParallel && feat.nlevels > 1)
      kind = TriKernelKind::kSyncFree;
    ASSERT_EQ(got.kind, kind);
    EXPECT_EQ(got.nlevels, feat.nlevels);
    EXPECT_EQ(got.nnz, blk.nnz());
    if (kind == TriKernelKind::kCompletelyParallel) {
      EXPECT_EQ(got.diag, split_diagonal(blk).diag);
      continue;
    }
    EXPECT_TRUE(SameCsr(got.kernel_csr, blk));
    if (kind == TriKernelKind::kSyncFree) continue;
    const LevelSets ls = compute_level_sets(blk);
    EXPECT_EQ(got.levels.nlevels, ls.nlevels);
    EXPECT_EQ(got.levels.level_of, ls.level_of);
    EXPECT_EQ(got.levels.level_ptr, ls.level_ptr);
    EXPECT_EQ(got.levels.level_item, ls.level_item);
  }

  ASSERT_EQ(art.squares.size(), plan.squares.size());
  for (std::size_t q = 0; q < plan.squares.size(); ++q) {
    SCOPED_TRACE(::testing::Message() << "square " << q);
    const SquareBlockArtifact<T>& got = art.squares[q];
    const SquareBlockRef& ref = plan.squares[q];
    const Csr<T> blk = extract_block(stored, ref.r0, ref.r1, ref.c0, ref.c1);
    EXPECT_EQ(got.nnz, blk.nnz());
    SpmvKernelKind kind = SpmvKernelKind::kScalarCsr;
    double empty_ratio = ref.r1 > ref.r0 ? 1.0 : 0.0;
    if (blk.nnz() > 0) {
      const MatrixFeatures feat = compute_features(blk);
      kind = opt.adaptive ? select_square_kernel(feat, opt.thresholds)
                          : opt.forced_square;
      empty_ratio = feat.empty_ratio;
    }
    EXPECT_EQ(got.kind, kind);
    EXPECT_EQ(got.empty_ratio, empty_ratio);
    // Every kind lists the block's non-empty rows, each the reference row
    // entry for entry; a held row is looked up by its id.
    const Dcsr<T>& held = got.rows;
    EXPECT_EQ(held.nrows, blk.nrows);
    EXPECT_EQ(held.ncols, blk.ncols);
    ASSERT_TRUE(testing::SquareRowsByWindowAndLength(got));
    constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> listed(static_cast<std::size_t>(blk.nrows),
                                    kNone);
    for (std::size_t p = 0; p < held.row_ids.size(); ++p)
      listed[static_cast<std::size_t>(held.row_ids[p])] = p;
    for (index_t i = 0; i < blk.nrows; ++i) {
      const auto lo = static_cast<std::size_t>(blk.row_ptr[i]);
      const auto hi = static_cast<std::size_t>(blk.row_ptr[i + 1]);
      const std::size_t p = listed[static_cast<std::size_t>(i)];
      if (lo == hi) {
        EXPECT_EQ(p, kNone) << "empty row " << i << " is listed";
        continue;
      }
      ASSERT_NE(p, kNone) << "row " << i << " is not listed";
      const auto hlo = static_cast<std::size_t>(held.row_ptr[p]);
      ASSERT_EQ(static_cast<std::size_t>(held.row_ptr[p + 1]) - hlo, hi - lo)
          << "row " << i;
      for (std::size_t e = 0; e < hi - lo; ++e) {
        EXPECT_EQ(held.col_idx[hlo + e], blk.col_idx[lo + e]) << "row " << i;
        EXPECT_EQ(held.val[hlo + e], blk.val[lo + e]) << "row " << i;
      }
    }
  }
}

/// Adaptive selection and every forced square kind under every scheme: each
/// square holds its rows by window and length (SquareRowsByWindowAndLength).
template <class T>
void expect_squares_by_window_and_length(const Csr<double>& ld) {
  const Csr<T> L = gen::convert_values<T>(ld);
  for (const BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (int variant = 0; variant <= 4; ++variant) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(scheme) << " variant " << variant);
      typename BlockSolver<T>::Options opt;
      opt.scheme = scheme;
      opt.planner.stop_rows = std::max<index_t>(1, L.nrows / 32);
      opt.adaptive = variant == 0;
      if (variant > 0)
        opt.forced_square = static_cast<SpmvKernelKind>(variant - 1);
      const BlockSolver<T> solver(L, opt);
      const PlanArtifact<T> art = solver.capture_artifact();
      for (std::size_t q = 0; q < art.squares.size(); ++q)
        EXPECT_TRUE(testing::SquareRowsByWindowAndLength(art.squares[q]))
            << "square " << q;
    }
}

/// Adaptive selection, and two forced pairs that hold level analyses and
/// DCSR squares, under every scheme.
template <class T>
void expect_walk_matches_reference_builds(const Csr<double>& ld) {
  const Csr<T> L = gen::convert_values<T>(ld);
  for (const BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (int variant = 0; variant < 3; ++variant) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(scheme) << " variant " << variant);
      typename BlockSolver<T>::Options opt;
      opt.scheme = scheme;
      opt.planner.stop_rows = std::max<index_t>(1, L.nrows / 32);
      opt.adaptive = variant == 0;
      opt.forced_tri = variant == 1 ? TriKernelKind::kLevelSet
                                    : TriKernelKind::kCusparseLike;
      opt.forced_square = variant == 1 ? SpmvKernelKind::kVectorDcsr
                                       : SpmvKernelKind::kScalarDcsr;
      expect_walk_matches_reference_build(L, opt);
    }
}

struct OracleMatrix {
  std::string name;
  std::function<Csr<double>()> build;
};

// One matrix per src/gen family, sized so n/64 still leaves a few depths.
std::vector<OracleMatrix> oracle_matrices() {
  using namespace gen;
  return {
      {"diagonal", [] { return diagonal(700, 1); }},
      {"tridiag_chain", [] { return tridiag_chain(600, 2); }},
      {"banded", [] { return banded(2000, 16, 3.0, 3); }},
      {"grid2d", [] { return grid2d(40, 30, 4); }},
      {"grid3d", [] { return grid3d(12, 10, 9, 5); }},
      {"laplace3d", [] { return laplace3d(11, 10, 12, 6); }},
      {"power_law", [] { return power_law(1500, 2.1, 256, 6.0, 7); }},
      {"random_levels", [] { return random_levels(2000, 30, 3.0, 1.0, 8); }},
      {"two_level_kkt", [] { return two_level_kkt(1200, 600, 5.0, 9); }},
      {"kkt_structure", [] { return kkt_structure(1600, 12, 3.0, 10); }},
      {"trace_network", [] { return trace_network(1800, 9, 1.8, 0.45, 11); }},
      {"power_law_levels",
       [] {
         return power_law_levels(1500, 40, 0.9, 2.0, 64, 4.0, 1.5, 2, 0.05,
                                 2, 0.02, 12);
       }},
      {"chain_banded", [] { return chain_banded(800, 8, 2.0, 13); }},
      {"dense_lower", [] { return dense_lower(150, 0.3, 14); }},
      {"random_topological_shuffle",
       [] {
         return random_topological_shuffle(random_levels(1500, 20, 3.0, 1.0,
                                                         15),
                                           16);
       }},
  };
}

void PrintTo(const OracleMatrix& m, std::ostream* os) { *os << m.name; }

class PlannerOracle : public ::testing::TestWithParam<OracleMatrix> {};

TEST_P(PlannerOracle, MatchesPerDepthReferenceDouble) {
  expect_planner_matches_reference<double>(GetParam().build());
}

TEST_P(PlannerOracle, MatchesPerDepthReferenceFloat) {
  expect_planner_matches_reference<float>(GetParam().build());
}

TEST_P(PlannerOracle, WalkMatchesReferenceBuild) {
  expect_walk_matches_reference_builds<double>(GetParam().build());
  expect_walk_matches_reference_builds<float>(GetParam().build());
}

TEST_P(PlannerOracle, SquaresHoldRowsByWindowAndLength) {
  expect_squares_by_window_and_length<double>(GetParam().build());
}

INSTANTIATE_TEST_SUITE_P(
    GenFamilies, PlannerOracle, ::testing::ValuesIn(oracle_matrices()),
    [](const ::testing::TestParamInfo<OracleMatrix>& info) {
      return info.param.name;
    });

TEST(PlannerOracleSmallN, MatchesPerDepthReference) {
  for (const index_t n : {0, 1, 2, 3}) {
    SCOPED_TRACE(n);
    const Csr<double> dense = gen::dense_lower(n, 1.0, 21);
    expect_planner_matches_reference<double>(dense);
    expect_planner_matches_reference<float>(dense);
    expect_planner_matches_reference<double>(gen::diagonal(n, 22));
  }
}

TEST(Plan, RecursiveRejectsEntryAboveDiagonalLikeReference) {
  // An upper entry (row 0, column 1) is caught by the root depth's level
  // analysis in both planners.
  Csr<double> a;
  a.nrows = a.ncols = 2;
  a.row_ptr = {0, 2, 3};
  a.col_idx = {0, 1, 1};
  a.val = {1.0, 2.0, 3.0};
  Csr<double> stored;
  EXPECT_THROW(reference_plan_recursive(a, small_opts(1), &stored), Error);
  EXPECT_THROW(plan_recursive(a, small_opts(1), &stored), Error);
}

TEST(Plan, RecursiveCountsOneLevelAnalysisPerDepth) {
  const auto L = gen::banded(4096, 8, 2.0, 7);
  PlannerOptions opt = small_opts(256);
  Csr<double> stored;
  const std::uint64_t before = level_analysis_count();
  const BlockPlan p = plan_recursive(L, opt, &stored);
  EXPECT_EQ(level_analysis_count() - before,
            static_cast<std::uint64_t>(p.depth_used) + 1);
  const std::uint64_t unordered = level_analysis_count();
  (void)plan_recursive(L, small_opts(256, false), &stored);
  EXPECT_EQ(level_analysis_count(), unordered);

  // A cold create adds one analysis for its build walk, however many leaves
  // the plan has: the planner's depths + 1 under the recursive scheme, the
  // quotient leveling + 1 under HBMC, 1 under the column and row schemes.
  const auto analyses = [&](BlockScheme scheme, bool reorder,
                            index_t* leaves) {
    BlockSolver<double>::Options o;
    o.scheme = scheme;
    o.planner = small_opts(32, reorder);
    o.planner.nseg = 16;
    o.planner.hbmc_block_rows = 2;
    const std::uint64_t at = level_analysis_count();
    const BlockSolver<double> solver(L, o);
    *leaves = solver.plan().num_tri_blocks();
    return level_analysis_count() - at;
  };
  index_t leaves = 0;
  EXPECT_EQ(analyses(BlockScheme::kRecursive, true, &leaves),
            static_cast<std::uint64_t>(plan_recursive(L, small_opts(32),
                                                      &stored)
                                           .depth_used) +
                2);
  EXPECT_EQ(leaves, 128);
  EXPECT_EQ(analyses(BlockScheme::kRecursive, false, &leaves), 1u);
  EXPECT_EQ(analyses(BlockScheme::kHbmc, true, &leaves), 2u);
  EXPECT_GE(leaves, 16);
  EXPECT_EQ(analyses(BlockScheme::kColumn, true, &leaves), 1u);
  EXPECT_EQ(leaves, 16);
  EXPECT_EQ(analyses(BlockScheme::kRow, true, &leaves), 1u);
}

// Regression: nseg > n used to replicate boundary values, planning empty
// triangular segments and zero-area squares. Both planners now clamp nseg to
// max(1, min(nseg, n)).
class PlanNsegClamp : public ::testing::TestWithParam<index_t> {};

TEST_P(PlanNsegClamp, ColumnSchemeSegmentsNeverEmpty) {
  const index_t n = GetParam();
  const auto p = plan_column(n, 4);
  const auto expected_segs = std::max<index_t>(1, std::min<index_t>(4, n));
  EXPECT_EQ(p.num_tri_blocks(), expected_segs);
  ASSERT_EQ(p.tri_bounds.size(), static_cast<std::size_t>(expected_segs) + 1);
  for (std::size_t s = 0; s + 1 < p.tri_bounds.size(); ++s) {
    if (n > 0) EXPECT_LT(p.tri_bounds[s], p.tri_bounds[s + 1]);
  }
  for (const auto& sq : p.squares) {
    EXPECT_LT(sq.r0, sq.r1);
    EXPECT_LT(sq.c0, sq.c1);
  }
}

TEST_P(PlanNsegClamp, RowSchemeSegmentsNeverEmpty) {
  const index_t n = GetParam();
  const auto p = plan_row(n, 4);
  const auto expected_segs = std::max<index_t>(1, std::min<index_t>(4, n));
  EXPECT_EQ(p.num_tri_blocks(), expected_segs);
  ASSERT_EQ(p.tri_bounds.size(), static_cast<std::size_t>(expected_segs) + 1);
  for (std::size_t s = 0; s + 1 < p.tri_bounds.size(); ++s) {
    if (n > 0) EXPECT_LT(p.tri_bounds[s], p.tri_bounds[s + 1]);
  }
  for (const auto& sq : p.squares) {
    EXPECT_LT(sq.r0, sq.r1);
    EXPECT_LT(sq.c0, sq.c1);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallN, PlanNsegClamp,
                         ::testing::Values<index_t>(0, 1, 3),
                         [](const ::testing::TestParamInfo<index_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(Plan, SchemeNames) {
  EXPECT_EQ(to_string(BlockScheme::kColumn), "column-block");
  EXPECT_EQ(to_string(BlockScheme::kRow), "row-block");
  EXPECT_EQ(to_string(BlockScheme::kRecursive), "recursive-block");
  EXPECT_EQ(to_string(BlockScheme::kHbmc), "hbmc-block");
}

}  // namespace
}  // namespace blocktri
