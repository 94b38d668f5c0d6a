#include "order/hbmc.hpp"

#include <algorithm>
#include <utility>

#include "analysis/levels.hpp"
#include "common/status.hpp"
#include "sparse/permute.hpp"

namespace blocktri::order {

namespace {

/// One greedy aggregation pass at width W, visiting rows in ascending
/// (topological) order. Each row joins the block of its deepest parent when
/// that parent's color is unique among its parents and the block has room;
/// otherwise it opens (or extends) the filling block of the next color.
///
/// Invariant maintained — and relied on by the plan layout: every parent of
/// a row outside the row's own block sits in a strictly smaller color, so
/// the blocks of one color are mutually independent and all cross-block
/// coupling of color c lands in columns of colors < c.
///
/// The color count only grows during a pass, so a pass with W < n stops as
/// soon as it exceeds `cap`: the doubling loop rejects it whatever the rest
/// of its rows would do. Such an aborted pass reports ncolors = cap + 1 and
/// leaves its blocks incomplete.
struct Aggregation {
  index_t nblocks = 0;
  index_t ncolors = 0;
  std::vector<index_t> block_of;        // size n
  std::vector<index_t> color_of_block;  // size nblocks
};

Aggregation aggregate(index_t n, const std::vector<offset_t>& row_ptr,
                      const std::vector<index_t>& col_idx, index_t W,
                      index_t cap) {
  Aggregation agg;
  agg.block_of.assign(static_cast<std::size_t>(n), 0);
  std::vector<index_t>& colors = agg.color_of_block;
  std::vector<index_t> block_count;  // rows per block so far
  std::vector<index_t> open_block;   // per color: the block still filling

  for (index_t i = 0; i < n; ++i) {
    index_t cmax = -1;   // deepest parent color
    index_t top = -1;    // the block holding it
    bool multi = false;  // two distinct parent blocks at cmax
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      BLOCKTRI_CHECK_MSG(j <= i,
                         "hbmc_partition: matrix is not lower triangular");
      if (j == i) continue;  // diagonal is not a dependency
      const index_t b = agg.block_of[static_cast<std::size_t>(j)];
      const index_t c = colors[static_cast<std::size_t>(b)];
      if (c > cmax) {
        cmax = c;
        top = b;
        multi = false;
      } else if (c == cmax && b != top) {
        multi = true;
      }
    }
    if (cmax >= 0 && !multi &&
        block_count[static_cast<std::size_t>(top)] < W) {
      // Chain collapse: ride the deepest parent's block, keeping its color.
      agg.block_of[static_cast<std::size_t>(i)] = top;
      ++block_count[static_cast<std::size_t>(top)];
      continue;
    }
    const index_t c = cmax + 1;
    if (static_cast<std::size_t>(c) >= open_block.size()) {
      if (c >= cap && W < n) {  // a color past the cap: the pass is rejected
        agg.ncolors = c + 1;
        return agg;
      }
      open_block.resize(static_cast<std::size_t>(c) + 1, -1);
    }
    index_t b = open_block[static_cast<std::size_t>(c)];
    if (b < 0 || block_count[static_cast<std::size_t>(b)] >= W) {
      b = static_cast<index_t>(colors.size());
      colors.push_back(c);
      block_count.push_back(0);
      open_block[static_cast<std::size_t>(c)] = b;
    }
    agg.block_of[static_cast<std::size_t>(i)] = b;
    ++block_count[static_cast<std::size_t>(b)];
  }
  agg.nblocks = static_cast<index_t>(colors.size());
  agg.ncolors = static_cast<index_t>(open_block.size());
  return agg;
}

}  // namespace

HbmcPartition hbmc_partition(index_t n, const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx,
                             index_t block_rows, index_t max_colors,
                             index_t merge_width) {
  BLOCKTRI_CHECK(row_ptr.size() == static_cast<std::size_t>(n) + 1);
  HbmcPartition part;
  part.n = n;
  if (n == 0) {
    // One empty block / color, matching the other planners' degenerate
    // single-segment shape.
    part.block_rows = std::max<index_t>(1, block_rows);
    part.ncolors = 1;
    part.color_bounds = {0, 0};
    part.block_bounds = {0, 0};
    part.passes = 0;
    return part;
  }

  index_t W = std::max<index_t>(1, block_rows);
  const index_t cap = std::max<index_t>(1, max_colors);
  Aggregation agg;
  for (;;) {
    agg = aggregate(n, row_ptr, col_idx, W, cap);
    ++part.passes;  // an aborted pass counts too
    // Doubling W folds deeper chains into bigger blocks; W == n cannot be
    // beaten, so irreducible patterns degrade to honest extra colors.
    if (agg.ncolors <= cap || W >= n) break;
    W *= 2;
  }
  part.block_rows = W;

  // Quotient node order: blocks by (color, creation id). Cross-block edges
  // always go from a strictly smaller color (the aggregation invariant), so
  // the quotient is strictly lower triangular in this order.
  const auto nb = static_cast<std::size_t>(agg.nblocks);
  std::vector<index_t> qb_of_block(nb);
  {
    std::vector<index_t> cursor(static_cast<std::size_t>(agg.ncolors) + 1, 0);
    for (std::size_t b = 0; b < nb; ++b)
      ++cursor[static_cast<std::size_t>(agg.color_of_block[b]) + 1];
    for (std::size_t c = 1; c < cursor.size(); ++c) cursor[c] += cursor[c - 1];
    for (std::size_t b = 0; b < nb; ++b)
      qb_of_block[b] =
          cursor[static_cast<std::size_t>(agg.color_of_block[b])]++;
  }
  std::vector<index_t> block_of_qb(nb);
  for (std::size_t b = 0; b < nb; ++b)
    block_of_qb[static_cast<std::size_t>(qb_of_block[b])] =
        static_cast<index_t>(b);

  // Deduplicated quotient edges (child qb, parent qb).
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t i = 0; i < n; ++i) {
    const index_t bi = agg.block_of[static_cast<std::size_t>(i)];
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      if (j == i) continue;
      const index_t bj = agg.block_of[static_cast<std::size_t>(j)];
      if (bj != bi)
        edges.emplace_back(qb_of_block[static_cast<std::size_t>(bi)],
                           qb_of_block[static_cast<std::size_t>(bj)]);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<offset_t> q_ptr(nb + 1, 0);
  std::vector<index_t> q_col(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    ++q_ptr[static_cast<std::size_t>(edges[e].first) + 1];
    q_col[e] = edges[e].second;
  }
  for (std::size_t b = 0; b < nb; ++b) q_ptr[b + 1] += q_ptr[b];
  part.quotient_nodes = agg.nblocks;
  part.quotient_edges = static_cast<offset_t>(edges.size());

  // Quotient levels reproduce the aggregation colors exactly when
  // merge_width == 0; with merging on, adjacent straggly colors fuse.
  // merge_width is in ORIGINAL MATRIX ROWS (it is the solver's level-merge
  // width), but a quotient "row" is a whole block of up to W rows —
  // convert, so fusion only ever targets colors thinner than the merge
  // budget instead of serialising every W-row block it can reach.
  const index_t qmerge = merge_width / W;
  const LevelSets qls = compute_level_sets(agg.nblocks, q_ptr, q_col, nullptr,
                                           qmerge);
  part.ncolors = qls.nlevels;

  // Member rows per block, ascending original index (the scatter below
  // visits rows in ascending order, so each bucket stays sorted).
  std::vector<offset_t> bptr(nb + 1, 0);
  for (index_t i = 0; i < n; ++i)
    ++bptr[static_cast<std::size_t>(agg.block_of[static_cast<std::size_t>(i)]) +
           1];
  for (std::size_t b = 0; b < nb; ++b) bptr[b + 1] += bptr[b];
  std::vector<index_t> members(static_cast<std::size_t>(n));
  {
    std::vector<offset_t> cur(bptr.begin(), bptr.end() - 1);
    for (index_t i = 0; i < n; ++i) {
      const auto b = static_cast<std::size_t>(
          agg.block_of[static_cast<std::size_t>(i)]);
      members[static_cast<std::size_t>(cur[b]++)] = i;
    }
  }

  // Assemble: colors outer, blocks inner, rows ascending inside a block.
  // A fused color (blocks from more than one aggregation color, so it HAS
  // internal cross-block dependencies) collapses into one serial block;
  // ascending original index keeps it topological.
  std::vector<index_t> old_of_new;
  old_of_new.reserve(static_cast<std::size_t>(n));
  part.block_bounds.push_back(0);
  part.color_bounds.push_back(0);
  for (index_t l = 0; l < qls.nlevels; ++l) {
    const auto lo = static_cast<std::size_t>(qls.level_ptr[l]);
    const auto hi = static_cast<std::size_t>(qls.level_ptr[l + 1]);
    bool fused = false;
    for (std::size_t q = lo; !fused && q < hi; ++q)
      fused = agg.color_of_block[static_cast<std::size_t>(
                  block_of_qb[static_cast<std::size_t>(qls.level_item[q])])] !=
              agg.color_of_block[static_cast<std::size_t>(
                  block_of_qb[static_cast<std::size_t>(qls.level_item[lo])])];
    const std::size_t level_row0 = old_of_new.size();
    for (std::size_t q = lo; q < hi; ++q) {
      const auto b = static_cast<std::size_t>(
          block_of_qb[static_cast<std::size_t>(qls.level_item[q])]);
      old_of_new.insert(old_of_new.end(),
                        members.begin() + bptr[b], members.begin() + bptr[b + 1]);
      if (!fused)
        part.block_bounds.push_back(static_cast<index_t>(old_of_new.size()));
    }
    if (fused) {
      std::sort(old_of_new.begin() + static_cast<std::ptrdiff_t>(level_row0),
                old_of_new.end());
      part.block_bounds.push_back(static_cast<index_t>(old_of_new.size()));
    }
    part.color_bounds.push_back(static_cast<index_t>(old_of_new.size()));
  }

  part.new_of_old.resize(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p)
    part.new_of_old[static_cast<std::size_t>(
        old_of_new[static_cast<std::size_t>(p)])] = p;
  return part;
}

template <class T>
BlockPlan plan_hbmc(const Csr<T>& lower, const PlannerOptions& opt,
                    index_t merge_width, Csr<T>* permuted,
                    ThreadPool* /*pool*/) {  // a serial recurrence
  BLOCKTRI_CHECK(lower.nrows == lower.ncols);
  HbmcPartition part = hbmc_partition(lower.nrows, lower.row_ptr,
                                      lower.col_idx, opt.hbmc_block_rows,
                                      opt.hbmc_max_colors, merge_width);
  BlockPlan p;
  p.scheme = BlockScheme::kHbmc;
  p.n = lower.nrows;
  if (part.new_of_old.empty()) {
    p.new_of_old.resize(static_cast<std::size_t>(p.n));
    for (index_t i = 0; i < p.n; ++i)
      p.new_of_old[static_cast<std::size_t>(i)] = i;
  } else {
    p.new_of_old = std::move(part.new_of_old);
  }
  p.tri_bounds = part.block_bounds;
  p.color_bounds = part.color_bounds;
  p.hbmc_block_rows = part.block_rows;

  // Color-stepped layout: per color one square over ALL previously solved
  // columns (the inter-color update), then the color's block-diagonal
  // triangles. compute_step_waves groups each color's triangles into a
  // single wave: exactly 2·ncolors − 1 barriers, executor unchanged.
  index_t t = 0;
  const auto nblocks = p.num_tri_blocks();
  for (index_t c = 0; c < part.ncolors; ++c) {
    const index_t c0 = p.color_bounds[static_cast<std::size_t>(c)];
    const index_t c1 = p.color_bounds[static_cast<std::size_t>(c) + 1];
    if (c > 0) {
      p.squares.push_back({c0, c1, 0, c0});
      p.steps.push_back({ExecStep::Kind::kSquare,
                         static_cast<index_t>(p.squares.size()) - 1});
    }
    while (t < nblocks && p.tri_bounds[static_cast<std::size_t>(t) + 1] <= c1) {
      p.steps.push_back({ExecStep::Kind::kTri, t});
      ++t;
    }
  }
  BLOCKTRI_CHECK(t == nblocks);

  // Host-model preprocessing: one pattern visit per aggregation pass, the
  // quotient level analysis, and the final whole-matrix permutation (same
  // accounting as the recursive planner's reorder passes).
  const std::int64_t nnz = lower.nnz();
  p.host_ops = part.passes * (nnz + p.n) +
               (part.quotient_edges + part.quotient_nodes) +
               (p.n > 0 ? 2 * nnz + p.n : 0);
  p.host_bytes = (part.passes * nnz + 2 * nnz) *
                 static_cast<std::int64_t>(sizeof(index_t) + sizeof(T));

  if (permuted == nullptr) return p;
  Csr<T> work = permute_symmetric(lower, p.new_of_old);

  // The layout drops nothing only because of the aggregation invariant:
  // every nonzero of a row must be in a prior color (covered by the square)
  // or at/after the row's own block start (covered by the triangle). A
  // caller that builds the blocks itself checks that while it fills them.
  {
    index_t blk = 0, col = 0;
    for (index_t r = 0; r < p.n; ++r) {
      while (p.tri_bounds[static_cast<std::size_t>(blk) + 1] <= r) ++blk;
      while (p.color_bounds[static_cast<std::size_t>(col) + 1] <= r) ++col;
      const index_t color_begin = p.color_bounds[static_cast<std::size_t>(col)];
      const index_t block_begin = p.tri_bounds[static_cast<std::size_t>(blk)];
      for (offset_t k = work.row_ptr[static_cast<std::size_t>(r)];
           k < work.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const index_t q = work.col_idx[static_cast<std::size_t>(k)];
        BLOCKTRI_CHECK_MSG(q <= r && (q < color_begin || q >= block_begin),
                           "hbmc plan would drop a nonzero: aggregation "
                           "invariant violated");
      }
    }
  }
  *permuted = std::move(work);
  return p;
}

template BlockPlan plan_hbmc(const Csr<float>&, const PlannerOptions&,
                             index_t, Csr<float>*, ThreadPool*);
template BlockPlan plan_hbmc(const Csr<double>&, const PlannerOptions&,
                             index_t, Csr<double>*, ThreadPool*);

}  // namespace blocktri::order
