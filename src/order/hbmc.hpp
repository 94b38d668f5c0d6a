// Hierarchical block multi-color ordering (HBMC) — a parallelism-CREATING
// reordering in the spirit of Iwashita, Li & Fukaya (arXiv:1908.00741),
// adapted to exact triangular solves (DESIGN.md §16).
//
// The paper's three schemes only expose the parallelism the sparsity pattern
// already has: a dependency chain of depth d needs d synchronisation steps no
// matter how the rows are blocked. HBMC manufactures parallelism instead:
//
//   1. Rows are greedily aggregated into BLOCKS of at most W rows, each row
//      preferring the block of its deepest parent — dependency chains
//      collapse into single blocks that one task solves serially (no
//      cross-task spin for an in-cache substitution run).
//   2. Blocks are COLORED by their quotient-graph level. The aggregation
//      maintains the invariant that blocks sharing a color are mutually
//      independent, so all triangles of one color run embarrassingly
//      parallel, and all cross-color coupling is an ordinary SpMV square.
//   3. If the color count exceeds the bound, W doubles and the aggregation
//      reruns: deeper chains fold into bigger blocks until the solve fits a
//      FIXED number of sync steps (2·colors − 1 waves).
//
// Unlike classic point multi-coloring, the permutation is topological: the
// reordered system is the SAME system (summation order changes, values do
// not), so residual checks and iterative refinement hold unchanged.
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "sparse/formats.hpp"

namespace blocktri::order {

/// The two-level hierarchical partition: colors outer, blocks inner, rows
/// within a block in ascending original index (topological for triangular
/// input). All bounds are in permuted row space; every color boundary is
/// also a block boundary.
struct HbmcPartition {
  index_t n = 0;
  index_t block_rows = 0;  // effective W after the doubling loop
  index_t ncolors = 0;
  std::vector<index_t> new_of_old;    // symmetric permutation
  std::vector<index_t> color_bounds;  // ncolors + 1
  std::vector<index_t> block_bounds;  // nblocks + 1 (superset of colors)
  // Aggregation passes run (W doublings + 1); quotient nodes/edges of the
  // accepted pass — the bench reports these as preprocessing detail.
  int passes = 0;
  index_t quotient_nodes = 0;
  offset_t quotient_edges = 0;
};

/// Greedy block multi-coloring of a lower-triangular pattern. `block_rows`
/// is the initial aggregation width W (≥ 1); W doubles until the color count
/// is at most `max_colors` or W reaches n, so pathological patterns
/// degrade to honest extra colors rather than looping. `merge_width > 0`
/// additionally fuses adjacent tiny colors into single serial blocks via the
/// Böhnlein-style grouping fix in compute_level_sets — fewer, fatter sync
/// steps on straggly tails. The width is in ORIGINAL MATRIX ROWS (the
/// solver's level-merge width); internally it becomes a budget of
/// merge_width / W quotient blocks, so fusion never touches colors already
/// wider than the merge budget.
HbmcPartition hbmc_partition(index_t n, const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx,
                             index_t block_rows, index_t max_colors,
                             index_t merge_width = 0);

template <class T>
HbmcPartition hbmc_partition(const Csr<T>& lower, index_t block_rows,
                             index_t max_colors, index_t merge_width = 0) {
  return hbmc_partition(lower.nrows, lower.row_ptr, lower.col_idx, block_rows,
                        max_colors, merge_width);
}

/// BlockScheme::kHbmc planner: partitions, permutes the matrix when
/// `permuted` is not null (like plan_recursive; only then does it also check
/// that the layout covers every nonzero), and lays out the color-stepped
/// plan — per color one SpMV square over all previously solved columns, then
/// that color's block-diagonal triangles. tri_bounds are the block bounds
/// and color_bounds annotate the colors; compute_step_waves groups each
/// color's triangles into one wave, giving exactly 2·ncolors − 1 barriers
/// with the executor unchanged.
/// `merge_width` is the solver's run-merge width (kLevelMergeMaxWidth),
/// reused here as the color-fusion bound.
template <class T>
BlockPlan plan_hbmc(const Csr<T>& lower, const PlannerOptions& opt,
                    index_t merge_width, Csr<T>* permuted,
                    ThreadPool* pool = nullptr);

}  // namespace blocktri::order
