// Level-set analysis (Anderson & Saad / Saltz): partition the components of
// a lower-triangular system into levels such that components within a level
// have no mutual dependencies and can be solved in parallel (§2.1.2).
//
// Used three ways in this repo, mirroring the paper:
//   1. the level-set and cuSPARSE-like baseline solvers schedule by level,
//   2. the improved recursive layout reorders every triangular part by its
//      level-set order (§3.3, Fig. 3),
//   3. `nlevels` is one of the two features the adaptive SpTRSV selector
//      keys on (§3.4, Fig. 5a), and Table 4 reports per-matrix level counts
//      and level-width (parallelism) statistics.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

struct LevelSets {
  index_t nlevels = 0;
  std::vector<index_t> level_of;    // level of each component, size n
  std::vector<offset_t> level_ptr;  // size nlevels + 1
  std::vector<index_t> level_item;  // components grouped by level; within a
                                    // level, ascending original index (the
                                    // stable order §3.3's reordering relies on)

  index_t level_width(index_t l) const {
    return static_cast<index_t>(level_ptr[static_cast<std::size_t>(l) + 1] -
                                level_ptr[static_cast<std::size_t>(l)]);
  }
};

/// Level analysis of a lower-triangular CSR matrix (diagonal entries may be
/// present or absent; self-edges are ignored). level[i] = 1 + max over
/// strictly-lower neighbours, so a diagonal-only matrix has one level.
/// O(n + nnz), single pass thanks to the triangular ordering.
///
/// The level_of recurrence is loop-carried and stays serial; with a pool the
/// grouping passes (per-level counting and the level_item scatter) run over
/// contiguous row chunks with per-chunk level histograms, producing the
/// identical LevelSets. Matrices whose level count is a large fraction of n
/// (near-serial chains) fall back to the serial path — the histograms would
/// cost more than they save.
///
/// `merge_width > 0` applies the Böhnlein-style partition fix during the
/// grouping itself (not just in the executor): adjacent raw levels are fused
/// while their combined component count stays at or under `merge_width`, and
/// `level_of`/`level_ptr`/`level_item` all describe the fused partition.
/// A fused level may contain internal dependencies (component order within a
/// level is ascending index, which stays topological for triangular input),
/// so merged LevelSets are for ORDERING AND PARTITIONING consumers only —
/// the level-scheduled kernels, which assume levels are dependency-free,
/// must keep merge_width == 0 and rely on the executor's run merging.
/// merge_width == 0 (the default) is bit-identical to the historical output.
LevelSets compute_level_sets(index_t n, const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx,
                             ThreadPool* pool = nullptr,
                             index_t merge_width = 0);

/// Process-wide count of level analyses (atomic): one per compute_level_sets
/// call and one per level_order_nodes call (one recursion depth of the §3.3
/// planner). Level analysis is the dominant preprocessing cost (Table 5), so
/// the plan persistence contract — a warm PlanCache hit or a loaded artifact
/// performs *zero* level-set analysis — is asserted by diffing this counter
/// around the warm path (tests/test_persist.cpp).
std::uint64_t level_analysis_count();

/// What level_order_nodes found in one node's diagonal block.
struct NodeLevels {
  index_t nlevels = 0;  // level count of the block (0 for an empty node)
  offset_t nnz = 0;     // nonzeros of the block, diagonal included
};

/// One depth of §3.3's recursive level-set reordering, run on index arrays
/// instead of an extracted and re-permuted matrix. (old_of_new, new_of_old)
/// is a symmetric permutation of the lower-triangular pattern
/// (row_ptr, col_idx): permuted row p is row old_of_new[p], and column j
/// lands at new_of_old[j]. `nodes` are disjoint [r0, r1) ranges of permuted
/// rows. Each node is analysed exactly as compute_level_sets would analyse
/// its diagonal block of the permuted matrix: a dependency on a column before
/// r0 is outside the block and ignored, and an entry above the diagonal
/// throws. The node's slice of old_of_new is then reordered by
/// (level, current position) — level_order_permutation of that block — and
/// new_of_old is updated to match. Rows outside every node keep their place.
///
/// Nodes run across the pool (each writes only its own old_of_new slice);
/// the result does not depend on the pool. Counts as ONE level analysis
/// however many nodes it covers.
std::vector<NodeLevels> level_order_nodes(
    const std::vector<offset_t>& row_ptr, const std::vector<index_t>& col_idx,
    const std::vector<std::pair<index_t, index_t>>& nodes,
    std::vector<index_t>* old_of_new, std::vector<index_t>* new_of_old,
    ThreadPool* pool = nullptr);

template <class T>
LevelSets compute_level_sets(const Csr<T>& lower, ThreadPool* pool = nullptr,
                             index_t merge_width = 0) {
  return compute_level_sets(lower.nrows, lower.row_ptr, lower.col_idx, pool,
                            merge_width);
}

/// Level-width statistics: the "Parallelism min/ave./max" columns of Table 4.
struct ParallelismStats {
  index_t min_width = 0;
  double avg_width = 0.0;
  index_t max_width = 0;
};

ParallelismStats parallelism_stats(const LevelSets& ls);

/// The level-set permutation of §3.3: new_of_old ordering components by
/// (level, original index). Applying it with permute_symmetric keeps the
/// matrix lower triangular and makes each level a contiguous row range whose
/// diagonal block is diagonal-only.
std::vector<index_t> level_order_permutation(const LevelSets& ls);

}  // namespace blocktri
