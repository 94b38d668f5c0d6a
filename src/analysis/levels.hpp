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

/// Levels at most this wide are candidates for merging into one execution
/// group of a level-set triangle (sptrsv/triangle.hpp); wider levels stay
/// their own group so a pool can still split their rows.
inline constexpr offset_t kLevelMergeMaxWidth = 16;

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
/// call, one per level_order_nodes call (one recursion depth of the §3.3
/// planner) and one per note_level_analysis call. Level analysis is the
/// dominant preprocessing cost (Table 5), so the plan persistence contract —
/// a warm PlanCache hit or a loaded artifact performs *zero* level-set
/// analysis — is asserted by diffing this counter around the warm path
/// (tests/test_persist.cpp).
std::uint64_t level_analysis_count();

/// Counts one level analysis that ran outside this module: BlockSolver's
/// build walk computes the levels of every triangular block while it fills
/// the blocks, and counts that walk as one analysis.
void note_level_analysis();

/// The grouping half of compute_level_sets: level_ptr and level_item for a
/// level_of another pass computed (components ascending within a level),
/// identical to what compute_level_sets returns for the same levels. Not a
/// level analysis of its own.
LevelSets group_levels(std::vector<index_t> level_of, index_t nlevels);

/// What level_order_nodes found in one node's diagonal block.
struct NodeLevels {
  index_t nlevels = 0;  // level count of the block (0 for an empty node)
  offset_t nnz = 0;     // nonzeros of the block, diagonal included
};

/// One node of a level_order_nodes depth: permuted rows [r0, r1).
/// `settled` marks the top half of a node an earlier depth level-ordered —
/// directly, or as the top half of a settled node. That node's rows are
/// sorted by level, so every in-node dependency of a top-half row is
/// another top-half row sorted before it: the half's own sweep would find
/// the same levels and keep the same order. Its NodeLevels are read from the
/// state instead of swept.
struct LevelNode {
  index_t r0 = 0, r1 = 0;
  bool settled = false;
};

/// The running state of §3.3's reordering across the depths of one plan.
/// (old_of_new, new_of_old) is the composite symmetric permutation so far:
/// permuted row p is row old_of_new[p], and column j lands at new_of_old[j].
/// For every permuted row, `level` and `nnz` hold its level and its count
/// of in-node entries in the last node swept over it.
struct LevelOrderState {
  std::vector<index_t> old_of_new, new_of_old;
  std::vector<index_t> level;
  std::vector<offset_t> nnz;

  /// The identity permutation over n rows.
  explicit LevelOrderState(index_t n);
};

/// One depth of §3.3's recursive level-set reordering, run on index arrays
/// instead of an extracted and re-permuted matrix, over the lower-triangular
/// pattern (row_ptr, col_idx) under `state`'s permutation. `nodes` are
/// disjoint row ranges. Each unsettled node is analysed exactly as
/// compute_level_sets would analyse its diagonal block of the permuted
/// matrix: a dependency on a column before r0 is outside the block and
/// ignored, and an entry above the diagonal throws. The node's slice of
/// old_of_new is then reordered by (level, current position) —
/// level_order_permutation of that block — and new_of_old, level and nnz
/// are updated to match. A settled node keeps its rows and reads its
/// NodeLevels from the state: nlevels is its last row's level + 1, nnz the
/// sum of its rows' in-node counts. Rows outside every node keep their
/// place.
///
/// Nodes run across the pool (each writes only its own rows of the state);
/// the result does not depend on the pool. Counts as ONE level analysis
/// however many nodes it covers.
std::vector<NodeLevels> level_order_nodes(const std::vector<offset_t>& row_ptr,
                                          const std::vector<index_t>& col_idx,
                                          const std::vector<LevelNode>& nodes,
                                          LevelOrderState* state,
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
