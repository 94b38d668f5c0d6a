// Level-set parallel SpTRSV — Algorithm 2 of the paper (Anderson & Saad,
// Saltz). Preprocessing groups components into levels; the solve phase
// solves the levels in order, the rows of a level in parallel, with a
// barrier between levels (on the GPU, one kernel launch per level — the
// model's level_set kernel, model/kernels.hpp).
//
// This is also the "level-set" kernel of the adaptive selector (§3.4): the
// paper finds it best for blocks with few levels and short rows (Fig. 5a).
//
// Long runs of tiny levels (the common shape for strongly sequential blocks)
// are merged into execution groups at construction. A merged group is solved
// as one flat pass in level order — dependencies inside a group only ever
// point at earlier items — which removes the per-level loop/barrier overhead
// without changing any floating-point operation or its order. Merging is
// recomputed from the level analysis on every construction (including plan
// rehydration) and never persisted.
#pragma once

#include <span>
#include <vector>

#include "analysis/levels.hpp"
#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

/// Levels at most this wide are candidates for merging into one execution
/// group; wider levels stay their own group so the parallel path can still
/// split their rows.
inline constexpr offset_t kLevelMergeMaxWidth = 16;

template <class T>
class LevelSetSolver {
 public:
  /// Preprocessing (Alg. 2 lines 1–11): level analysis of the lower
  /// triangular matrix. The matrix is copied in; diagonal must be present.
  /// A pool parallelises the level-set construction (the analysis itself);
  /// it is not retained. `merge_max_width` bounds the level widths eligible
  /// for merging into one execution group (the autotuner overrides the
  /// default with a host-calibrated value; values < 1 disable merging).
  explicit LevelSetSolver(Csr<T> lower, ThreadPool* pool = nullptr,
                          offset_t merge_max_width = kLevelMergeMaxWidth);

  /// Adopting constructor (plan rehydration, and BlockSolver's build, which
  /// computes the levels while it fills the block): takes a level analysis
  /// instead of re-running it. `levels` must be the LevelSets of `lower`
  /// (checked structurally, not recomputed).
  LevelSetSolver(Csr<T> lower, LevelSets levels,
                 offset_t merge_max_width = kLevelMergeMaxWidth);

  /// Solve phase (Alg. 2 lines 12–22). With a pool, the rows of each wide
  /// level are solved across threads with a barrier per level — the CPU
  /// realisation of Alg. 2's per-level kernel launches. Distinct x entries
  /// are written by distinct rows and chunk assignment is deterministic, so
  /// the parallel result is bitwise identical to the serial one.
  ///
  /// `ctl` is the solve session's cooperative control, polled once per
  /// execution group (the natural barrier granularity); a tripped control
  /// abandons the remaining groups, leaving x partially written.
  void solve(const T* b, T* x, ThreadPool* pool = nullptr,
             const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides over a row-interleaved panel with
  /// row stride `ld` (element (i, c) at b[i·ld + c]): every row visit
  /// streams the row's structure once and updates all k columns in
  /// kRhsTile-wide groups. A pool splits a level's rows (wide
  /// levels) or the columns (narrow levels, many columns); both partitions
  /// write disjoint x entries with the single-RHS operation order per
  /// column, so the result is bitwise identical to k independent serial
  /// solves at any thread count.
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  ThreadPool* pool = nullptr,
                  const ExecControl* ctl = nullptr) const;

  const Csr<T>& matrix() const { return a_; }
  const LevelSets& levels() const { return ls_; }
  /// matrix()'s value array as a fixed-length view, written in place by
  /// BlockSolver's one-pass value install; structure and levels stay fixed.
  std::span<T> values() { return a_.val; }

  /// Number of execution groups after merging tiny adjacent levels
  /// (== nlevels when merging is disabled or nothing merged). Feeds the
  /// SolveReport levels_executed/levels_merged counters.
  index_t exec_groups() const {
    return static_cast<index_t>(group_lvl_.size()) - 1;
  }

  /// The merge-width bound this instance was built with.
  offset_t merge_max_width() const { return merge_max_width_; }

 private:
  void compute_exec_groups();

  Csr<T> a_;
  LevelSets ls_;
  offset_t merge_max_width_ = kLevelMergeMaxWidth;
  // Level-index boundaries of the execution groups: group g covers levels
  // [group_lvl_[g], group_lvl_[g+1]). Derived, never persisted.
  std::vector<index_t> group_lvl_;
};

}  // namespace blocktri
