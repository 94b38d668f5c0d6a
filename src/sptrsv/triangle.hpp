// One host triangle for the four SpTRSV kernels of Alg. 7 (§3.4):
// completely parallel, level-set (Alg. 2), sync-free (Alg. 3) and
// cuSPARSE-like (Naumov's csrsv2, the paper's [58]). On the GPU they are
// four kernels, whose cost the model (model/kernels.hpp) reads from the
// rows, level sets and kind held here. On the host they differ in two ways:
// sync-free sums each row in the strict order (on sorted rows exactly
// Alg. 3's push, left_sum from 0 in ascending j), the others in the
// canonical order of the active SIMD lowering (common/simd.hpp); and a
// level-set triangle given a pool splits its levels across it, the CPU form
// of Alg. 2's per-level launches. Every other solve is one pass over the
// rows in natural order, a valid linearisation of a lower triangle.
#pragma once

#include <span>
#include <vector>

#include "analysis/levels.hpp"
#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

template <class T>
class TriSolver {
 public:
  TriSolver() = default;

  /// Checks that `lower` is a nonsingular lower triangle, diagonal last in
  /// each row, and runs the level analysis when `kind` holds level sets
  /// (level-set and cuSPARSE-like); `pool` parallelises it and is not kept.
  /// `merge_width` bounds the level widths a level-set triangle merges into
  /// one execution group (values < 1 disable merging).
  TriSolver(TriKernelKind kind, Csr<T> lower, ThreadPool* pool = nullptr,
            offset_t merge_width = kLevelMergeMaxWidth);

  /// Adopting constructor (BlockSolver's build and plan rehydration): rows
  /// already proved triangular — whose values the caller may still have to
  /// install — and their level sets, empty for the kinds that hold none.
  /// Only the shapes are checked.
  TriSolver(TriKernelKind kind, Csr<T> rows, LevelSets levels,
            offset_t merge_width = kLevelMergeMaxWidth);

  /// Solves k right-hand sides over a row-interleaved panel with row stride
  /// `ld` (element (i, c) at b[i·ld + c]); one column at unit stride runs
  /// the single-RHS bodies. A level-set triangle given a pool runs its
  /// groups in order, splitting a wide level's rows or a narrow group's
  /// columns; any other solve is the flat pass (natural row order, pivots
  /// only divided when no row has a strict entry, panel columns split by
  /// whole cache lines on a pool). Each column keeps the single-RHS order:
  /// bitwise identical at any k and thread count. `ctl` is polled per group
  /// or per 8 192 rows; a trip leaves x partial.
  void solve(const T* b, T* x, index_t k = 1, index_t ld = 1,
             ThreadPool* pool = nullptr,
             const ExecControl* ctl = nullptr) const;

  /// The serial flat pass of one right-hand side in the active lowering,
  /// whatever the kind: the fallback ladder's level-set rung.
  void solve_canonical(const T* b, T* x) const;

  TriKernelKind kind() const { return kind_; }
  /// The rows, diagonal last; a diagonal triangle's rows are its pivots.
  const Csr<T>& rows() const { return a_; }
  const LevelSets& levels() const { return ls_; }
  /// rows()'s values, which BlockSolver's value install writes in place.
  std::span<T> values() { return a_.val; }

  /// Execution groups after merging runs of narrow levels (level-set only,
  /// else 0): the levels_executed/levels_merged counters.
  index_t exec_groups() const {
    return group_lvl_.empty() ? 0
                              : static_cast<index_t>(group_lvl_.size()) - 1;
  }

 private:
  void compute_groups(offset_t merge_width);
  /// Rows [p0, p1) of `items` (nullptr: row p itself) over panel columns
  /// [c0, c1), in the strict or the active lowering.
  void run_rows(const T* b, T* x, const index_t* items, offset_t p0,
                offset_t p1, index_t c0, index_t c1, index_t ld,
                bool strict) const;
  void flat(const T* b, T* x, index_t c0, index_t c1, index_t ld, bool strict,
            const ExecControl* ctl) const;

  TriKernelKind kind_ = TriKernelKind::kSyncFree;
  Csr<T> a_;
  LevelSets ls_;
  // Level-index bounds of the execution groups: group g covers levels
  // [group_lvl_[g], group_lvl_[g+1]). Derived, never persisted.
  std::vector<index_t> group_lvl_;
};

}  // namespace blocktri
