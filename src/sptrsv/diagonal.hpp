// Completely-parallel SpTRSV for diagonal-only blocks (§3.4 case 1): after
// the level-set reordering, many leaf triangular blocks of the recursive
// layout contain nothing but their diagonal, so x_i = b_i / d_i with perfect
// parallelism — one kernel, no dependencies at all.
#pragma once

#include <span>
#include <vector>

#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"
#include "sptrsv/sim_ctx.hpp"

namespace blocktri {

template <class T>
class DiagonalSolver {
 public:
  /// `diag` is the dense diagonal of the block (all entries nonzero).
  explicit DiagonalSolver(std::vector<T> diag);

  /// Embarrassingly parallel on the host: a pool splits the range into
  /// contiguous chunks (bitwise deterministic — disjoint writes). `ctl` is
  /// the solve session's cooperative control — one elementwise pass is the
  /// natural check granularity here, so it is polled once on entry.
  void solve(const T* b, T* x, const TrsvSim* s = nullptr,
             ThreadPool* pool = nullptr,
             const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides over a row-interleaved panel with
  /// row stride `ld` (element (i, c) at b[i·ld + c]): the diagonal is
  /// streamed once and divides all k columns per row. Host only; bitwise
  /// identical to k single solves at any thread count (disjoint writes,
  /// element-wise divides).
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  ThreadPool* pool = nullptr,
                  const ExecControl* ctl = nullptr) const;

  index_t n() const { return static_cast<index_t>(diag_.size()); }

  /// The dense diagonal — captured by the plan-persistence subsystem.
  const std::vector<T>& diag() const { return diag_; }

  /// The diagonal as a fixed-length view, written in place by BlockSolver's
  /// one-pass value install (which only writes pivots that
  /// check_lower_triangular already proved nonzero).
  std::span<T> values() { return diag_; }

 private:
  std::vector<T> diag_;
};

}  // namespace blocktri
