// Synchronisation-free SpTRSV — Algorithm 3 of the paper (Liu et al.,
// Euro-Par'16 / CCPE'17). On the GPU it is one kernel for the whole solve:
// each component is assigned a warp which busy-waits on its in-degree
// counter, computes its x entry, then pushes val*x products into the
// dependent components' left_sum accumulators with atomics over the CSC
// column structure (the model's sync_free kernel, model/kernels.hpp).
//
// Preprocessing is a single parallel pass counting in-degrees (Alg. 3 lines
// 1–5) — the cheapest analysis of the three baselines (Table 5: 2.34 ms).
//
// The block's CSR rows, diagonal last, are held once (as LevelSetSolver
// holds them). The host kernels pull instead of push: row i sums
// L[i][j]·x[j] over its strict entries in CSR order, then divides. On rows
// sorted by column that is exactly Alg. 3's serial push for row i —
// left_sum starts at 0 and takes the products in ascending j — so both give
// the same bits. One right-hand side is solved serially in natural row order
// at any thread count: host threads waiting on per-row ready flags lost to
// the serial loop at every thread count measured (DESIGN.md §8).
#pragma once

#include <span>

#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

template <class T>
class SyncFreeSolver {
 public:
  /// Tag of the rehydration constructor.
  struct Adopt {};

  /// The input is the lower triangle in CSR, diagonal last in each row,
  /// and must be nonsingular. It is the execution format: no analysis runs.
  explicit SyncFreeSolver(Csr<T> lower);

  /// Adopting constructor: takes rows already proved triangular — by
  /// validate_artifact (check_tri_csr) on rehydration, whose values the
  /// caller may still have to install, or by BlockSolver's build walk — so
  /// only the shape is checked here.
  SyncFreeSolver(Csr<T> lower, Adopt);

  /// Host solve: the rows in natural row order, a valid linearisation of
  /// the dependency partial order. `ctl` is polled once per row chunk; a
  /// deadline/cancel trip abandons the remaining rows (x is partial).
  void solve(const T* b, T* x, const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides over a row-interleaved panel with
  /// row stride `ld` (element (i, c) at b[i·ld + c]): each row visit streams
  /// the row's structure once and updates all k columns, in natural row
  /// order with the single-RHS operation order per column. A pool
  /// splits the *columns of the panel*, so the result is bitwise identical
  /// to k independent serial solves at any thread count.
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  ThreadPool* pool = nullptr,
                  const ExecControl* ctl = nullptr) const;

  const Csr<T>& matrix() const { return a_; }
  /// matrix()'s value array as a fixed-length view, written in place by
  /// BlockSolver's one-pass value install; the structure stays fixed.
  std::span<T> values() { return a_.val; }

 private:
  Csr<T> a_;  // rows, diagonal last: the execution format
};

}  // namespace blocktri
