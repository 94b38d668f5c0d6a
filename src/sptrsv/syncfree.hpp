// Synchronisation-free SpTRSV — Algorithm 3 of the paper (Liu et al.,
// Euro-Par'16 / CCPE'17). One kernel for the whole solve: each component is
// assigned a warp which busy-waits on its in-degree counter, computes its x
// entry, then pushes val*x products into the dependent components' left_sum
// accumulators with atomics and decrements their in-degree counters.
//
// Preprocessing is a single parallel pass counting in-degrees (Alg. 3 lines
// 1–5) — the cheapest analysis of the three baselines (Table 5: 2.34 ms).
//
// Cost drivers reproduced by the simulation (and called out in §2.2/§4.2):
//   * dependency chains serialise through the atomic visibility latency,
//   * long columns make a single warp issue many atomics (power-law load
//     imbalance — FullChip, vas_stokes_4M),
//   * spinning warps hold SM residency: components deep in the launch order
//     cannot even start until a slot frees (modelled by slot-holding tasks).
//
// Host storage is the block's CSR rows, diagonal last, held once (as
// LevelSetSolver holds them). The host kernels pull instead of push: row i
// sums L[i][j]·x[j] over its strict entries in CSR order, then divides. On
// rows sorted by column that is exactly Alg. 3's serial push for row i —
// left_sum starts at 0 and takes the products in ascending j — so both give
// the same bits. The threaded solve waits on per-row ready flags, as in Li's
// self-scheduling SpTRSV (PAPERS.md, arXiv:1710.04985), instead of pushing
// atomic left-sums. Only a simulated solve sees Alg. 3's CSC: it builds the
// column structure for the duration of that solve.
#pragma once

#include <span>

#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"
#include "sptrsv/sim_ctx.hpp"

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

  /// Host solve. With a pool (and no simulation) rows are dealt round-robin
  /// to threads (row i to thread i mod nthreads, mirroring the GPU's warp
  /// dispatch). A thread acquire-spins on each dependency's ready flag in
  /// CSR order, computes x_i with the serial expression, then
  /// release-publishes its own flag. Every row reads the same x entries in
  /// the same order as the serial solve, so the result is bitwise identical
  /// to it at any thread count. Deadlock-free: each thread walks its rows in
  /// ascending order and dependencies only point to smaller rows, so the
  /// smallest unsolved row is always runnable.
  ///
  /// The busy-wait is *bounded*: every spin loop carries a wall-clock budget
  /// (ctl->spin_timeout_ms(), or kDefaultSpinTimeoutMs for direct calls), so
  /// a flag that is never published times out instead of livelocking. With
  /// `ctl` attached, a timeout trips the control with kSpinTimeout and the
  /// caller observes it (x is partial); a deadline/cancel trip likewise
  /// abandons the solve mid-flight. Without `ctl`, a tripped spin budget
  /// self-heals: the block is re-solved on the serial path, which has no
  /// flags — slower, but correct and bounded.
  ///
  /// A simulated solve computes x serially and accounts Alg. 3 over a
  /// column view of the rows built for that solve.
  void solve(const T* b, T* x, const TrsvSim* s = nullptr,
             ThreadPool* pool = nullptr,
             const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides over a row-interleaved panel with
  /// row stride `ld` (element (i, c) at b[i·ld + c]): each row visit streams
  /// the row's structure once and updates all k columns, in natural row
  /// order with the single-RHS operation order per column. Host only. A pool
  /// splits the *columns of the panel*, so the result is bitwise identical
  /// to k independent serial solves at any thread count.
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  ThreadPool* pool = nullptr,
                  const ExecControl* ctl = nullptr) const;

  const Csr<T>& matrix() const { return a_; }
  /// matrix()'s value array as a fixed-length view, written in place by
  /// BlockSolver's one-pass value install; the structure stays fixed.
  std::span<T> values() { return a_.val; }

  /// TESTING ONLY: makes `row` also wait on its own ready flag in the
  /// threaded solve — a flag nobody else publishes, so that spin-wait can
  /// never finish and the bounded-spin timeout is exercised. The serial and
  /// batched paths have no flags, so a stalled solver still produces
  /// correct results on every spin-free rung.
  void stall_row_for_testing(index_t row) { stalled_row_ = row; }

 private:
  Csr<T> a_;               // rows, diagonal last: the execution format
  index_t stalled_row_ = -1;
};

}  // namespace blocktri
