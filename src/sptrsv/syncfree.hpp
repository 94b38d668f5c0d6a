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
#pragma once

#include <span>
#include <vector>

#include "common/deadline.hpp"
#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"
#include "sptrsv/sim_ctx.hpp"

namespace blocktri {

template <class T>
class SyncFreeSolver {
 public:
  /// Builds the CSC execution structure and the in-degree counts. The input
  /// is the lower triangle in CSR (diagonal last in each row). A pool
  /// parallelises the CSC conversion and in-degree pass; it is not retained.
  explicit SyncFreeSolver(const Csr<T>& lower, ThreadPool* pool = nullptr);

  /// Rehydration constructor for the plan-persistence subsystem: adopts the
  /// previously built CSC execution structure, strict-lower dependency rows
  /// and in-degree counts instead of recomputing them.
  SyncFreeSolver(Csc<T> csc, Csr<T> strict_rows,
                 std::vector<index_t> in_degree);

  /// Host solve. With a pool (and no simulation) this runs the CPU analogue
  /// of Alg. 3: components are dealt round-robin to threads (component i to
  /// thread i mod nthreads, mirroring the GPU's warp dispatch), each thread
  /// spin-waits on its component's atomic in-degree counter, solves, then
  /// pushes val·x products into the dependents' atomic left_sum slots and
  /// decrements their counters with release ordering. Accumulation order
  /// into left_sum is timing-dependent, so parallel results match the serial
  /// ones to rounding (not bitwise) — the same caveat the GPU kernel has.
  ///
  /// `scratch` (≥ n elements) lets the caller provide the serial path's
  /// left_sum accumulator so warm solves allocate nothing; nullptr falls back
  /// to a local vector. The parallel path ignores it (it needs atomics).
  ///
  /// The busy-wait is *bounded*: every spin loop carries a wall-clock budget
  /// (ctl->spin_timeout_ms(), or kDefaultSpinTimeoutMs for direct calls), so
  /// corrupted or cyclic in-degree counters time out instead of livelocking.
  /// With `ctl` attached, a timeout trips the control with kSpinTimeout and
  /// the caller observes it (x is partial); a deadline/cancel trip likewise
  /// abandons the solve mid-flight. Without `ctl`, a tripped spin budget
  /// self-heals: the block is re-solved on the serial path, which never
  /// consults the in-degree counters — slower, but correct and bounded.
  void solve(const T* b, T* x, const TrsvSim* s = nullptr,
             ThreadPool* pool = nullptr, T* scratch = nullptr,
             const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides (column-major panel, leading
  /// dimension `ld`): each column visit streams the CSC structure once and
  /// pushes val·x products for all k columns. Host only. Unlike solve()'s
  /// parallel path, the batched path never races on accumulators: a pool
  /// splits the *columns of the panel* and every chunk runs the serial
  /// ascending-order algorithm on its own left_sum scratch, so the result is
  /// bitwise identical to k independent serial solves at any thread count.
  ///
  /// `scratch` (≥ n·min(kRhsTile, k) elements) plays solve()'s role for the
  /// serial path's accumulator panel; the parallel column-split ignores it
  /// (each chunk needs its own panel and allocates locally).
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  ThreadPool* pool = nullptr, T* scratch = nullptr,
                  const ExecControl* ctl = nullptr,
                  PanelLayout layout = PanelLayout::kColMajor) const;

  const Csc<T>& matrix_csc() const { return csc_; }
  const Csr<T>& strict_rows() const { return strict_rows_; }
  const std::vector<index_t>& in_degree() const { return in_degree_; }
  /// The CSC and strict-row value arrays as fixed-length views, written in
  /// place by BlockSolver's one-pass value install; structure and in-degrees
  /// stay fixed.
  std::span<T> csc_values() { return csc_.val; }
  std::span<T> strict_values() { return strict_rows_.val; }

  /// TESTING ONLY: adds `delta` to one row's in-degree counter, simulating
  /// the corrupted dependency metadata the bounded spin-wait defends
  /// against — the parallel path then waits on a count that can never drain.
  /// The serial and batched paths ignore in-degree entirely, so a poisoned
  /// solver still produces correct results on every spin-free rung.
  void poison_in_degree_for_testing(index_t row, index_t delta) {
    in_degree_.at(static_cast<std::size_t>(row)) += delta;
  }

 private:
  Csc<T> csc_;                      // execution format (Alg. 3 is CSC)
  Csr<T> strict_rows_;              // row lists = dependency edges for the sim
  std::vector<index_t> in_degree_;  // off-diagonal nnz per row
};

}  // namespace blocktri
