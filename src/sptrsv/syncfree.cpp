#include "sptrsv/syncfree.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {

template <class T>
SyncFreeSolver<T>::SyncFreeSolver(Csr<T> lower) : a_(std::move(lower)) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(a_),
                     "SyncFreeSolver requires a nonsingular lower triangle");
}

template <class T>
SyncFreeSolver<T>::SyncFreeSolver(Csr<T> lower, Adopt) : a_(std::move(lower)) {
  BLOCKTRI_CHECK_MSG(
      a_.nrows == a_.ncols &&
          a_.row_ptr.size() == static_cast<std::size_t>(a_.nrows) + 1,
      "SyncFreeSolver: adopted rows do not form a square triangle");
}

namespace {

/// Armed controls are polled every this many rows — the chunk granularity
/// the flat level-ordered kernels use.
constexpr index_t kPollRows = 8192;

/// Threaded host solve: rows pull their dependencies' x entries once each
/// dependency's ready flag is published. A row's consumer acquire-loads the
/// flag its producer release-stored after writing x_j, so x_j is visible
/// before the row reads it.
///
/// `ctl` is never null here: the spin-waits are *bounded* by its wall-clock
/// budget (a healthy matrix publishes every flag long before the budget; a
/// flag nobody publishes trips kSpinTimeout instead of livelocking), and a
/// tripped control — spin timeout, deadline or cancel, from any thread —
/// makes every thread abandon its remaining rows. x is partial after a trip.
template <class T>
void syncfree_parallel(const Csr<T>& a, const T* b, T* x, index_t stalled_row,
                       ThreadPool* pool, const ExecControl* ctl) {
  const index_t n = a.nrows;
  const std::unique_ptr<std::atomic<std::uint8_t>[]> ready(
      new std::atomic<std::uint8_t>[static_cast<std::size_t>(n)]);
  // The pool's fork/join barrier orders this initialisation before any
  // solving thread starts.
  pool->parallel_for(0, n, [&](index_t r0, index_t r1, int) {
    for (index_t i = r0; i < r1; ++i)
      ready[i].store(0, std::memory_order_relaxed);
  });

  using Clock = std::chrono::steady_clock;
  const Clock::time_point spin_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             ctl->spin_timeout_ms()));

  const offset_t* row_ptr = a.row_ptr.data();
  const index_t* col = a.col_idx.data();
  const T* val = a.val.data();
  const int nthreads = pool->size();
  pool->run(nthreads, [&](int tid) {
    // Busy-waits until row j is published. yield() keeps the spin honest
    // when threads are oversubscribed on few cores, and the wall-clock
    // budget keeps it *bounded* — the escalation ladder is: 64 spins →
    // yield, 1024 yields → read the clock + poll deadline/cancel, budget
    // exceeded → trip kSpinTimeout so every thread (including the ones
    // spinning on other rows) bails.
    int spins = 0;
    int yields = 0;
    const auto wait_ready = [&](index_t j) {
      while (ready[j].load(std::memory_order_acquire) == 0) {
        if (ctl->tripped()) return false;
        if (++spins > 64) {
          std::this_thread::yield();
          spins = 0;
          if (++yields >= 1024) {
            yields = 0;
            if (!ctl->check()) return false;
            if (Clock::now() >= spin_deadline) {
              ctl->trip(StatusCode::kSpinTimeout);
              return false;
            }
          }
        }
      }
      return true;
    };
    for (index_t i = tid; i < n; i += static_cast<index_t>(nthreads)) {
      if (ctl->tripped()) return;
      spins = 0;
      yields = 0;
      for (offset_t p = row_ptr[i]; p < row_ptr[i + 1] - 1; ++p)
        if (!wait_ready(col[p])) return;
      if (i == stalled_row && !wait_ready(i)) return;
      simd::detail::sptrsv_rows_strict(row_ptr, col, val, nullptr, i, i + 1,
                                       b, x);
      ready[i].store(1, std::memory_order_release);
    }
  });
}

}  // namespace

template <class T>
void SyncFreeSolver<T>::solve_many(const T* b, T* x, index_t k, index_t ld,
                                   ThreadPool* pool,
                                   const ExecControl* ctl) const {
  if (k <= 0) return;
  if (ctl != nullptr && !ctl->check()) return;
  const index_t n = a_.nrows;
  // Columns [c0, c1) in natural row order, polling an armed control per
  // row chunk (check() is thread-safe).
  const auto columns = [&](index_t c0, index_t c1) {
    for (index_t r0 = 0; r0 < n; r0 += kPollRows) {
      if (ctl != nullptr && r0 > 0 && !ctl->check()) return;
      const index_t r1 = std::min(n, r0 + kPollRows);
      simd::detail::sptrsv_rows_many_strict(a_.row_ptr.data(),
                                            a_.col_idx.data(), a_.val.data(),
                                            nullptr, r0, r1, b, x, c0, c1, ld);
    }
  };
  // Threads split the panel's columns. Each row reads the x rows other
  // threads are writing, and a row's columns sit side by side, so the split
  // is by whole cache lines, never inside one.
  const index_t width = static_cast<index_t>(64 / sizeof(T));
  const index_t groups = (k + width - 1) / width;
  if (parallel_enabled(pool) && groups >= 2 &&
      static_cast<offset_t>(k) * a_.nnz() >= kHostParallelMinNnz) {
    pool->parallel_for(0, groups, [&](index_t g0, index_t g1, int) {
      columns(g0 * width, std::min(k, g1 * width));
    });
    return;
  }
  columns(0, k);
}

template <class T>
void SyncFreeSolver<T>::solve(const T* b, T* x, ThreadPool* pool,
                              const ExecControl* ctl) const {
  const index_t n = a_.nrows;
  if (parallel_enabled(pool) && n >= 2 * pool->size()) {
    if (ctl != nullptr) {
      if (!ctl->check()) return;
      // The trip (spin timeout, deadline, cancel) is the caller's to
      // observe; x is partial after one.
      syncfree_parallel(a_, b, x, stalled_row_, pool, ctl);
      return;
    }
    // Direct kernel call with no status channel: bound the spin with a local
    // control and self-heal on a trip by falling through to the serial path
    // below, which has no flags — a flag nobody publishes costs the spin
    // budget once, not a livelock.
    const ExecControl local;
    syncfree_parallel(a_, b, x, stalled_row_, pool, &local);
    if (!local.tripped()) return;
  }

  // The strict-order row body in natural row order, which is a valid
  // linearisation of the dependency partial order.
  for (index_t r0 = 0; r0 < n; r0 += kPollRows) {
    if (ctl != nullptr && !ctl->check()) return;
    simd::detail::sptrsv_rows_strict(a_.row_ptr.data(), a_.col_idx.data(),
                                     a_.val.data(), nullptr, r0,
                                     std::min(n, r0 + kPollRows), b, x);
  }
}

template class SyncFreeSolver<float>;
template class SyncFreeSolver<double>;

}  // namespace blocktri
