#include "sptrsv/syncfree.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/prefix.hpp"
#include "common/simd.hpp"
#include "sim/kernel_sim.hpp"
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

/// Alg. 3's column structure of `a` — rows ascending within each column,
/// the order csr_to_csc gives — built by counting sort for one simulated
/// solve. In a lower triangle each column's first entry is its diagonal.
template <class T>
void column_view(const Csr<T>& a, std::vector<offset_t>* col_ptr,
                 std::vector<index_t>* row_idx) {
  col_ptr->assign(static_cast<std::size_t>(a.ncols) + 1, 0);
  for (const index_t c : a.col_idx) ++(*col_ptr)[static_cast<std::size_t>(c)];
  exclusive_scan_in_place(*col_ptr);
  row_idx->resize(a.col_idx.size());
  std::vector<offset_t> cursor(col_ptr->begin(), col_ptr->end() - 1);
  for (index_t i = 0; i < a.nrows; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      (*row_idx)[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(
              a.col_idx[static_cast<std::size_t>(k)])]++)] = i;
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
void SyncFreeSolver<T>::solve(const T* b, T* x, const TrsvSim* s,
                              ThreadPool* pool,
                              const ExecControl* ctl) const {
  const index_t n = a_.nrows;
  const int elem = static_cast<int>(sizeof(T));
  const bool simulate = s != nullptr && s->active();

  if (!simulate && parallel_enabled(pool) && n >= 2 * pool->size()) {
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

  // Host execution: the strict-order row body in natural row order, which
  // is a valid linearisation of the dependency partial order.
  for (index_t r0 = 0; r0 < n; r0 += kPollRows) {
    if (ctl != nullptr && !ctl->check()) return;
    simd::detail::sptrsv_rows_strict(a_.row_ptr.data(), a_.col_idx.data(),
                                     a_.val.data(), nullptr, r0,
                                     std::min(n, r0 + kPollRows), b, x);
  }
  if (!simulate) return;

  // Alg. 3's data flow over CSC: a left_sum accumulator per component,
  // updated column by column. The column structure exists only for this
  // accounting.
  std::vector<offset_t> col_ptr;
  std::vector<index_t> row_idx;
  column_view(a_, &col_ptr, &row_idx);
  sim::KernelSim ks(*s->gpu, s->cache, s->fp64);
  std::uint64_t addrs[kWarp];
  // Reset kernel: left_sum must be zeroed and in_degree restored before
  // every solve (Alg. 3's counters are consumed by the previous run) — a
  // real extra launch the level-set methods do not pay.
  ks.begin_task();
  ks.stream_bytes(static_cast<std::int64_t>(n) * (elem + 4));
  ks.end_task();
  s->report->add_kernel_launch(ks.finish(), s->gpu->kernel_launch_ns);
  // Scratch address layout: left_sum[i] then in_degree[i] per component.
  const std::uint64_t ls_base = s->aux_base;
  const std::uint64_t deg_base =
      s->aux_base +
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(elem);

  for (index_t i = 0; i < n; ++i) {
    const offset_t clo = col_ptr[static_cast<std::size_t>(i)];
    const offset_t chi = col_ptr[static_cast<std::size_t>(i) + 1];
    ks.begin_task();
    // Busy-wait: at minimum one read of the in-degree counter; the real
    // waiting time is produced by the scheduler through the dependency
    // edges below (row i's strict entries; the slot is held while waiting).
    for (offset_t k = a_.row_ptr[static_cast<std::size_t>(i)];
         k < a_.row_ptr[static_cast<std::size_t>(i) + 1] - 1; ++k)
      ks.dep(a_.col_idx[static_cast<std::size_t>(k)]);
    ks.touch(deg_base + static_cast<std::uint64_t>(i) * 4u, 4);

    // Compute x_i: read b_i and left_sum_i, stream the diagonal value,
    // divide, write x_i.
    ks.touch(s->b_base + static_cast<std::uint64_t>(i) *
                             static_cast<std::uint64_t>(elem),
             elem);
    ks.touch(ls_base + static_cast<std::uint64_t>(i) *
                           static_cast<std::uint64_t>(elem),
             elem);
    ks.stream_bytes(static_cast<std::int64_t>(sizeof(offset_t)) + elem);
    ks.serial_ns(s->gpu->divide_ns);
    ks.touch(s->x_base + static_cast<std::uint64_t>(i) *
                             static_cast<std::uint64_t>(elem),
             elem);

    // Notify dependents: stream the column structure, one atomic add on
    // left_sum and one atomic decrement on in_degree per entry below the
    // diagonal (Alg. 3 lines 12–15), issued by the warp's lanes in 32-wide
    // groups.
    const offset_t col_len = chi - (clo + 1);
    ks.stream_bytes(col_len * (static_cast<std::int64_t>(sizeof(index_t)) +
                               elem));
    ks.flops(2 * col_len + 2);
    for (offset_t k = clo + 1; k < chi; k += kWarp) {
      const int g = static_cast<int>(std::min<offset_t>(kWarp, chi - k));
      for (int l = 0; l < g; ++l)
        addrs[l] = ls_base +
                   static_cast<std::uint64_t>(
                       row_idx[static_cast<std::size_t>(k + l)]) *
                       static_cast<std::uint64_t>(elem);
      ks.atomic(addrs, g, elem);
      for (int l = 0; l < g; ++l)
        addrs[l] = deg_base +
                   static_cast<std::uint64_t>(
                       row_idx[static_cast<std::size_t>(k + l)]) *
                       4u;
      ks.atomic(addrs, g, 4);
    }
    ks.end_task();
  }
  // The whole solve is one kernel launch — the algorithm's selling point.
  s->report->add_kernel_launch(ks.finish(), s->gpu->kernel_launch_ns);
}

template class SyncFreeSolver<float>;
template class SyncFreeSolver<double>;

}  // namespace blocktri
