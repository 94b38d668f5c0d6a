#include "sptrsv/syncfree.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "sim/kernel_sim.hpp"
#include "sparse/convert.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {

template <class T>
SyncFreeSolver<T>::SyncFreeSolver(const Csr<T>& lower, ThreadPool* pool) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(lower),
                     "SyncFreeSolver requires a nonsingular lower triangle");
  csc_ = csr_to_csc(lower, pool);
  // Dependency edges for the simulator: component i waits for every j < i
  // with L[i,j] != 0, i.e. the strictly-lower entries of row i.
  StrictLowerSplit<T> split = split_diagonal(lower);
  strict_rows_ = std::move(split.strict);
  in_degree_.assign(static_cast<std::size_t>(lower.nrows), 0);
  auto fill_degrees = [this](index_t r0, index_t r1) {
    for (index_t i = r0; i < r1; ++i)
      in_degree_[static_cast<std::size_t>(i)] =
          static_cast<index_t>(strict_rows_.row_nnz(i));
  };
  if (parallel_enabled(pool) && lower.nrows >= kHostParallelMinNnz) {
    pool->parallel_for(0, lower.nrows,
                       [&](index_t r0, index_t r1, int) {
                         fill_degrees(r0, r1);
                       });
  } else {
    fill_degrees(0, lower.nrows);
  }
}

template <class T>
SyncFreeSolver<T>::SyncFreeSolver(Csc<T> csc, Csr<T> strict_rows,
                                  std::vector<index_t> in_degree)
    : csc_(std::move(csc)),
      strict_rows_(std::move(strict_rows)),
      in_degree_(std::move(in_degree)) {
  BLOCKTRI_CHECK_MSG(
      csc_.nrows == csc_.ncols &&
          strict_rows_.nrows == csc_.nrows &&
          in_degree_.size() == static_cast<std::size_t>(csc_.nrows),
      "SyncFreeSolver: adopted execution structure is inconsistent");
}

namespace {

/// Parallel host solve: Algorithm 3 on CPU threads. Each component owns one
/// atomic in-degree counter and one atomic left_sum accumulator; producers
/// fetch_add the product then fetch_sub(1, release) the counter, and the
/// consumer's acquire load of 0 pairs with every decrement in the release
/// sequence, making all contributions visible before x_i is computed.
///
/// `ctl` is never null here: the spin-waits are *bounded* by its wall-clock
/// budget (a healthy matrix drains every counter long before the budget; a
/// corrupted one trips kSpinTimeout instead of livelocking), and a tripped
/// control — spin timeout, deadline or cancel, from any thread — makes every
/// thread abandon its remaining components. x is partial after a trip.
template <class T>
void syncfree_parallel(const Csc<T>& csc, const T* b, T* x,
                       const std::vector<index_t>& in_degree,
                       ThreadPool* pool, const ExecControl* ctl) {
  const index_t n = csc.ncols;
  const std::unique_ptr<std::atomic<T>[]> left(new std::atomic<T>[
      static_cast<std::size_t>(n)]);
  const std::unique_ptr<std::atomic<index_t>[]> deg(new std::atomic<index_t>[
      static_cast<std::size_t>(n)]);
  // The pool's fork/join barrier orders this initialisation before any
  // solving thread starts.
  pool->parallel_for(0, n, [&](index_t r0, index_t r1, int) {
    for (index_t i = r0; i < r1; ++i) {
      left[i].store(T(0), std::memory_order_relaxed);
      deg[i].store(in_degree[static_cast<std::size_t>(i)],
                   std::memory_order_relaxed);
    }
  });

  using Clock = std::chrono::steady_clock;
  const Clock::time_point spin_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             ctl->spin_timeout_ms()));

  const int nthreads = pool->size();
  pool->run(nthreads, [&](int tid) {
    for (index_t i = tid; i < n; i += static_cast<index_t>(nthreads)) {
      if (ctl->tripped()) return;
      // Busy-wait until every dependency has published its contribution.
      // Deadlock-free on healthy inputs: each thread walks its components in
      // ascending order and dependencies only point to smaller indices, so
      // the smallest unsolved component is always runnable. yield() keeps
      // the spin honest when threads are oversubscribed on few cores, and
      // the wall-clock budget keeps it *bounded* when the counters are
      // corrupt — the escalation ladder is: 64 spins → yield, 1024 yields →
      // read the clock + poll deadline/cancel, budget exceeded → trip
      // kSpinTimeout so every thread (including the ones spinning on other
      // components) bails.
      int spins = 0;
      int yields = 0;
      while (deg[i].load(std::memory_order_acquire) != 0) {
        if (ctl->tripped()) return;
        if (++spins > 64) {
          std::this_thread::yield();
          spins = 0;
          if (++yields >= 1024) {
            yields = 0;
            if (!ctl->check()) return;
            if (Clock::now() >= spin_deadline) {
              ctl->trip(StatusCode::kSpinTimeout);
              return;
            }
          }
        }
      }
      const offset_t clo = csc.col_ptr[static_cast<std::size_t>(i)];
      const offset_t chi = csc.col_ptr[static_cast<std::size_t>(i) + 1];
      const T xi = (b[i] - left[i].load(std::memory_order_relaxed)) /
                   csc.val[static_cast<std::size_t>(clo)];
      x[i] = xi;
      for (offset_t k = clo + 1; k < chi; ++k) {
        const auto row = static_cast<std::size_t>(
            csc.row_idx[static_cast<std::size_t>(k)]);
        left[row].fetch_add(csc.val[static_cast<std::size_t>(k)] * xi,
                            std::memory_order_relaxed);
        deg[row].fetch_sub(1, std::memory_order_release);
      }
    }
  });
}

}  // namespace

namespace {

/// Serial batched solve over panel columns [c0, c1): ascending column order
/// of Alg. 3's linearisation, one kRhsTile-wide accumulator panel reused per
/// tile so the CSC structure is streamed once per tile instead of once per
/// RHS.
template <class T>
void syncfree_columns_many(const Csc<T>& csc, const T* b, T* x, index_t c0,
                           index_t c1, index_t ld, T* scratch,
                           const ExecControl* ctl) {
  const index_t n = csc.ncols;
  const auto nu = static_cast<std::size_t>(n);
  std::vector<T> local;
  T* left_buf = scratch;
  if (left_buf == nullptr) {
    local.resize(nu * static_cast<std::size_t>(
                          std::min<index_t>(kRhsTile, c1 - c0)));
    left_buf = local.data();
  }
  for (index_t ct = c0; ct < c1; ct += kRhsTile) {
    if (ctl != nullptr && !ctl->check()) return;
    const int nt = static_cast<int>(
        ct + kRhsTile <= c1 ? kRhsTile : c1 - ct);
    std::fill(left_buf, left_buf + nu * static_cast<std::size_t>(nt), T(0));
    for (index_t i = 0; i < n; ++i) {
      const offset_t clo = csc.col_ptr[static_cast<std::size_t>(i)];
      const offset_t chi = csc.col_ptr[static_cast<std::size_t>(i) + 1];
      const T d = csc.val[static_cast<std::size_t>(clo)];
      T xi[kRhsTile];
      for (int c = 0; c < nt; ++c) {
        const std::size_t off = static_cast<std::size_t>(i) +
                                static_cast<std::size_t>(ct + c) *
                                    static_cast<std::size_t>(ld);
        xi[c] = (b[off] - left_buf[static_cast<std::size_t>(i) + nu * c]) / d;
        x[off] = xi[c];
      }
      for (offset_t p = clo + 1; p < chi; ++p) {
        const auto row = static_cast<std::size_t>(
            csc.row_idx[static_cast<std::size_t>(p)]);
        const T v = csc.val[static_cast<std::size_t>(p)];
        for (int c = 0; c < nt; ++c) left_buf[row + nu * c] += v * xi[c];
      }
    }
  }
}

/// Interleaved-panel counterpart of syncfree_columns_many: panel element
/// (i, c) at b[i·ld + c], and the accumulator panel keeps one row's tile
/// entries adjacent (left_buf[i·nt + c]) so both the x/b traffic and the
/// scatter updates are unit-stride across the tile. Per column the
/// accumulation order is identical (ascending components, ascending rows
/// within a column), so results stay bitwise equal to the column-major path.
template <class T>
void syncfree_columns_many_ilv(const Csc<T>& csc, const T* b, T* x, index_t c0,
                               index_t c1, index_t ld, T* scratch,
                               const ExecControl* ctl) {
  const index_t n = csc.ncols;
  const auto nu = static_cast<std::size_t>(n);
  std::vector<T> local;
  T* left_buf = scratch;
  if (left_buf == nullptr) {
    local.resize(nu * static_cast<std::size_t>(
                          std::min<index_t>(kRhsTile, c1 - c0)));
    left_buf = local.data();
  }
  for (index_t ct = c0; ct < c1; ct += kRhsTile) {
    if (ctl != nullptr && !ctl->check()) return;
    const int nt = static_cast<int>(
        ct + kRhsTile <= c1 ? kRhsTile : c1 - ct);
    const auto ntu = static_cast<std::size_t>(nt);
    std::fill(left_buf, left_buf + nu * ntu, T(0));
    for (index_t i = 0; i < n; ++i) {
      const offset_t clo = csc.col_ptr[static_cast<std::size_t>(i)];
      const offset_t chi = csc.col_ptr[static_cast<std::size_t>(i) + 1];
      const T d = csc.val[static_cast<std::size_t>(clo)];
      const T* bi = b + static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(ld) +
                    ct;
      T* xi = x + static_cast<std::size_t>(i) *
                      static_cast<std::size_t>(ld) +
              ct;
      T* li = left_buf + static_cast<std::size_t>(i) * ntu;
      T xi_loc[kRhsTile];
      for (int c = 0; c < nt; ++c) {
        xi_loc[c] = (bi[c] - li[c]) / d;
        xi[c] = xi_loc[c];
      }
      for (offset_t p = clo + 1; p < chi; ++p) {
        T* lr = left_buf + static_cast<std::size_t>(
                               csc.row_idx[static_cast<std::size_t>(p)]) *
                               ntu;
        const T v = csc.val[static_cast<std::size_t>(p)];
        for (int c = 0; c < nt; ++c) lr[c] += v * xi_loc[c];
      }
    }
  }
}

}  // namespace

template <class T>
void SyncFreeSolver<T>::solve_many(const T* b, T* x, index_t k, index_t ld,
                                   ThreadPool* pool, T* scratch,
                                   const ExecControl* ctl,
                                   PanelLayout layout) const {
  if (k <= 0) return;
  if (ctl != nullptr && !ctl->check()) return;
  const bool ilv = layout == PanelLayout::kInterleaved;
  if (parallel_enabled(pool) && k >= 2 &&
      static_cast<offset_t>(k) * csc_.nnz() >= kHostParallelMinNnz) {
    // Column chunks run concurrently, each needing its own accumulator
    // panel — the shared scratch would race, so chunks allocate locally.
    // Each chunk polls the control per tile (check() is thread-safe).
    pool->parallel_for(0, k, [&](index_t c0, index_t c1, int) {
      if (ilv)
        syncfree_columns_many_ilv(csc_, b, x, c0, c1, ld,
                                  static_cast<T*>(nullptr), ctl);
      else
        syncfree_columns_many(csc_, b, x, c0, c1, ld,
                              static_cast<T*>(nullptr), ctl);
    });
    return;
  }
  if (ilv)
    syncfree_columns_many_ilv(csc_, b, x, 0, k, ld, scratch, ctl);
  else
    syncfree_columns_many(csc_, b, x, 0, k, ld, scratch, ctl);
}

template <class T>
void SyncFreeSolver<T>::solve(const T* b, T* x, const TrsvSim* s,
                              ThreadPool* pool, T* scratch,
                              const ExecControl* ctl) const {
  const index_t n = csc_.ncols;
  const int elem = static_cast<int>(sizeof(T));
  const bool simulate = s != nullptr && s->active();

  if (!simulate && parallel_enabled(pool) && n >= 2 * pool->size()) {
    if (ctl != nullptr) {
      if (!ctl->check()) return;
      // The trip (spin timeout, deadline, cancel) is the caller's to
      // observe; x is partial after one.
      syncfree_parallel(csc_, b, x, in_degree_, pool, ctl);
      return;
    }
    // Direct kernel call with no status channel: bound the spin with a local
    // control and self-heal on a trip by falling through to the serial path
    // below, which never consults the in-degree counters — a corrupted
    // counter costs the spin budget once, not a livelock.
    const ExecControl local;
    syncfree_parallel(csc_, b, x, in_degree_, pool, &local);
    if (!local.tripped()) return;
  }

  if (ctl != nullptr && !ctl->check()) return;

  // Host execution, faithful to Algorithm 3's data flow: a left_sum
  // accumulator per component, updated column by column. Processing
  // components in ascending order is a valid linearisation of the
  // dependency partial order (the matrix is lower triangular).
  std::vector<T> left_local;
  T* left_sum = scratch;
  if (left_sum == nullptr) {
    left_local.assign(static_cast<std::size_t>(n), T(0));
    left_sum = left_local.data();
  } else {
    std::fill(left_sum, left_sum + n, T(0));
  }

  std::optional<sim::KernelSim> ks;
  if (simulate) ks.emplace(*s->gpu, s->cache, s->fp64);
  std::uint64_t addrs[kWarp];
  if (simulate) {
    // Reset kernel: left_sum must be zeroed and in_degree restored before
    // every solve (Alg. 3's counters are consumed by the previous run) — a
    // real extra launch the level-set methods do not pay.
    ks->begin_task();
    ks->stream_bytes(static_cast<std::int64_t>(n) * (elem + 4));
    ks->end_task();
    s->report->add_kernel_launch(ks->finish(), s->gpu->kernel_launch_ns);
  }
  // Scratch address layout: left_sum[i] then in_degree[i] per component.
  const std::uint64_t ls_base = simulate ? s->aux_base : 0;
  const std::uint64_t deg_base =
      simulate ? s->aux_base + static_cast<std::uint64_t>(n) *
                                   static_cast<std::uint64_t>(elem)
               : 0;

  for (index_t i = 0; i < n; ++i) {
    // Armed controls are polled every 8192 components — the same chunk
    // granularity the flat level-ordered kernels use.
    if (ctl != nullptr && (i & 8191) == 0 && !ctl->check()) return;
    const offset_t clo = csc_.col_ptr[static_cast<std::size_t>(i)];
    const offset_t chi = csc_.col_ptr[static_cast<std::size_t>(i) + 1];
    // Diagonal-first within the column: rows are sorted ascending and the
    // diagonal is the smallest row index in a lower triangle's column.
    BLOCKTRI_DCHECK(csc_.row_idx[static_cast<std::size_t>(clo)] == i);
    x[i] = (b[i] - left_sum[static_cast<std::size_t>(i)]) /
           csc_.val[static_cast<std::size_t>(clo)];
    for (offset_t k = clo + 1; k < chi; ++k)
      left_sum[static_cast<std::size_t>(
          csc_.row_idx[static_cast<std::size_t>(k)])] +=
          csc_.val[static_cast<std::size_t>(k)] * x[i];

    if (simulate) {
      ks->begin_task();
      // Busy-wait: at minimum one read of the in-degree counter; the real
      // waiting time is produced by the scheduler through the dependency
      // edges below (and the slot is held while waiting).
      for (offset_t k = strict_rows_.row_ptr[static_cast<std::size_t>(i)];
           k < strict_rows_.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
        ks->dep(strict_rows_.col_idx[static_cast<std::size_t>(k)]);
      ks->touch(deg_base + static_cast<std::uint64_t>(i) * 4u, 4);

      // Compute x_i: read b_i and left_sum_i, stream the diagonal value,
      // divide, write x_i.
      ks->touch(s->b_base + static_cast<std::uint64_t>(i) *
                                static_cast<std::uint64_t>(elem),
                elem);
      ks->touch(ls_base + static_cast<std::uint64_t>(i) *
                              static_cast<std::uint64_t>(elem),
                elem);
      ks->stream_bytes(static_cast<std::int64_t>(sizeof(offset_t)) + elem);
      ks->serial_ns(s->gpu->divide_ns);
      ks->touch(s->x_base + static_cast<std::uint64_t>(i) *
                                static_cast<std::uint64_t>(elem),
                elem);

      // Notify dependents: stream the column structure, one atomic add on
      // left_sum and one atomic decrement on in_degree per entry (Alg. 3
      // lines 12–15), issued by the warp's lanes in 32-wide groups.
      const offset_t col_len = chi - (clo + 1);
      ks->stream_bytes(col_len * (static_cast<std::int64_t>(sizeof(index_t)) +
                                  elem));
      ks->flops(2 * col_len + 2);
      for (offset_t k = clo + 1; k < chi; k += kWarp) {
        const int g = static_cast<int>(std::min<offset_t>(kWarp, chi - k));
        for (int l = 0; l < g; ++l)
          addrs[l] = ls_base +
                     static_cast<std::uint64_t>(
                         csc_.row_idx[static_cast<std::size_t>(k + l)]) *
                         static_cast<std::uint64_t>(elem);
        ks->atomic(addrs, g, elem);
        for (int l = 0; l < g; ++l)
          addrs[l] = deg_base +
                     static_cast<std::uint64_t>(
                         csc_.row_idx[static_cast<std::size_t>(k + l)]) *
                         4u;
        ks->atomic(addrs, g, 4);
      }
      ks->end_task();
    }
  }

  if (simulate) {
    // The whole solve is one kernel launch — the algorithm's selling point.
    s->report->add_kernel_launch(ks->finish(), s->gpu->kernel_launch_ns);
  }
}

template class SyncFreeSolver<float>;
template class SyncFreeSolver<double>;

}  // namespace blocktri
