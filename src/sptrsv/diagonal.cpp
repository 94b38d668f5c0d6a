#include "sptrsv/diagonal.hpp"

#include <algorithm>
#include <optional>

#include "common/simd.hpp"
#include "sim/kernel_sim.hpp"

namespace blocktri {

template <class T>
DiagonalSolver<T>::DiagonalSolver(std::vector<T> diag)
    : diag_(std::move(diag)) {
  for (const T d : diag_)
    BLOCKTRI_CHECK_MSG(d != T(0), "DiagonalSolver: zero diagonal entry");
}

template <class T>
void DiagonalSolver<T>::solve_many(const T* b, T* x, index_t k, index_t ld,
                                   ThreadPool* pool,
                                   const ExecControl* ctl) const {
  if (ctl != nullptr && !ctl->check()) return;
  const index_t count = n();
  auto rows = [this, b, x, k, ld](index_t r0, index_t r1) {
    // One row's k panel entries are contiguous and share the divisor — the
    // same element-wise divides, in a layout the compiler vectorises.
    for (index_t i = r0; i < r1; ++i) {
      const T d = diag_[static_cast<std::size_t>(i)];
      const T* bi =
          b + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
      T* xi = x + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
      for (index_t c = 0; c < k; ++c) xi[c] = bi[c] / d;
    }
  };
  if (parallel_enabled(pool) &&
      static_cast<offset_t>(count) * k >= kHostParallelMinNnz && count >= 2) {
    pool->parallel_for(0, count,
                       [&](index_t r0, index_t r1, int) { rows(r0, r1); });
    return;
  }
  rows(0, count);
}

template <class T>
void DiagonalSolver<T>::solve(const T* b, T* x, const TrsvSim* s,
                              ThreadPool* pool,
                              const ExecControl* ctl) const {
  if (ctl != nullptr && !ctl->check()) return;
  const index_t count = n();
  const int elem = static_cast<int>(sizeof(T));
  const bool simulate = s != nullptr && s->active();

  if (!simulate && parallel_enabled(pool) && count >= kHostParallelMinNnz) {
    pool->parallel_for(0, count, [&](index_t r0, index_t r1, int) {
      simd::div_rows(b + r0, diag_.data() + r0, x + r0, r1 - r0);
    });
    return;
  }

  simd::div_rows(b, diag_.data(), x, count);

  if (!simulate) return;
  std::optional<sim::KernelSim> ks;
  ks.emplace(*s->gpu, s->cache, s->fp64);
  std::uint64_t addrs[kWarp];
  for (index_t g = 0; g < count; g += kWarp) {
    const int lanes = static_cast<int>(
        std::min<index_t>(kWarp, count - g));
    ks->begin_task();
    ks->stream_bytes(static_cast<std::int64_t>(lanes) * elem);  // diag values
    for (int l = 0; l < lanes; ++l)
      addrs[l] = s->b_base + static_cast<std::uint64_t>(g + l) *
                                 static_cast<std::uint64_t>(elem);
    ks->gather(addrs, lanes, elem);
    for (int l = 0; l < lanes; ++l)
      addrs[l] = s->x_base + static_cast<std::uint64_t>(g + l) *
                                 static_cast<std::uint64_t>(elem);
    ks->gather(addrs, lanes, elem);
    // GFlops convention as in the paper: 2 flops per nonzero (a diagonal
    // block has one nonzero per row).
    ks->flops(2 * lanes);
    ks->serial_ns(s->gpu->divide_ns);
    ks->end_task();
  }
  s->report->add_kernel_launch(ks->finish(), s->gpu->kernel_launch_ns);
}

template class DiagonalSolver<float>;
template class DiagonalSolver<double>;

}  // namespace blocktri
