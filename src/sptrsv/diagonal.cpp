#include "sptrsv/diagonal.hpp"

#include "common/simd.hpp"

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
void DiagonalSolver<T>::solve(const T* b, T* x, ThreadPool* pool,
                              const ExecControl* ctl) const {
  if (ctl != nullptr && !ctl->check()) return;
  const index_t count = n();
  if (parallel_enabled(pool) && count >= kHostParallelMinNnz) {
    pool->parallel_for(0, count, [&](index_t r0, index_t r1, int) {
      simd::div_rows(b + r0, diag_.data() + r0, x + r0, r1 - r0);
    });
    return;
  }
  simd::div_rows(b, diag_.data(), x, count);
}

template class DiagonalSolver<float>;
template class DiagonalSolver<double>;

}  // namespace blocktri
