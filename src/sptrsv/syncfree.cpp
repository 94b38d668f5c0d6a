#include "sptrsv/syncfree.hpp"

#include <algorithm>

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
void SyncFreeSolver<T>::solve(const T* b, T* x, const ExecControl* ctl) const {
  const index_t n = a_.nrows;
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
