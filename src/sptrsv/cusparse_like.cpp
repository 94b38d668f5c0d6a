#include "sptrsv/cusparse_like.hpp"

#include <algorithm>

#include "common/simd.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {

namespace {
// Items per deadline poll when a control is armed: large enough that the
// check disappears against the memory traffic of a chunk, small enough that
// a deadline fires promptly even on huge flat blocks.
constexpr offset_t kCtlChunkItems = 8192;
}  // namespace

template <class T>
CusparseLikeSolver<T>::CusparseLikeSolver(Csr<T> lower) : a_(std::move(lower)) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(a_),
                     "CusparseLikeSolver requires a nonsingular lower triangle");
  ls_ = compute_level_sets(a_);
}

template <class T>
CusparseLikeSolver<T>::CusparseLikeSolver(Csr<T> lower, LevelSets levels)
    : a_(std::move(lower)), ls_(std::move(levels)) {
  BLOCKTRI_CHECK_MSG(
      ls_.level_of.size() == static_cast<std::size_t>(a_.nrows) &&
          ls_.level_item.size() == static_cast<std::size_t>(a_.nrows) &&
          ls_.level_ptr.size() == static_cast<std::size_t>(ls_.nlevels) + 1,
      "CusparseLikeSolver: adopted levels do not match the matrix");
}

template <class T>
void CusparseLikeSolver<T>::solve_many(const T* b, T* x, index_t k, index_t ld,
                                       const ExecControl* ctl) const {
  if (k <= 0) return;
  const auto rows_many = [&](offset_t p0, offset_t p1) {
    simd::sptrsv_rows_many(a_.row_ptr.data(), a_.col_idx.data(),
                           a_.val.data(), ls_.level_item.data(), p0, p1, b, x,
                           0, k, ld);
  };
  // One flat pass over the level-ordered item list — in-order processing
  // satisfies every dependency, and the barriers only matter to the GPU
  // model, not to host execution. With an armed control the pass is chunked
  // (identical item order, so identical results) to create poll points.
  const offset_t end = ls_.level_ptr[static_cast<std::size_t>(ls_.nlevels)];
  if (ctl != nullptr && ctl->armed()) {
    for (offset_t p = 0; p < end; p += kCtlChunkItems) {
      if (!ctl->check()) return;
      rows_many(p, std::min<offset_t>(p + kCtlChunkItems, end));
    }
    return;
  }
  if (ctl != nullptr && !ctl->check()) return;
  rows_many(0, end);
}

template <class T>
void CusparseLikeSolver<T>::solve(const T* b, T* x,
                                  const ExecControl* ctl) const {
  // One flat in-order pass over the level-ordered items. With an armed
  // control the pass is chunked — identical item order, so identical
  // results — to create deadline/cancel poll points.
  const offset_t end = ls_.level_ptr[static_cast<std::size_t>(ls_.nlevels)];
  if (ctl != nullptr && ctl->armed()) {
    for (offset_t p = 0; p < end; p += kCtlChunkItems) {
      if (!ctl->check()) return;
      simd::sptrsv_rows(a_.row_ptr.data(), a_.col_idx.data(), a_.val.data(),
                        ls_.level_item.data(), p,
                        std::min<offset_t>(p + kCtlChunkItems, end), b, x);
    }
    return;
  }
  if (ctl != nullptr && !ctl->check()) return;
  simd::sptrsv_rows(a_.row_ptr.data(), a_.col_idx.data(), a_.val.data(),
                    ls_.level_item.data(), 0, end, b, x);
}

template class CusparseLikeSolver<float>;
template class CusparseLikeSolver<double>;

}  // namespace blocktri
