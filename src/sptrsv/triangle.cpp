#include "sptrsv/triangle.hpp"

#include <algorithm>

#include "common/simd.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {

namespace {

/// Rows per poll of the control in the flat pass: the check vanishes in a
/// chunk's traffic, yet a deadline fires promptly on huge blocks.
constexpr index_t kPollRows = 8192;

bool holds_levels(TriKernelKind kind) {
  return kind == TriKernelKind::kLevelSet ||
         kind == TriKernelKind::kCusparseLike;
}

}  // namespace

template <class T>
TriSolver<T>::TriSolver(TriKernelKind kind, Csr<T> lower, ThreadPool* pool,
                        offset_t merge_width)
    : kind_(kind), a_(std::move(lower)) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(a_),
                     "TriSolver requires a nonsingular lower triangle");
  if (holds_levels(kind_))
    ls_ = compute_level_sets(a_.nrows, a_.row_ptr, a_.col_idx, pool);
  compute_groups(merge_width);
}

template <class T>
TriSolver<T>::TriSolver(TriKernelKind kind, Csr<T> rows, LevelSets levels,
                        offset_t merge_width)
    : kind_(kind), a_(std::move(rows)), ls_(std::move(levels)) {
  const auto n = static_cast<std::size_t>(a_.nrows);
  const auto nl = static_cast<std::size_t>(ls_.nlevels);
  BLOCKTRI_CHECK_MSG(
      a_.nrows == a_.ncols && a_.row_ptr.size() == n + 1 &&
          (holds_levels(kind_) ? ls_.level_of.size() == n &&
                                     ls_.level_item.size() == n &&
                                     ls_.level_ptr.size() == nl + 1
                               : nl == 0),
      "TriSolver: adopted rows or levels do not form a square triangle");
  compute_groups(merge_width);
}

template <class T>
void TriSolver<T>::compute_groups(offset_t merge_width) {
  if (kind_ != TriKernelKind::kLevelSet) return;
  group_lvl_.assign(1, 0);
  bool open_run = false;  // the last group is a run of mergeable levels
  for (index_t lvl = 0; lvl < ls_.nlevels; ++lvl) {
    const bool mergeable = ls_.level_width(lvl) <= merge_width;
    if (mergeable && open_run)
      group_lvl_.back() = lvl + 1;  // extend the open run
    else
      group_lvl_.push_back(lvl + 1);
    open_run = mergeable;
  }
}

template <class T>
void TriSolver<T>::run_rows(const T* b, T* x, const index_t* items,
                            offset_t p0, offset_t p1, index_t c0, index_t c1,
                            index_t ld, bool strict) const {
  const offset_t* rp = a_.row_ptr.data();
  const index_t* ci = a_.col_idx.data();
  const T* av = a_.val.data();
  if (ld == 1 && strict)
    simd::detail::sptrsv_rows_strict(rp, ci, av, items, p0, p1, b, x);
  else if (ld == 1)
    simd::sptrsv_rows(rp, ci, av, items, p0, p1, b, x);
  else if (strict)
    simd::detail::sptrsv_rows_many_strict(rp, ci, av, items, p0, p1, b, x,
                                          c0, c1, ld);
  else
    simd::sptrsv_rows_many(rp, ci, av, items, p0, p1, b, x, c0, c1, ld);
}

template <class T>
void TriSolver<T>::flat(const T* b, T* x, index_t c0, index_t c1, index_t ld,
                        bool strict, const ExecControl* ctl) const {
  const index_t n = a_.nrows;
  // With no strict entry every row is its pivot: x_i = b_i / d_i, the bits
  // of (b_i − 0) / d_i in either order.
  const bool divide = a_.nnz() == n;
  const auto lu = static_cast<std::size_t>(ld);
  for (index_t r0 = 0; r0 < n; r0 += kPollRows) {
    if (ctl != nullptr && r0 > 0 && !ctl->check()) return;
    const index_t r1 = std::min(n, r0 + kPollRows);
    if (!divide) {
      run_rows(b, x, nullptr, r0, r1, c0, c1, ld, strict);
    } else if (ld == 1) {
      simd::div_rows(b + r0, a_.val.data() + r0, x + r0, r1 - r0);
    } else {
      for (index_t i = r0; i < r1; ++i) {
        const std::size_t at = static_cast<std::size_t>(i) * lu;
        const T d = a_.val[static_cast<std::size_t>(i)];
        for (index_t c = c0; c < c1; ++c) x[at + c] = b[at + c] / d;
      }
    }
  }
}

template <class T>
void TriSolver<T>::solve(const T* b, T* x, index_t k, index_t ld,
                         ThreadPool* pool, const ExecControl* ctl) const {
  if (k <= 0) return;
  const bool parallel = parallel_enabled(pool);
  if (!parallel || group_lvl_.empty()) {
    if (ctl != nullptr && !ctl->check()) return;
    const bool strict = kind_ == TriKernelKind::kSyncFree;
    // Threads split the panel's columns by whole cache lines: a row's
    // columns sit side by side, and other threads write the x rows it reads.
    const auto width = static_cast<index_t>(64 / sizeof(T));
    const index_t lines = (k + width - 1) / width;
    if (parallel && lines >= 2 &&
        static_cast<offset_t>(k) * a_.nnz() >= kHostParallelMinNnz)
      pool->parallel_for(0, lines, [&](index_t g0, index_t g1, int) {
        flat(b, x, g0 * width, std::min(k, g1 * width), ld, strict, ctl);
      });
    else
      flat(b, x, 0, k, ld, strict, ctl);
    return;
  }
  // The level schedule: a level's rows write distinct x entries and read x
  // only from earlier levels, and a merged group's items are in level order,
  // so every partition below is race-free and deterministic.
  const index_t* items = ls_.level_item.data();
  for (std::size_t g = 0; g + 1 < group_lvl_.size(); ++g) {
    // The poll sits between the barriers Alg. 2 already pays for.
    if (ctl != nullptr && !ctl->check()) return;
    const index_t l0 = group_lvl_[g];
    const index_t l1 = group_lvl_[g + 1];
    const offset_t lo = ls_.level_ptr[static_cast<std::size_t>(l0)];
    const offset_t hi = ls_.level_ptr[static_cast<std::size_t>(l1)];
    if (l1 - l0 == 1 && hi - lo >= 2 * pool->size()) {
      // A wide level's rows; parallel_for's return is its barrier.
      pool->parallel_for(static_cast<index_t>(lo), static_cast<index_t>(hi),
                         [&](index_t p0, index_t p1, int) {
                           run_rows(b, x, items, p0, p1, 0, k, ld, false);
                         });
    } else if (k >= 2 * pool->size()) {
      // A narrow or merged group's columns, each chunk in level order.
      pool->parallel_for(0, k, [&](index_t c0, index_t c1, int) {
        run_rows(b, x, items, lo, hi, c0, c1, ld, false);
      });
    } else {
      run_rows(b, x, items, lo, hi, 0, k, ld, false);
    }
  }
}

template <class T>
void TriSolver<T>::solve_canonical(const T* b, T* x) const {
  flat(b, x, 0, 1, 1, false, nullptr);
}

template class TriSolver<float>;
template class TriSolver<double>;

}  // namespace blocktri
