#include "spmv/kernels.hpp"

#include "common/simd.hpp"

namespace blocktri {

namespace {

/// y[row] -= Σ val·x[col] over the listed rows (row_ids == nullptr: row r
/// is row r). With a pool, the rows are split into contiguous chunks
/// balanced by nonzero count; each row writes only its own y entry, so the
/// result is bitwise identical at any thread count.
template <class T>
void host_update(const std::vector<offset_t>& row_ptr,
                 const std::vector<index_t>& col_idx, const std::vector<T>& val,
                 const index_t* row_ids, index_t nrows_listed, const T* x,
                 T* y, ThreadPool* pool) {
  auto run_range = [&](index_t r0, index_t r1) {
    simd::spmv_update_rows(row_ptr.data(), col_idx.data(), val.data(), row_ids,
                           r0, r1, x, y);
  };
  const offset_t nnz = row_ptr[static_cast<std::size_t>(nrows_listed)];
  if (parallel_enabled(pool) && nnz >= kHostParallelMinNnz &&
      nrows_listed >= 2) {
    const std::vector<index_t> bounds =
        balanced_row_partition(row_ptr, nrows_listed, pool->size());
    pool->run_partition(bounds,
                        [&](index_t r0, index_t r1, int) { run_range(r0, r1); });
  } else {
    run_range(0, nrows_listed);
  }
}

/// Batched host_update: y[row·ldy + c] -= Σ val·x[col·ldx + c] for every
/// panel column c. Rows are partitioned exactly like host_update and each
/// row owns its y entries in every column, so the result is bitwise
/// identical at any thread count; per column the accumulation order equals
/// the single-RHS body's.
template <class T>
void host_update_many(const std::vector<offset_t>& row_ptr,
                      const std::vector<index_t>& col_idx,
                      const std::vector<T>& val, const index_t* row_ids,
                      index_t nrows_listed, const T* x, T* y, index_t k,
                      index_t ldx, index_t ldy, ThreadPool* pool) {
  if (k <= 0 || nrows_listed <= 0) return;
  auto run_range = [&](index_t r0, index_t r1) {
    simd::spmv_update_rows_many(row_ptr.data(), col_idx.data(), val.data(),
                                row_ids, r0, r1, x, y, 0, k, ldx, ldy);
  };
  const offset_t nnz = row_ptr[static_cast<std::size_t>(nrows_listed)];
  if (parallel_enabled(pool) && nnz * k >= kHostParallelMinNnz &&
      nrows_listed >= 2) {
    const std::vector<index_t> bounds =
        balanced_row_partition(row_ptr, nrows_listed, pool->size());
    pool->run_partition(bounds,
                        [&](index_t r0, index_t r1, int) { run_range(r0, r1); });
  } else {
    run_range(0, nrows_listed);
  }
}

}  // namespace

template <class T>
void spmv_update(const Csr<T>& a, const T* x, T* y, ThreadPool* pool) {
  host_update(a.row_ptr, a.col_idx, a.val, nullptr, a.nrows, x, y, pool);
}

template <class T>
void spmv_update(const Dcsr<T>& a, const T* x, T* y, ThreadPool* pool) {
  host_update(a.row_ptr, a.col_idx, a.val, a.row_ids.data(), a.nnz_rows(), x,
              y, pool);
}

template <class T>
void spmv_update_many(const Csr<T>& a, const T* x, T* y, index_t k,
                      index_t ldx, index_t ldy, ThreadPool* pool) {
  host_update_many(a.row_ptr, a.col_idx, a.val, nullptr, a.nrows, x, y, k,
                   ldx, ldy, pool);
}

template <class T>
void spmv_update_many(const Dcsr<T>& a, const T* x, T* y, index_t k,
                      index_t ldx, index_t ldy, ThreadPool* pool) {
  host_update_many(a.row_ptr, a.col_idx, a.val, a.row_ids.data(),
                   a.nnz_rows(), x, y, k, ldx, ldy, pool);
}

template <class T>
std::vector<T> spmv_apply(const Csr<T>& a, const std::vector<T>& x) {
  BLOCKTRI_CHECK(x.size() == static_cast<std::size_t>(a.ncols));
  std::vector<T> y(static_cast<std::size_t>(a.nrows), T(0));
  // spmv_update computes y -= A x; negate to get y = A x.
  spmv_update(a, x.data(), y.data());
  for (auto& v : y) v = -v;
  return y;
}

#define BLOCKTRI_INSTANTIATE(T)                                               \
  template void spmv_update(const Csr<T>&, const T*, T*, ThreadPool*);        \
  template void spmv_update(const Dcsr<T>&, const T*, T*, ThreadPool*);       \
  template void spmv_update_many(const Csr<T>&, const T*, T*, index_t,        \
                                 index_t, index_t, ThreadPool*);              \
  template void spmv_update_many(const Dcsr<T>&, const T*, T*, index_t,       \
                                 index_t, index_t, ThreadPool*);              \
  template std::vector<T> spmv_apply(const Csr<T>&, const std::vector<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
