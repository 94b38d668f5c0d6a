#include "spmv/kernels.hpp"

#include <algorithm>

#include "common/simd.hpp"
#include "sparse/convert.hpp"

namespace blocktri {

namespace {

// One-thread-per-row kernels walk val/col_idx at per-row strides, so
// consecutive lanes read non-adjacent addresses: each 8B access occupies a
// 32B memory sector, ~4x traffic amplification vs the coalesced streams of
// the warp-per-row kernels.
constexpr double kUncoalescedFactor = 4.0;

inline std::uint64_t elem_addr(std::uint64_t base, index_t i, int elem) {
  return base + static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(elem);
}

/// Cost model shared by the scalar kernels: one thread per (listed) row, a
/// warp handles 32 consecutive rows and runs for the longest row in the
/// group (branch divergence). Iteration k gathers the k-th nonzero's x entry
/// for every lane that still has work.
template <class T>
void account_scalar(sim::KernelSim& ks, const std::vector<offset_t>& row_ptr,
                    const std::vector<index_t>& col_idx, std::size_t nrows_listed,
                    std::uint64_t x_base, std::uint64_t y_base,
                    const index_t* row_ids, std::int64_t ptr_entry_bytes) {
  const int elem = static_cast<int>(sizeof(T));
  std::uint64_t addrs[kWarp];
  for (std::size_t g = 0; g < nrows_listed; g += kWarp) {
    const std::size_t lanes = std::min<std::size_t>(kWarp, nrows_listed - g);
    ks.begin_task();
    offset_t max_len = 0;
    std::int64_t group_nnz = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const offset_t len = row_ptr[g + l + 1] - row_ptr[g + l];
      max_len = std::max(max_len, len);
      group_nnz += len;
    }
    // Streamed structure traffic: pointers (+ row ids for DCSR), indices and
    // values of the group's nonzeros — uncoalesced in a scalar kernel.
    ks.stream_bytes(static_cast<std::int64_t>(lanes) * ptr_entry_bytes +
                    static_cast<std::int64_t>(
                        kUncoalescedFactor *
                        static_cast<double>(group_nnz) *
                        (sizeof(index_t) + elem)));
    for (offset_t it = 0; it < max_len; ++it) {
      int n = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        const offset_t k = row_ptr[g + l] + it;
        if (k < row_ptr[g + l + 1]) {
          addrs[n++] = elem_addr(x_base, col_idx[static_cast<std::size_t>(k)],
                                 elem);
        }
      }
      ks.gather(addrs, n, elem);
    }
    ks.flops(2 * group_nnz);
    // Read-modify-write of the y entries (contiguous rows for CSR, scattered
    // for DCSR — the row_ids indirection makes them potentially sparse).
    int n = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const index_t row = row_ids == nullptr
                              ? static_cast<index_t>(g + l)
                              : row_ids[g + l];
      addrs[n++] = elem_addr(y_base, row, elem);
    }
    ks.gather(addrs, n, elem);
    ks.end_task();
  }
}

/// Host execution shared by all four kernels: y[row] -= Σ val·x[col] over
/// the listed rows. With a pool, the rows are split into contiguous chunks
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

/// Batched host execution shared by all four *_many kernels:
/// y[row·ldy + c] -= Σ val·x[col·ldx + c] for every panel column c. Rows are
/// partitioned exactly like host_update (nnz-balanced contiguous chunks) and
/// each row owns its y entries in every column, so the result is bitwise
/// identical at any thread count; per column the accumulation order equals
/// the single-RHS kernel's.
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

/// Cost model shared by the vector kernels: one warp per (listed) row,
/// gathering x in 32-lane groups and reducing with warp shuffles.
template <class T>
void account_vector(sim::KernelSim& ks, const std::vector<offset_t>& row_ptr,
                    const std::vector<index_t>& col_idx,
                    std::size_t nrows_listed, std::uint64_t x_base,
                    std::uint64_t y_base, const index_t* row_ids,
                    std::int64_t ptr_entry_bytes) {
  const double shuffle_reduce_ns = ks.gpu().shuffle_reduce_ns;
  const int elem = static_cast<int>(sizeof(T));
  std::uint64_t addrs[kWarp];
  for (std::size_t r = 0; r < nrows_listed; ++r) {
    const offset_t lo = row_ptr[r];
    const offset_t hi = row_ptr[r + 1];
    ks.begin_task();
    ks.stream_bytes(ptr_entry_bytes +
                    (hi - lo) * (static_cast<std::int64_t>(sizeof(index_t)) +
                                 elem));
    for (offset_t k = lo; k < hi; k += kWarp) {
      const int n = static_cast<int>(std::min<offset_t>(kWarp, hi - k));
      for (int l = 0; l < n; ++l)
        addrs[l] = elem_addr(x_base,
                             col_idx[static_cast<std::size_t>(k + l)], elem);
      ks.gather(addrs, n, elem);
    }
    ks.flops(2 * (hi - lo));
    ks.serial_ns(shuffle_reduce_ns);  // 5-step warp shuffle reduction
    const index_t row =
        row_ids == nullptr ? static_cast<index_t>(r) : row_ids[r];
    ks.touch(elem_addr(y_base, row, elem), elem);
    ks.end_task();
  }
}

}  // namespace

std::string to_string(SpmvKernelKind k) {
  switch (k) {
    case SpmvKernelKind::kScalarCsr: return "scalar-CSR";
    case SpmvKernelKind::kVectorCsr: return "vector-CSR";
    case SpmvKernelKind::kScalarDcsr: return "scalar-DCSR";
    case SpmvKernelKind::kVectorDcsr: return "vector-DCSR";
  }
  return "?";
}

template <class T>
void spmv_scalar_csr(const Csr<T>& a, const T* x, T* y, const SpmvSim* s,
                     ThreadPool* pool) {
  host_update(a.row_ptr, a.col_idx, a.val, nullptr, a.nrows, x, y, pool);
  if (s != nullptr && s->ks != nullptr) {
    account_scalar<T>(*s->ks, a.row_ptr, a.col_idx,
                      static_cast<std::size_t>(a.nrows), s->x_base, s->y_base,
                      nullptr, sizeof(offset_t));
  }
}

template <class T>
void spmv_vector_csr(const Csr<T>& a, const T* x, T* y, const SpmvSim* s,
                     ThreadPool* pool) {
  host_update(a.row_ptr, a.col_idx, a.val, nullptr, a.nrows, x, y, pool);
  if (s != nullptr && s->ks != nullptr) {
    account_vector<T>(*s->ks, a.row_ptr, a.col_idx,
                      static_cast<std::size_t>(a.nrows), s->x_base, s->y_base,
                      nullptr, sizeof(offset_t));
  }
}

template <class T>
void spmv_scalar_dcsr(const Dcsr<T>& a, const T* x, T* y, const SpmvSim* s,
                      ThreadPool* pool) {
  host_update(a.row_ptr, a.col_idx, a.val, a.row_ids.data(), a.nnz_rows(), x,
              y, pool);
  if (s != nullptr && s->ks != nullptr) {
    account_scalar<T>(*s->ks, a.row_ptr, a.col_idx, a.row_ids.size(),
                      s->x_base, s->y_base, a.row_ids.data(),
                      sizeof(offset_t) + sizeof(index_t));
  }
}

template <class T>
void spmv_vector_dcsr(const Dcsr<T>& a, const T* x, T* y, const SpmvSim* s,
                      ThreadPool* pool) {
  host_update(a.row_ptr, a.col_idx, a.val, a.row_ids.data(), a.nnz_rows(), x,
              y, pool);
  if (s != nullptr && s->ks != nullptr) {
    account_vector<T>(*s->ks, a.row_ptr, a.col_idx, a.row_ids.size(),
                      s->x_base, s->y_base, a.row_ids.data(),
                      sizeof(offset_t) + sizeof(index_t));
  }
}

template <class T>
void spmv_update(SpmvKernelKind kind, const Csr<T>& a, const T* x, T* y,
                 const SpmvSim* s, ThreadPool* pool) {
  switch (kind) {
    case SpmvKernelKind::kScalarCsr:
      spmv_scalar_csr(a, x, y, s, pool);
      return;
    case SpmvKernelKind::kVectorCsr:
      spmv_vector_csr(a, x, y, s, pool);
      return;
    case SpmvKernelKind::kScalarDcsr: {
      const Dcsr<T> d = csr_to_dcsr(a);
      spmv_scalar_dcsr(d, x, y, s, pool);
      return;
    }
    case SpmvKernelKind::kVectorDcsr: {
      const Dcsr<T> d = csr_to_dcsr(a);
      spmv_vector_dcsr(d, x, y, s, pool);
      return;
    }
  }
  BLOCKTRI_CHECK_MSG(false, "unknown SpMV kernel kind");
}

template <class T>
void spmv_scalar_csr_many(const Csr<T>& a, const T* x, T* y, index_t k,
                          index_t ldx, index_t ldy, ThreadPool* pool) {
  host_update_many(a.row_ptr, a.col_idx, a.val, nullptr, a.nrows, x, y, k,
                   ldx, ldy, pool);
}

template <class T>
void spmv_vector_csr_many(const Csr<T>& a, const T* x, T* y, index_t k,
                          index_t ldx, index_t ldy, ThreadPool* pool) {
  host_update_many(a.row_ptr, a.col_idx, a.val, nullptr, a.nrows, x, y, k,
                   ldx, ldy, pool);
}

template <class T>
void spmv_scalar_dcsr_many(const Dcsr<T>& a, const T* x, T* y, index_t k,
                           index_t ldx, index_t ldy, ThreadPool* pool) {
  host_update_many(a.row_ptr, a.col_idx, a.val, a.row_ids.data(),
                   a.nnz_rows(), x, y, k, ldx, ldy, pool);
}

template <class T>
void spmv_vector_dcsr_many(const Dcsr<T>& a, const T* x, T* y, index_t k,
                           index_t ldx, index_t ldy, ThreadPool* pool) {
  host_update_many(a.row_ptr, a.col_idx, a.val, a.row_ids.data(),
                   a.nnz_rows(), x, y, k, ldx, ldy, pool);
}

template <class T>
std::vector<T> spmv_apply(const Csr<T>& a, const std::vector<T>& x) {
  BLOCKTRI_CHECK(x.size() == static_cast<std::size_t>(a.ncols));
  std::vector<T> y(static_cast<std::size_t>(a.nrows), T(0));
  // spmv kernels compute y -= A x; negate to get y = A x.
  spmv_scalar_csr(a, x.data(), y.data(), nullptr);
  for (auto& v : y) v = -v;
  return y;
}

#define BLOCKTRI_INSTANTIATE(T)                                               \
  template void spmv_scalar_csr(const Csr<T>&, const T*, T*, const SpmvSim*,  \
                                ThreadPool*);                                 \
  template void spmv_vector_csr(const Csr<T>&, const T*, T*, const SpmvSim*,  \
                                ThreadPool*);                                 \
  template void spmv_scalar_dcsr(const Dcsr<T>&, const T*, T*,                \
                                 const SpmvSim*, ThreadPool*);                \
  template void spmv_vector_dcsr(const Dcsr<T>&, const T*, T*,                \
                                 const SpmvSim*, ThreadPool*);                \
  template void spmv_update(SpmvKernelKind, const Csr<T>&, const T*, T*,      \
                            const SpmvSim*, ThreadPool*);                     \
  template void spmv_scalar_csr_many(const Csr<T>&, const T*, T*, index_t,    \
                                     index_t, index_t, ThreadPool*);          \
  template void spmv_vector_csr_many(const Csr<T>&, const T*, T*, index_t,    \
                                     index_t, index_t, ThreadPool*);          \
  template void spmv_scalar_dcsr_many(const Dcsr<T>&, const T*, T*, index_t,  \
                                      index_t, index_t, ThreadPool*);         \
  template void spmv_vector_dcsr_many(const Dcsr<T>&, const T*, T*, index_t,  \
                                      index_t, index_t, ThreadPool*);         \
  template std::vector<T> spmv_apply(const Csr<T>&, const std::vector<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
