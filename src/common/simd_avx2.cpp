// AVX2 lowering of the canonical 4-lane blocked kernels (see simd.hpp for
// the operation-order contract). This TU is the only one compiled with
// -mavx2; callers reach it through the runtime dispatch in simd.hpp, which
// checks __builtin_cpu_supports("avx2") before selecting Path::kVector.
//
// Determinism notes:
//   * multiplies and adds are separate intrinsics — never FMA — so each
//     operation rounds exactly like the blocked-scalar lowering's;
//   * the ymm lanes hold the canonical partials s0..s3 and the reduction is
//     (low128 + high128) then (lane0 + lane1) = (s0+s2) + (s1+s3), the
//     fixed-order tree;
//   * rows shorter than the 4-lane block (and every tail) run the same
//     scalar code as dot_blocked, so short rows are bitwise-unchanged.
#include "common/simd.hpp"

#if defined(BLOCKTRI_HAVE_AVX2)

#include <immintrin.h>

// GCC's unmasked gather intrinsics expand through _mm256_undefined_pd(),
// which -Wmaybe-uninitialized flags (GCC PR 105593). The source lanes are
// fully overwritten by the all-ones mask, so the warning is a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace blocktri::simd::avx2 {

namespace {

// Rows shorter than this run the scalar canonical code instead: a gather
// costs several cycles of throughput, so it only pays off once a row has a
// few 4-lane blocks to amortise the vector setup. Any threshold is
// bitwise-safe — both sides compute the canonical order.
constexpr offset_t kMinVectorRowLen = 8;

inline double reduce4(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // [s0, s1]
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // [s2, s3]
  const __m128d r = _mm_add_pd(lo, hi);               // [s0+s2, s1+s3]
  return _mm_cvtsd_f64(r) + _mm_cvtsd_f64(_mm_unpackhi_pd(r, r));
}

inline float reduce4(__m128 acc) {
  const __m128 hi = _mm_movehl_ps(acc, acc);          // [s2, s3, ...]
  const __m128 r = _mm_add_ps(acc, hi);               // [s0+s2, s1+s3, ...]
  return _mm_cvtss_f32(r) +
         _mm_cvtss_f32(_mm_shuffle_ps(r, r, _MM_SHUFFLE(1, 1, 1, 1)));
}

/// True when the row's column run is one consecutive range. Columns are
/// sorted and duplicate-free (formats.hpp), so comparing the endpoints is
/// enough. A consecutive run lets plain vector loads replace gathers —
/// the same values land in the same lanes, bitwise-unchanged and several
/// cycles cheaper per block. Tested once per row (not per 4-block): dense
/// and supernodal rows take the load loop throughout, scattered rows the
/// gather loop, and the branch stays perfectly predictable either way.
inline bool contiguous_row(const index_t* col, offset_t len) {
  return col[len - 1] - col[0] == static_cast<index_t>(len - 1);
}

inline double dot4(const double* val, const index_t* col, const double* x,
                   offset_t len) {
  const offset_t nb = len & ~offset_t(3);
  __m256d acc = _mm256_setzero_pd();
  if (contiguous_row(col, len)) {
    const double* xr = x + col[0];
    for (offset_t q = 0; q < nb; q += 4)
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_loadu_pd(val + q), _mm256_loadu_pd(xr + q)));
  } else {
    for (offset_t q = 0; q < nb; q += 4) {
      const __m256d v = _mm256_loadu_pd(val + q);
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + q));
      const __m256d xg = _mm256_i32gather_pd(x, idx, sizeof(double));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(v, xg));
    }
  }
  double total = reduce4(acc);
  for (offset_t p = nb; p < len; ++p) total += val[p] * x[col[p]];
  return total;
}

inline float dot4(const float* val, const index_t* col, const float* x,
                  offset_t len) {
  const offset_t nb = len & ~offset_t(3);
  __m128 acc = _mm_setzero_ps();
  if (contiguous_row(col, len)) {
    const float* xr = x + col[0];
    for (offset_t q = 0; q < nb; q += 4)
      acc = _mm_add_ps(acc,
                       _mm_mul_ps(_mm_loadu_ps(val + q), _mm_loadu_ps(xr + q)));
  } else {
    for (offset_t q = 0; q < nb; q += 4) {
      const __m128 v = _mm_loadu_ps(val + q);
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + q));
      const __m128 xg = _mm_i32gather_ps(x, idx, sizeof(float));
      acc = _mm_add_ps(acc, _mm_mul_ps(v, xg));
    }
  }
  float total = reduce4(acc);
  for (offset_t p = nb; p < len; ++p) total += val[p] * x[col[p]];
  return total;
}

template <class T>
void spmv_update_rows_impl(const offset_t* row_ptr, const index_t* col_idx,
                           const T* val, const index_t* row_ids, index_t r0,
                           index_t r1, const T* x, T* y) {
  for (index_t r = r0; r < r1; ++r) {
    const offset_t lo = row_ptr[r];
    const offset_t len = row_ptr[r + 1] - lo;
    // Short rows skip the vector setup entirely — dot_blocked computes the
    // identical canonical chains in scalar code.
    const T sum = len < kMinVectorRowLen
                      ? dot_blocked(val + lo, col_idx + lo, x, len)
                      : dot4(val + lo, col_idx + lo, x, len);
    y[row_ids == nullptr ? r : row_ids[r]] -= sum;
  }
}

template <class T>
void sptrsv_rows_impl(const offset_t* row_ptr, const index_t* col_idx,
                      const T* val, const index_t* items, offset_t p0,
                      offset_t p1, const T* b, T* x) {
  for (offset_t p = p0; p < p1; ++p) {
    const index_t i = items == nullptr ? static_cast<index_t>(p)
                                       : items[static_cast<std::size_t>(p)];
    const offset_t lo = row_ptr[i];
    const offset_t len = row_ptr[i + 1] - 1 - lo;  // excluding the diagonal
    const T left = len < kMinVectorRowLen
                       ? dot_blocked(val + lo, col_idx + lo, x, len)
                       : dot4(val + lo, col_idx + lo, x, len);
    x[i] = (b[i] - left) / val[lo + len];
  }
}

}  // namespace

void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const double* val, const index_t* row_ids, index_t r0,
                      index_t r1, const double* x, double* y) {
  spmv_update_rows_impl(row_ptr, col_idx, val, row_ids, r0, r1, x, y);
}
void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const float* val, const index_t* row_ids, index_t r0,
                      index_t r1, const float* x, float* y) {
  spmv_update_rows_impl(row_ptr, col_idx, val, row_ids, r0, r1, x, y);
}

void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const double* val, const index_t* items, offset_t p0,
                 offset_t p1, const double* b, double* x) {
  sptrsv_rows_impl(row_ptr, col_idx, val, items, p0, p1, b, x);
}
void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const float* val, const index_t* items, offset_t p0,
                 offset_t p1, const float* b, float* x) {
  sptrsv_rows_impl(row_ptr, col_idx, val, items, p0, p1, b, x);
}

void div_rows(const double* b, const double* d, double* x, index_t n) {
  const index_t nb = n & ~index_t(3);
  for (index_t i = 0; i < nb; i += 4)
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(b + i),
                                          _mm256_loadu_pd(d + i)));
  for (index_t i = nb; i < n; ++i) x[i] = b[i] / d[i];
}

void div_rows(const float* b, const float* d, float* x, index_t n) {
  const index_t nb = n & ~index_t(7);
  for (index_t i = 0; i < nb; i += 8)
    _mm256_storeu_ps(x + i, _mm256_div_ps(_mm256_loadu_ps(b + i),
                                          _mm256_loadu_ps(d + i)));
  for (index_t i = nb; i < n; ++i) x[i] = b[i] / d[i];
}

}  // namespace blocktri::simd::avx2

#endif  // BLOCKTRI_HAVE_AVX2
