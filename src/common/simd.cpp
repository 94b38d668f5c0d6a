#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(BLOCKTRI_HAVE_NEON)
#include <arm_neon.h>
#endif

namespace blocktri::simd {

namespace {

bool cpu_has_vector_isa() {
#if defined(BLOCKTRI_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#elif defined(BLOCKTRI_HAVE_NEON)
  return true;  // NEON is architecturally guaranteed on aarch64
#else
  return false;
#endif
}

/// Environment + hardware decision, computed once. BLOCKTRI_STRICT_SCALAR
/// (set, non-empty, not "0") forces the pre-SIMD loops; BLOCKTRI_SIMD=0 or
/// =scalar keeps the canonical order but the scalar lowering; otherwise the
/// vector lowering is used whenever the CPU supports one.
Path resolve_default_path() {
  if (const char* e = std::getenv("BLOCKTRI_STRICT_SCALAR");
      e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0)
    return Path::kStrictScalar;
  if (const char* e = std::getenv("BLOCKTRI_SIMD");
      e != nullptr && (std::strcmp(e, "0") == 0 ||
                       std::strcmp(e, "scalar") == 0 ||
                       std::strcmp(e, "off") == 0))
    return Path::kBlockedScalar;
  return cpu_has_vector_isa() ? Path::kVector : Path::kBlockedScalar;
}

// -1 = no override; otherwise the forced Path. Relaxed atomics keep the
// test/bench override TSan-clean without imposing ordering on the hot path.
std::atomic<int> g_forced{-1};

// Per-thread override, consulted before g_forced: the degradation ladder
// demotes the path for one retry attempt on one thread while concurrent
// solves on other threads keep their own (or the global) selection.
thread_local int t_forced = -1;

Path clamp_to_isa(Path p) {
  if (p == Path::kVector && !cpu_has_vector_isa()) return Path::kBlockedScalar;
  return p;
}

}  // namespace

Path active_path() {
  if (t_forced >= 0) return static_cast<Path>(t_forced);
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Path>(forced);
  static const Path def = resolve_default_path();
  return def;
}

void force_path(Path p) {
  g_forced.store(static_cast<int>(clamp_to_isa(p)), std::memory_order_relaxed);
}

void clear_forced_path() { g_forced.store(-1, std::memory_order_relaxed); }

void force_path_this_thread(Path p) {
  t_forced = static_cast<int>(clamp_to_isa(p));
}

void clear_forced_path_this_thread() { t_forced = -1; }

ScopedPathOverride::ScopedPathOverride(Path p) : prev_(t_forced) {
  force_path_this_thread(p);
}

ScopedPathOverride::~ScopedPathOverride() { t_forced = prev_; }

bool vector_isa_available() {
  static const bool avail = cpu_has_vector_isa();
  return avail;
}

const char* vector_isa_name() {
#if defined(BLOCKTRI_HAVE_AVX2)
  return vector_isa_available() ? "avx2" : "none";
#elif defined(BLOCKTRI_HAVE_NEON)
  return "neon";
#else
  return "none";
#endif
}

const char* to_string(Path p) {
  switch (p) {
    case Path::kStrictScalar: return "strict-scalar";
    case Path::kBlockedScalar: return "blocked-scalar";
    case Path::kVector: return "vector";
  }
  return "?";
}

#if defined(BLOCKTRI_HAVE_NEON)
namespace neon {

namespace {

/// Canonical 4-lane dot, double: lanes 0/1 in `a`, lanes 2/3 in `b`, reduced
/// a+b = [s0+s2, s1+s3] then lane0+lane1 — the fixed-order tree.
inline double dot4(const double* val, const index_t* col, const double* x,
                   offset_t len) {
  const offset_t nb = len & ~offset_t(3);
  float64x2_t a = vdupq_n_f64(0.0);  // lanes s0, s1
  float64x2_t b = vdupq_n_f64(0.0);  // lanes s2, s3
  for (offset_t q = 0; q < nb; q += 4) {
    const float64x2_t v01 = vld1q_f64(val + q);
    const float64x2_t v23 = vld1q_f64(val + q + 2);
    float64x2_t x01 = vdupq_n_f64(0.0), x23 = vdupq_n_f64(0.0);
    x01 = vsetq_lane_f64(x[col[q + 0]], x01, 0);
    x01 = vsetq_lane_f64(x[col[q + 1]], x01, 1);
    x23 = vsetq_lane_f64(x[col[q + 2]], x23, 0);
    x23 = vsetq_lane_f64(x[col[q + 3]], x23, 1);
    a = vaddq_f64(a, vmulq_f64(v01, x01));
    b = vaddq_f64(b, vmulq_f64(v23, x23));
  }
  const float64x2_t r = vaddq_f64(a, b);  // [s0+s2, s1+s3]
  double total = vgetq_lane_f64(r, 0) + vgetq_lane_f64(r, 1);
  for (offset_t p = nb; p < len; ++p) total += val[p] * x[col[p]];
  return total;
}

/// Canonical 4-lane dot, float: one 4-lane register, reduced
/// [s0+s2, s1+s3] then lane0+lane1.
inline float dot4(const float* val, const index_t* col, const float* x,
                  offset_t len) {
  const offset_t nb = len & ~offset_t(3);
  float32x4_t acc = vdupq_n_f32(0.0f);
  for (offset_t q = 0; q < nb; q += 4) {
    const float32x4_t v = vld1q_f32(val + q);
    float32x4_t xg = vdupq_n_f32(0.0f);
    xg = vsetq_lane_f32(x[col[q + 0]], xg, 0);
    xg = vsetq_lane_f32(x[col[q + 1]], xg, 1);
    xg = vsetq_lane_f32(x[col[q + 2]], xg, 2);
    xg = vsetq_lane_f32(x[col[q + 3]], xg, 3);
    acc = vaddq_f32(acc, vmulq_f32(v, xg));
  }
  const float32x2_t r =
      vadd_f32(vget_low_f32(acc), vget_high_f32(acc));  // [s0+s2, s1+s3]
  float total = vget_lane_f32(r, 0) + vget_lane_f32(r, 1);
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
    const T sum = len <= 4 ? dot_blocked(val + lo, col_idx + lo, x, len)
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
    const offset_t len = row_ptr[i + 1] - 1 - lo;
    const T left = len <= 4 ? dot_blocked(val + lo, col_idx + lo, x, len)
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

}  // namespace neon
#endif  // BLOCKTRI_HAVE_NEON

}  // namespace blocktri::simd
