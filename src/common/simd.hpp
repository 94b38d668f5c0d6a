// Portable SIMD layer for the host kernels' inner loops.
//
// Every dense reduction in the hot path (SpMV row dots, SpTRSV left-sum
// dots, their multi-RHS variants) goes through this header so one canonical
// floating-point operation order is shared by every lowering:
//
//   canonical 4-lane blocked order (for a row of length len):
//     nb = len & ~3                      // the 4-lane-blocked prefix
//     s[l] = Σ_{q<nb, q≡l (mod 4)} val[q]·x[col[q]]   for l = 0..3
//     total = (s0 + s2) + (s1 + s3)      // fixed-order tree reduction
//     total += val[p]·x[col[p]]          for p = nb..len-1, in order
//
// The AVX2 lowering (simd_avx2.cpp) holds s0..s3 in the four lanes of a ymm
// register and reduces low128+high128 then lane0+lane1 — exactly the tree
// above — using explicit mul+add intrinsics (never FMA). The blocked-scalar
// lowering below computes the same order in plain code, and the whole build
// is compiled with -ffp-contract=off so the compiler cannot contract the
// mul+add pairs into FMAs either. Identical operations in identical order
// means bitwise-identical results across ISAs; the equivalence suite
// (tests/test_simd.cpp) enforces it.
//
// Short rows (len < 4) degenerate to the pure sequential order — the blocked
// prefix is empty and the tail starts from (0+0)+(0+0) = +0.0, exactly the
// zero-initialised accumulator of the classic loop — so the strict-scalar
// path and the canonical order agree bitwise on the unit/short rows that
// dominate level-set blocks.
//
// Path selection (cached after first use):
//   BLOCKTRI_STRICT_SCALAR=1   force the pre-SIMD sequential loops
//   BLOCKTRI_SIMD=0|scalar     canonical order, scalar lowering only
//   otherwise                  vector lowering when the CPU has AVX2/NEON,
//                              blocked-scalar fallback when it does not
// force_path()/clear_forced_path() override the environment in-process —
// the equivalence tests and the simd_speedup bench flip paths at runtime.
#pragma once

#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace blocktri::simd {

enum class Path {
  kStrictScalar = 0,  // pre-SIMD sequential accumulation (escape hatch)
  kBlockedScalar = 1, // canonical blocked order, scalar instructions
  kVector = 2,        // canonical blocked order, AVX2/NEON instructions
};

/// The lowering the kernels will use, after the environment and any
/// force_path() override (cached; reading the env once).
Path active_path();

/// In-process override for tests/benches comparing paths. Forcing kVector on
/// hardware without a vector ISA clamps to kBlockedScalar (same results).
void force_path(Path p);
void clear_forced_path();

/// Thread-local override — consulted before the process-global force_path()
/// state. This is how the degradation ladder demotes one retry attempt
/// (vector → blocked → strict) without perturbing solves running
/// concurrently on other threads. Demoted attempts execute serially on the
/// calling thread, so a thread-local override covers every kernel they run.
void force_path_this_thread(Path p);
void clear_forced_path_this_thread();

/// RAII scope for the thread-local override; restores the previous
/// thread-local state (including "none") on destruction.
class ScopedPathOverride {
 public:
  explicit ScopedPathOverride(Path p);
  ~ScopedPathOverride();
  ScopedPathOverride(const ScopedPathOverride&) = delete;
  ScopedPathOverride& operator=(const ScopedPathOverride&) = delete;

 private:
  int prev_;  // -1 = no previous thread-local override
};

/// True when a vector lowering is compiled in and the CPU supports it.
bool vector_isa_available();
/// "avx2", "neon" or "none" — for bench/report labelling.
const char* vector_isa_name();

const char* to_string(Path p);

// --- AVX2 entry points (separate TU compiled with -mavx2) -------------------
#if defined(BLOCKTRI_HAVE_AVX2)
namespace avx2 {
void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const double* val, const index_t* row_ids, index_t r0,
                      index_t r1, const double* x, double* y);
void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const float* val, const index_t* row_ids, index_t r0,
                      index_t r1, const float* x, float* y);
void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const double* val, const index_t* items, offset_t p0,
                 offset_t p1, const double* b, double* x);
void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const float* val, const index_t* items, offset_t p0,
                 offset_t p1, const float* b, float* x);
void div_rows(const double* b, const double* d, double* x, index_t n);
void div_rows(const float* b, const float* d, float* x, index_t n);
}  // namespace avx2
#endif

// --- NEON entry points (aarch64 builds; plain TU, NEON is baseline) ---------
#if defined(BLOCKTRI_HAVE_NEON)
namespace neon {
void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const double* val, const index_t* row_ids, index_t r0,
                      index_t r1, const double* x, double* y);
void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const float* val, const index_t* row_ids, index_t r0,
                      index_t r1, const float* x, float* y);
void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const double* val, const index_t* items, offset_t p0,
                 offset_t p1, const double* b, double* x);
void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const float* val, const index_t* items, offset_t p0,
                 offset_t p1, const float* b, float* x);
}  // namespace neon
#endif

// --- Canonical scalar lowerings ---------------------------------------------

/// Pre-SIMD sequential dot: the BLOCKTRI_STRICT_SCALAR reference order.
template <class T>
inline T dot_strict(const T* val, const index_t* col, const T* x,
                    offset_t len) {
  T sum = T(0);
  for (offset_t p = 0; p < len; ++p)
    sum += val[p] * x[static_cast<std::size_t>(col[p])];
  return sum;
}

/// Canonical blocked order, scalar instructions. Short rows (len <= 4) are
/// unrolled; their operation chains equal both the generic blocked code and
/// the strict-scalar loop (see the header comment).
template <class T>
inline T dot_blocked(const T* val, const index_t* col, const T* x,
                     offset_t len) {
  switch (len) {
    case 0:
      return T(0);
    case 1:
      return T(0) + val[0] * x[static_cast<std::size_t>(col[0])];
    case 2:
      return (T(0) + val[0] * x[static_cast<std::size_t>(col[0])]) +
             val[1] * x[static_cast<std::size_t>(col[1])];
    case 3:
      return ((T(0) + val[0] * x[static_cast<std::size_t>(col[0])]) +
              val[1] * x[static_cast<std::size_t>(col[1])]) +
             val[2] * x[static_cast<std::size_t>(col[2])];
    case 4: {
      const T s0 = T(0) + val[0] * x[static_cast<std::size_t>(col[0])];
      const T s1 = T(0) + val[1] * x[static_cast<std::size_t>(col[1])];
      const T s2 = T(0) + val[2] * x[static_cast<std::size_t>(col[2])];
      const T s3 = T(0) + val[3] * x[static_cast<std::size_t>(col[3])];
      return (s0 + s2) + (s1 + s3);
    }
    default:
      break;
  }
  const offset_t nb = len & ~offset_t(3);
  T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
  for (offset_t q = 0; q < nb; q += 4) {
    s0 += val[q + 0] * x[static_cast<std::size_t>(col[q + 0])];
    s1 += val[q + 1] * x[static_cast<std::size_t>(col[q + 1])];
    s2 += val[q + 2] * x[static_cast<std::size_t>(col[q + 2])];
    s3 += val[q + 3] * x[static_cast<std::size_t>(col[q + 3])];
  }
  T total = (s0 + s2) + (s1 + s3);
  for (offset_t p = nb; p < len; ++p)
    total += val[p] * x[static_cast<std::size_t>(col[p])];
  return total;
}

namespace detail {

template <class T>
void spmv_update_rows_strict(const offset_t* row_ptr, const index_t* col_idx,
                             const T* val, const index_t* row_ids, index_t r0,
                             index_t r1, const T* x, T* y) {
  for (index_t r = r0; r < r1; ++r) {
    const offset_t lo = row_ptr[r];
    const T sum = dot_strict(val + lo, col_idx + lo, x, row_ptr[r + 1] - lo);
    y[row_ids == nullptr ? r : row_ids[r]] -= sum;
  }
}

template <class T>
void spmv_update_rows_blocked(const offset_t* row_ptr, const index_t* col_idx,
                              const T* val, const index_t* row_ids, index_t r0,
                              index_t r1, const T* x, T* y) {
  for (index_t r = r0; r < r1; ++r) {
    const offset_t lo = row_ptr[r];
    const T sum = dot_blocked(val + lo, col_idx + lo, x, row_ptr[r + 1] - lo);
    y[row_ids == nullptr ? r : row_ids[r]] -= sum;
  }
}

/// The triangle row bodies take `items == nullptr` as the identity order
/// (row i = p), the way the SpMV bodies take `row_ids == nullptr`.
template <class T>
void sptrsv_rows_strict(const offset_t* row_ptr, const index_t* col_idx,
                        const T* val, const index_t* items, offset_t p0,
                        offset_t p1, const T* b, T* x) {
  for (offset_t p = p0; p < p1; ++p) {
    const index_t i = items == nullptr ? static_cast<index_t>(p)
                                       : items[static_cast<std::size_t>(p)];
    const offset_t lo = row_ptr[i];
    const offset_t hi = row_ptr[i + 1];
    const T left = dot_strict(val + lo, col_idx + lo, x, hi - 1 - lo);
    x[i] = (b[i] - left) / val[hi - 1];
  }
}

template <class T>
void sptrsv_rows_blocked(const offset_t* row_ptr, const index_t* col_idx,
                         const T* val, const index_t* items, offset_t p0,
                         offset_t p1, const T* b, T* x) {
  for (offset_t p = p0; p < p1; ++p) {
    const index_t i = items == nullptr ? static_cast<index_t>(p)
                                       : items[static_cast<std::size_t>(p)];
    const offset_t lo = row_ptr[i];
    const offset_t hi = row_ptr[i + 1];
    const T left = dot_blocked(val + lo, col_idx + lo, x, hi - 1 - lo);
    x[i] = (b[i] - left) / val[hi - 1];
  }
}

// --- Multi-RHS panel lowerings ---------------------------------------------
//
// The batched kernels run over a row-interleaved panel: element (i, c) at
// base[i·ld + c], ld ≥ the panel width. A row visit then reads and writes a
// nonzero's panel entries on one or two cache lines instead of one line per
// column, and a column tile's x reads (`xc[c]`) and writes are unit-stride,
// so the tile loop vectorises. Each column keeps the canonical order of the
// single-RHS bodies above, so batched results are bitwise identical to k
// single-RHS solves at every path.

/// Calls tile(ct, std::integral_constant<int, width>{}) for the run-time
/// `width` in [1, sizeof...(W)].
template <class Tile, int... W>
inline void with_tile_width(const Tile& tile, index_t ct, index_t width,
                            std::integer_sequence<int, W...>) {
  ((width == W + 1 ? tile(ct, std::integral_constant<int, W + 1>{})
                   : void()),
   ...);
}

/// Calls tile(ct, width) for each column group of [c0, c1) — kRhsTile wide
/// but the last — with the width as a compile-time constant, so the strict
/// bodies' per-column accumulators stay in registers across a row's
/// entries.
template <class Tile>
inline void for_each_rhs_tile(index_t c0, index_t c1, const Tile& tile) {
  for (index_t ct = c0; ct < c1; ct += kRhsTile)
    with_tile_width(tile, ct, c1 - ct < kRhsTile ? c1 - ct : kRhsTile,
                    std::make_integer_sequence<int, kRhsTile>{});
}

template <class T>
void spmv_update_rows_many_strict(const offset_t* row_ptr,
                                      const index_t* col_idx, const T* val,
                                      const index_t* row_ids, index_t r0,
                                      index_t r1, const T* x, T* y, index_t c0,
                                      index_t c1, index_t ldx, index_t ldy) {
  for (index_t r = r0; r < r1; ++r) {
    const offset_t lo = row_ptr[r];
    const offset_t hi = row_ptr[r + 1];
    T* yr = y + static_cast<std::size_t>(row_ids == nullptr ? r : row_ids[r]) *
                    static_cast<std::size_t>(ldy);
    for (index_t ct = c0; ct < c1; ct += kRhsTile) {
      const int nt = static_cast<int>(ct + kRhsTile <= c1 ? kRhsTile
                                                          : c1 - ct);
      T acc[kRhsTile] = {};
      for (offset_t p = lo; p < hi; ++p) {
        const T v = val[p];
        const T* xc = x + static_cast<std::size_t>(col_idx[p]) *
                              static_cast<std::size_t>(ldx) +
                      ct;
        for (int c = 0; c < nt; ++c) acc[c] += v * xc[c];
      }
      for (int c = 0; c < nt; ++c) yr[ct + c] -= acc[c];
    }
  }
}

template <class T>
void spmv_update_rows_many_blocked(const offset_t* row_ptr,
                                       const index_t* col_idx, const T* val,
                                       const index_t* row_ids, index_t r0,
                                       index_t r1, const T* x, T* y,
                                       index_t c0, index_t c1, index_t ldx,
                                       index_t ldy) {
  for (index_t r = r0; r < r1; ++r) {
    const offset_t lo = row_ptr[r];
    const offset_t len = row_ptr[r + 1] - lo;
    const offset_t nb = len & ~offset_t(3);
    if (nb == 0) {
      // len < 4: the canonical order degenerates to the sequential chain
      // (the blocked partials are all +0.0), so the strict inner body is
      // bitwise-identical and skips the 4×kRhsTile accumulator setup.
      spmv_update_rows_many_strict(row_ptr, col_idx, val, row_ids, r,
                                       r + 1, x, y, c0, c1, ldx, ldy);
      continue;
    }
    T* yr = y + static_cast<std::size_t>(row_ids == nullptr ? r : row_ids[r]) *
                    static_cast<std::size_t>(ldy);
    const T* v = val + lo;
    const index_t* ci = col_idx + lo;
    for (index_t ct = c0; ct < c1; ct += kRhsTile) {
      const int nt = static_cast<int>(ct + kRhsTile <= c1 ? kRhsTile
                                                          : c1 - ct);
      T s[4][kRhsTile] = {};
      for (offset_t q = 0; q < nb; q += 4) {
        for (int l = 0; l < 4; ++l) {
          const T vv = v[q + l];
          const T* xc = x + static_cast<std::size_t>(ci[q + l]) *
                                static_cast<std::size_t>(ldx) +
                        ct;
          for (int c = 0; c < nt; ++c) s[l][c] += vv * xc[c];
        }
      }
      T total[kRhsTile];
      for (int c = 0; c < nt; ++c)
        total[c] = (s[0][c] + s[2][c]) + (s[1][c] + s[3][c]);
      for (offset_t q = nb; q < len; ++q) {
        const T vv = v[q];
        const T* xc = x + static_cast<std::size_t>(ci[q]) *
                              static_cast<std::size_t>(ldx) +
                      ct;
        for (int c = 0; c < nt; ++c) total[c] += vv * xc[c];
      }
      for (int c = 0; c < nt; ++c) yr[ct + c] -= total[c];
    }
  }
}

template <class T>
void sptrsv_rows_many_strict(const offset_t* row_ptr,
                                 const index_t* col_idx, const T* val,
                                 const index_t* items, offset_t p0,
                                 offset_t p1, const T* b, T* x, index_t c0,
                                 index_t c1, index_t ld) {
  for (offset_t p = p0; p < p1; ++p) {
    const index_t i = items == nullptr ? static_cast<index_t>(p)
                                       : items[static_cast<std::size_t>(p)];
    const offset_t lo = row_ptr[i];
    const offset_t hi = row_ptr[i + 1];
    const T d = val[hi - 1];
    const T* bi =
        b + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
    T* xi = x + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
    for_each_rhs_tile(c0, c1, [&](index_t ct, auto nt) {
      T acc[kRhsTile] = {};
      for (offset_t q = lo; q < hi - 1; ++q) {
        const T v = val[q];
        const T* xc = x + static_cast<std::size_t>(col_idx[q]) *
                              static_cast<std::size_t>(ld) +
                      ct;
        for (int c = 0; c < nt; ++c) acc[c] += v * xc[c];
      }
      for (int c = 0; c < nt; ++c) xi[ct + c] = (bi[ct + c] - acc[c]) / d;
    });
  }
}

template <class T>
void sptrsv_rows_many_blocked(const offset_t* row_ptr,
                                  const index_t* col_idx, const T* val,
                                  const index_t* items, offset_t p0,
                                  offset_t p1, const T* b, T* x, index_t c0,
                                  index_t c1, index_t ld) {
  for (offset_t p = p0; p < p1; ++p) {
    const index_t i = items == nullptr ? static_cast<index_t>(p)
                                       : items[static_cast<std::size_t>(p)];
    const offset_t lo = row_ptr[i];
    const offset_t len = row_ptr[i + 1] - 1 - lo;
    const offset_t nb = len & ~offset_t(3);
    if (nb == 0) {
      sptrsv_rows_many_strict(row_ptr, col_idx, val, items, p, p + 1, b,
                                  x, c0, c1, ld);
      continue;
    }
    const T d = val[lo + len];
    const T* v = val + lo;
    const index_t* ci = col_idx + lo;
    const T* bi =
        b + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
    T* xi = x + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld);
    for (index_t ct = c0; ct < c1; ct += kRhsTile) {
      const int nt = static_cast<int>(ct + kRhsTile <= c1 ? kRhsTile
                                                          : c1 - ct);
      T s[4][kRhsTile] = {};
      for (offset_t q = 0; q < nb; q += 4) {
        for (int l = 0; l < 4; ++l) {
          const T vv = v[q + l];
          const T* xc = x + static_cast<std::size_t>(ci[q + l]) *
                                static_cast<std::size_t>(ld) +
                        ct;
          for (int c = 0; c < nt; ++c) s[l][c] += vv * xc[c];
        }
      }
      T total[kRhsTile];
      for (int c = 0; c < nt; ++c)
        total[c] = (s[0][c] + s[2][c]) + (s[1][c] + s[3][c]);
      for (offset_t q = nb; q < len; ++q) {
        const T vv = v[q];
        const T* xc = x + static_cast<std::size_t>(ci[q]) *
                              static_cast<std::size_t>(ld) +
                      ct;
        for (int c = 0; c < nt; ++c) total[c] += vv * xc[c];
      }
      for (int c = 0; c < nt; ++c) xi[ct + c] = (bi[ct + c] - total[c]) / d;
    }
  }
}

}  // namespace detail

// --- Dispatching kernels ----------------------------------------------------
//
// Each entry point dispatches once per call (one cached-path load), then runs
// the whole row/item range in the selected lowering. kVector lowers to the
// hand-written ISA code where one exists and to the blocked-scalar code
// (identical results, by the shared canonical order) where it does not.

/// y[row] -= Σ val·x[col] over listed rows [r0, r1). `row_ids` maps listed
/// row -> output row (nullptr = identity, the CSR case).
template <class T>
void spmv_update_rows(const offset_t* row_ptr, const index_t* col_idx,
                      const T* val, const index_t* row_ids, index_t r0,
                      index_t r1, const T* x, T* y) {
  switch (active_path()) {
    case Path::kStrictScalar:
      detail::spmv_update_rows_strict(row_ptr, col_idx, val, row_ids, r0, r1,
                                      x, y);
      return;
    case Path::kVector:
#if defined(BLOCKTRI_HAVE_AVX2)
      avx2::spmv_update_rows(row_ptr, col_idx, val, row_ids, r0, r1, x, y);
      return;
#elif defined(BLOCKTRI_HAVE_NEON)
      neon::spmv_update_rows(row_ptr, col_idx, val, row_ids, r0, r1, x, y);
      return;
#else
      [[fallthrough]];
#endif
    case Path::kBlockedScalar:
      detail::spmv_update_rows_blocked(row_ptr, col_idx, val, row_ids, r0, r1,
                                       x, y);
      return;
  }
}

/// Batched update over panel columns [c0, c1) of a row-interleaved panel.
/// The vector lowering is the blocked body: its unit-stride column loops are
/// what the compiler vectorises, and the canonical per-column order keeps it
/// bitwise equal to every other path.
template <class T>
void spmv_update_rows_many(const offset_t* row_ptr,
                               const index_t* col_idx, const T* val,
                               const index_t* row_ids, index_t r0, index_t r1,
                               const T* x, T* y, index_t c0, index_t c1,
                               index_t ldx, index_t ldy) {
  if (active_path() == Path::kStrictScalar) {
    detail::spmv_update_rows_many_strict(row_ptr, col_idx, val, row_ids,
                                             r0, r1, x, y, c0, c1, ldx, ldy);
    return;
  }
  detail::spmv_update_rows_many_blocked(row_ptr, col_idx, val, row_ids,
                                            r0, r1, x, y, c0, c1, ldx, ldy);
}

/// Forward substitution over the listed rows, in list order: for each
/// p in [p0, p1), row i = items[p] gets x[i] = (b[i] − Σ val·x[col]) / diag
/// (diagonal stored last in the row). Valid for any dependency-respecting
/// item order — the level schedule passes level (or merged-group) slices,
/// the flat pass nullptr for natural row order.
template <class T>
void sptrsv_rows(const offset_t* row_ptr, const index_t* col_idx,
                 const T* val, const index_t* items, offset_t p0, offset_t p1,
                 const T* b, T* x) {
  switch (active_path()) {
    case Path::kStrictScalar:
      detail::sptrsv_rows_strict(row_ptr, col_idx, val, items, p0, p1, b, x);
      return;
    case Path::kVector:
#if defined(BLOCKTRI_HAVE_AVX2)
      avx2::sptrsv_rows(row_ptr, col_idx, val, items, p0, p1, b, x);
      return;
#elif defined(BLOCKTRI_HAVE_NEON)
      neon::sptrsv_rows(row_ptr, col_idx, val, items, p0, p1, b, x);
      return;
#else
      [[fallthrough]];
#endif
    case Path::kBlockedScalar:
      detail::sptrsv_rows_blocked(row_ptr, col_idx, val, items, p0, p1, b, x);
      return;
  }
}

/// Batched forward substitution over listed rows × panel columns [c0, c1)
/// of a row-interleaved panel. The kVector lowering is the blocked body, as
/// for the batched update.
template <class T>
void sptrsv_rows_many(const offset_t* row_ptr, const index_t* col_idx,
                          const T* val, const index_t* items, offset_t p0,
                          offset_t p1, const T* b, T* x, index_t c0,
                          index_t c1, index_t ld) {
  if (active_path() == Path::kStrictScalar) {
    detail::sptrsv_rows_many_strict(row_ptr, col_idx, val, items, p0, p1,
                                        b, x, c0, c1, ld);
    return;
  }
  detail::sptrsv_rows_many_blocked(row_ptr, col_idx, val, items, p0, p1,
                                       b, x, c0, c1, ld);
}

/// x[i] = b[i] / d[i] over [0, n) — the diagonal fast path. Element-wise, so
/// every lowering is trivially bitwise-identical.
template <class T>
void div_rows(const T* b, const T* d, T* x, index_t n) {
#if defined(BLOCKTRI_HAVE_AVX2)
  if (active_path() == Path::kVector) {
    avx2::div_rows(b, d, x, n);
    return;
  }
#endif
  for (index_t i = 0; i < n; ++i) x[i] = b[i] / d[i];
}

}  // namespace blocktri::simd
