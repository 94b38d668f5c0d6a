#include "sparse/triangular.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>

#include "common/lane_hash.hpp"

namespace blocktri {

template <class T>
Csr<T> lower_triangular_with_diag(const Csr<T>& a, T diag_fill) {
  BLOCKTRI_CHECK(a.nrows == a.ncols);
  Csr<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.row_ptr.reserve(static_cast<std::size_t>(a.nrows) + 1);
  out.row_ptr.push_back(0);
  for (index_t i = 0; i < a.nrows; ++i) {
    bool saw_diag = false;
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t c = a.col_idx[static_cast<std::size_t>(k)];
      if (c > i) break;  // columns sorted: the rest of the row is upper
      T v = a.val[static_cast<std::size_t>(k)];
      if (c == i) {
        saw_diag = true;
        if (v == T(0)) v = diag_fill;  // zero diagonal would be singular
      }
      out.col_idx.push_back(c);
      out.val.push_back(v);
    }
    if (!saw_diag) {
      out.col_idx.push_back(i);
      out.val.push_back(diag_fill);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.val.size()));
  }
  return out;
}

namespace {

/// The typed verdict on row i of a matrix whose shape and row pointers
/// check_rows has accepted: in order of detection, kSingularRow (empty),
/// kOutOfBounds / kNotTriangular / kSingularRow (the last entry negative,
/// above or short of the diagonal), kNonFinite / kZeroPivot (the pivot),
/// then per earlier entry kOutOfBounds / kNotTriangular / kBadFormat and
/// kNonFinite. Kept out of line, so the pass that finds the row keeps its
/// state in registers.
template <class T>
[[gnu::noinline, gnu::cold]] Status row_status(const Csr<T>& a, index_t i) {
  const offset_t lo = a.row_ptr[static_cast<std::size_t>(i)];
  const offset_t hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
  if (lo == hi)
    return Status(StatusCode::kSingularRow,
                  "row " + std::to_string(i) +
                      " is empty: structurally singular",
                  i);
  // The diagonal is the row's last entry; every other entry is strictly
  // lower, in any order.
  const index_t last = a.col_idx[static_cast<std::size_t>(hi - 1)];
  if (last < 0)
    return Status(StatusCode::kOutOfBounds,
                  "row " + std::to_string(i) + " has negative column " +
                      std::to_string(last),
                  i, LocationKind::kRow);
  if (last > i)
    return Status(StatusCode::kNotTriangular,
                  "row " + std::to_string(i) + " has entry in column " +
                      std::to_string(last) + " above the diagonal",
                  i);
  if (last != i)
    return Status(StatusCode::kSingularRow,
                  "row " + std::to_string(i) +
                      " has no diagonal entry: structurally singular",
                  i);
  const T d = a.val[static_cast<std::size_t>(hi - 1)];
  if (!std::isfinite(static_cast<double>(d)))
    return Status(StatusCode::kNonFinite,
                  "diagonal of row " + std::to_string(i) + " is not finite",
                  i);
  if (d == T(0) || std::fabs(static_cast<double>(d)) <
                       static_cast<double>(std::numeric_limits<T>::min()))
    return Status(StatusCode::kZeroPivot,
                  "diagonal of row " + std::to_string(i) +
                      " is zero or subnormal",
                  i);
  for (offset_t k = lo; k < hi - 1; ++k) {
    const index_t c = a.col_idx[static_cast<std::size_t>(k)];
    if (c < 0 || c >= i) {
      const StatusCode code = c < 0    ? StatusCode::kOutOfBounds
                              : c > i ? StatusCode::kNotTriangular
                                      : StatusCode::kBadFormat;
      const char* what = c < 0    ? " is negative"
                         : c > i ? " is above the diagonal"
                                 : " repeats the diagonal before the last "
                                   "entry";
      return Status(code,
                    "row " + std::to_string(i) + ", column " +
                        std::to_string(c) + what,
                    i, LocationKind::kRow);
    }
    if (!std::isfinite(static_cast<double>(a.val[static_cast<std::size_t>(k)])))
      return Status(StatusCode::kNonFinite,
                    "row " + std::to_string(i) + ", column " +
                        std::to_string(c) + " is not finite",
                    i);
  }
  return Status::Ok();
}

/// check_lower_triangular, and with kHash the structure hash in the same
/// pass: (nrows, ncols), then the row pointers as the monotonicity check
/// reads them, then each row's column indices in order as its checks read
/// them — the order structure_hash folds them in, so the bits are the same.
/// The loop only finds the first faulty row; row_status names the fault.
/// The hash is written only on Ok.
template <bool kHash, class T>
Status check_rows(const Csr<T>& a, std::uint64_t* structure) {
  if (a.nrows != a.ncols)
    return Status(StatusCode::kInvalidArgument,
                  "matrix is not square: " + std::to_string(a.nrows) + " x " +
                      std::to_string(a.ncols));
  if (a.nrows < 0 ||
      a.row_ptr.size() != static_cast<std::size_t>(a.nrows) + 1 ||
      a.row_ptr[0] != 0 ||
      a.row_ptr.back() != static_cast<offset_t>(a.col_idx.size()) ||
      a.col_idx.size() != a.val.size())
    return Status(StatusCode::kInvalidArgument,
                  "row_ptr, col_idx and val do not describe " +
                      std::to_string(a.nrows) + " CSR rows");
  using Unsigned = std::make_unsigned_t<index_t>;
  const offset_t* row_ptr = a.row_ptr.data();
  const index_t* col_idx = a.col_idx.data();
  const T* val = a.val.data();
  LaneHash h;
  if constexpr (kHash) {
    h.fold(static_cast<std::uint64_t>(a.nrows));
    h.fold(static_cast<std::uint64_t>(a.ncols));
    h.fold(static_cast<std::uint64_t>(row_ptr[0]));
  }
  for (index_t i = 0; i < a.nrows; ++i) {
    if (row_ptr[i + 1] < row_ptr[i])
      return Status(StatusCode::kInvalidArgument,
                    "row_ptr decreases at row " + std::to_string(i), i,
                    LocationKind::kRow);
    if constexpr (kHash) h.fold(static_cast<std::uint64_t>(row_ptr[i + 1]));
  }
  for (index_t i = 0; i < a.nrows; ++i) {
    const offset_t lo = row_ptr[i];
    const offset_t hi = row_ptr[i + 1];
    if (lo == hi || col_idx[hi - 1] != i) return row_status(a, i);
    const double d = static_cast<double>(val[hi - 1]);
    if (!std::isfinite(d) ||
        std::fabs(d) < static_cast<double>(std::numeric_limits<T>::min()))
      return row_status(a, i);
    for (offset_t k = lo; k < hi - 1; ++k) {
      const index_t c = col_idx[k];
      if constexpr (kHash) h.fold(static_cast<std::uint64_t>(c));
      // One unsigned compare catches a negative column too.
      if (static_cast<Unsigned>(c) >= static_cast<Unsigned>(i) ||
          !std::isfinite(static_cast<double>(val[k])))
        return row_status(a, i);
    }
    if constexpr (kHash) h.fold(static_cast<std::uint64_t>(i));
  }
  if constexpr (kHash) *structure = h.finish();
  return Status::Ok();
}

}  // namespace

template <class T>
Status check_lower_triangular(const Csr<T>& a) {
  return check_rows<false>(a, nullptr);
}

template <class T>
Status check_lower_triangular(const Csr<T>& a, std::uint64_t* structure) {
  BLOCKTRI_CHECK(structure != nullptr);
  return check_rows<true>(a, structure);
}

template <class T>
bool is_lower_triangular_nonsingular(const Csr<T>& a) {
  return check_lower_triangular(a).ok();
}

template <class T>
StrictLowerSplit<T> split_diagonal(const Csr<T>& lower) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(lower),
                     "split_diagonal requires a nonsingular lower triangle");
  StrictLowerSplit<T> out;
  out.diag.resize(static_cast<std::size_t>(lower.nrows));
  out.strict.nrows = lower.nrows;
  out.strict.ncols = lower.ncols;
  out.strict.row_ptr.reserve(static_cast<std::size_t>(lower.nrows) + 1);
  out.strict.row_ptr.push_back(0);
  for (index_t i = 0; i < lower.nrows; ++i) {
    const offset_t lo = lower.row_ptr[static_cast<std::size_t>(i)];
    const offset_t hi = lower.row_ptr[static_cast<std::size_t>(i) + 1];
    for (offset_t k = lo; k < hi - 1; ++k) {
      out.strict.col_idx.push_back(lower.col_idx[static_cast<std::size_t>(k)]);
      out.strict.val.push_back(lower.val[static_cast<std::size_t>(k)]);
    }
    out.diag[static_cast<std::size_t>(i)] =
        lower.val[static_cast<std::size_t>(hi - 1)];
    out.strict.row_ptr.push_back(static_cast<offset_t>(out.strict.val.size()));
  }
  return out;
}

template <class T>
Csr<T> extract_block(const Csr<T>& a, index_t r0, index_t r1, index_t c0,
                     index_t c1) {
  BLOCKTRI_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.nrows);
  BLOCKTRI_CHECK(0 <= c0 && c0 <= c1 && c1 <= a.ncols);
  Csr<T> out;
  out.nrows = r1 - r0;
  out.ncols = c1 - c0;
  out.row_ptr.reserve(static_cast<std::size_t>(out.nrows) + 1);
  out.row_ptr.push_back(0);
  for (index_t i = r0; i < r1; ++i) {
    const offset_t lo = a.row_ptr[static_cast<std::size_t>(i)];
    const offset_t hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    // Binary search the sorted row for the [c0, c1) window.
    const auto* base = a.col_idx.data();
    const auto* first = std::lower_bound(base + lo, base + hi, c0);
    const auto* last = std::lower_bound(first, base + hi, c1);
    for (const auto* p = first; p != last; ++p) {
      const auto k = static_cast<std::size_t>(p - base);
      out.col_idx.push_back(*p - c0);
      out.val.push_back(a.val[k]);
    }
    out.row_ptr.push_back(static_cast<offset_t>(out.val.size()));
  }
  return out;
}

template <class T>
offset_t count_block_nnz(const Csr<T>& a, index_t r0, index_t r1, index_t c0,
                         index_t c1) {
  BLOCKTRI_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.nrows);
  BLOCKTRI_CHECK(0 <= c0 && c0 <= c1 && c1 <= a.ncols);
  offset_t total = 0;
  for (index_t i = r0; i < r1; ++i) {
    const offset_t lo = a.row_ptr[static_cast<std::size_t>(i)];
    const offset_t hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    const auto* base = a.col_idx.data();
    const auto* first = std::lower_bound(base + lo, base + hi, c0);
    const auto* last = std::lower_bound(first, base + hi, c1);
    total += static_cast<offset_t>(last - first);
  }
  return total;
}

#define BLOCKTRI_INSTANTIATE(T)                                              \
  template Csr<T> lower_triangular_with_diag(const Csr<T>&, T);              \
  template Status check_lower_triangular(const Csr<T>&);                     \
  template Status check_lower_triangular(const Csr<T>&, std::uint64_t*);     \
  template bool is_lower_triangular_nonsingular(const Csr<T>&);              \
  template StrictLowerSplit<T> split_diagonal(const Csr<T>&);                \
  template Csr<T> extract_block(const Csr<T>&, index_t, index_t, index_t,    \
                                index_t);                                    \
  template offset_t count_block_nnz(const Csr<T>&, index_t, index_t,         \
                                    index_t, index_t);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
