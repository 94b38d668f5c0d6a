// Sparse matrix containers used throughout blocktri.
//
// Four formats appear in the paper:
//   * CSR  — serial SpTRSV (Alg. 1), level-set SpTRSV (Alg. 2), square-block
//            SpMV kernels (scalar-CSR / vector-CSR).
//   * CSC  — sync-free SpTRSV (Alg. 3) and the triangular sub-blocks of the
//            improved recursive layout (§3.3, Fig. 3d).
//   * DCSR — doubly-compressed CSR for very sparse square blocks (§3.3): a
//            row pointer over the non-empty rows only, plus an array of the
//            actual row indices (after Buluç & Gilbert's DCSC).
//   * COO  — construction/interchange format for the generators and I/O.
//
// Containers are aggregates templated on the value type (float/double for
// Fig. 7); all structural algorithms live in convert/permute/triangular.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace blocktri {

template <class T>
struct Coo {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<index_t> row;
  std::vector<index_t> col;
  std::vector<T> val;

  offset_t nnz() const { return static_cast<offset_t>(val.size()); }
};

template <class T>
struct Csr {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<offset_t> row_ptr;  // size nrows + 1
  std::vector<index_t> col_idx;   // size nnz, sorted within each row
  std::vector<T> val;             // size nnz

  offset_t nnz() const { return static_cast<offset_t>(val.size()); }
  offset_t row_nnz(index_t i) const {
    return row_ptr[static_cast<std::size_t>(i) + 1] -
           row_ptr[static_cast<std::size_t>(i)];
  }
};

template <class T>
struct Csc {
  index_t nrows = 0;
  index_t ncols = 0;
  std::vector<offset_t> col_ptr;  // size ncols + 1
  std::vector<index_t> row_idx;   // size nnz, sorted within each column
  std::vector<T> val;             // size nnz

  offset_t nnz() const { return static_cast<offset_t>(val.size()); }
  offset_t col_nnz(index_t j) const {
    return col_ptr[static_cast<std::size_t>(j) + 1] -
           col_ptr[static_cast<std::size_t>(j)];
  }
};

template <class T>
struct Dcsr {
  index_t nrows = 0;  // logical row count (including empty rows)
  index_t ncols = 0;
  // Indices of the listed rows: the non-empty rows, ascending — except in a
  // built solver's square, which lists them by window and length
  // (core/plan.hpp, kSquareWindowRows).
  std::vector<index_t> row_ids;
  std::vector<offset_t> row_ptr;  // size row_ids.size() + 1
  std::vector<index_t> col_idx;
  std::vector<T> val;

  offset_t nnz() const { return static_cast<offset_t>(val.size()); }
  index_t nnz_rows() const { return static_cast<index_t>(row_ids.size()); }
};

/// Throws blocktri::Error unless the structure is well-formed: monotone
/// pointers, in-range sorted indices, no duplicates within a row/column.
template <class T>
void validate(const Csr<T>& a);
template <class T>
void validate(const Csc<T>& a);
template <class T>
void validate(const Dcsr<T>& a);
template <class T>
void validate(const Coo<T>& a);

/// Structural + numerical equality (exact value comparison; used by tests on
/// conversion round-trips, which must be lossless).
template <class T>
bool equals(const Csr<T>& a, const Csr<T>& b);
template <class T>
bool equals(const Csc<T>& a, const Csc<T>& b);
template <class T>
bool equals(const Dcsr<T>& a, const Dcsr<T>& b);

}  // namespace blocktri
