// Triangular-matrix utilities: extraction of the benchmark systems (the
// paper tests "lower triangular parts plus a diagonal to avoid singular",
// §4.1), diagonal splitting (the improved layout stores the diagonal
// separately, §3.3), and sub-block extraction used by the partition planners.
#pragma once

#include <cstdint>

#include "sparse/formats.hpp"

namespace blocktri {

/// Returns the lower-triangular part of `a` (entries with col <= row).
/// Any missing diagonal entry is inserted with value `diag_fill` so the
/// system is non-singular — the paper's dataset construction rule.
template <class T>
Csr<T> lower_triangular_with_diag(const Csr<T>& a, T diag_fill = T(1));

/// Typed verdict on whether `a` is a solvable lower triangle whose every row
/// ends in its diagonal, the other entries strictly lower in any order.
/// Checks every stored index, so a caller may index by them afterwards.
/// Returns kInvalidArgument when the matrix is not square or row_ptr,
/// col_idx and val do not describe nrows CSR rows (row_ptr of nrows + 1
/// entries, from 0, non-decreasing, ending at the length of both arrays).
/// Then, in order of detection per row: kSingularRow (empty row),
/// kOutOfBounds (negative column), kNotTriangular (entry above the
/// diagonal), kSingularRow (last entry not the diagonal), kNonFinite /
/// kZeroPivot (diagonal not finite, or zero or subnormal — a subnormal
/// pivot overflows the substitution just like an exact zero), then per
/// earlier entry kOutOfBounds / kNotTriangular / kBadFormat (a negative
/// column, one above the diagonal, a second diagonal) and kNonFinite
/// (NaN/Inf value). The offending row is in Status::location().
template <class T>
Status check_lower_triangular(const Csr<T>& a);

/// check_lower_triangular and structure_hash (analysis/features.hpp) in one
/// pass over the arrays: the same Status for the same first violation, and
/// on Ok *structure = structure_hash(a), bit for bit. Every entry point that
/// validates a caller's matrix and keys it runs this once.
template <class T>
Status check_lower_triangular(const Csr<T>& a, std::uint64_t* structure);

/// True iff every entry satisfies col <= row and every diagonal entry is
/// present, nonzero, normal and finite — check_lower_triangular().ok().
template <class T>
bool is_lower_triangular_nonsingular(const Csr<T>& a);

/// Splits a lower-triangular matrix into its strictly-lower part and a dense
/// diagonal vector. The improved recursive layout keeps the diagonal apart
/// ("for brevity, we assume the diagonal is saved separately", §3.3).
template <class T>
struct StrictLowerSplit {
  Csr<T> strict;        // strictly lower triangular, n x n
  std::vector<T> diag;  // size n, all nonzero
};
template <class T>
StrictLowerSplit<T> split_diagonal(const Csr<T>& lower);

/// Extracts the sub-matrix a[r0:r1, c0:c1) with indices rebased to the block
/// origin. O(nnz of the covered rows). Used by the block partitioners to cut
/// triangular, rectangular and square sub-matrices (Fig. 2).
template <class T>
Csr<T> extract_block(const Csr<T>& a, index_t r0, index_t r1, index_t c0,
                     index_t c1);

/// Sum of |row range| nonzeros that fall inside [c0, c1): cheap nnz counting
/// used by planners to reason about block sizes without materialising them.
template <class T>
offset_t count_block_nnz(const Csr<T>& a, index_t r0, index_t r1, index_t c0,
                         index_t c1);

}  // namespace blocktri
