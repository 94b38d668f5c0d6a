// Sparsity-structure feature extraction. These are exactly the quantities the
// paper's adaptive selector and evaluation tables consume: nnz/row and
// nlevels for triangular blocks (Fig. 5a), nnz/row and emptyratio for square
// blocks (Fig. 5b), and the row-length distribution that explains the
// power-law load-imbalance pathology (§2.2).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/levels.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

struct MatrixFeatures {
  index_t nrows = 0;
  index_t ncols = 0;
  offset_t nnz = 0;
  double nnz_per_row = 0.0;    // nnz / nrows (the paper's "nnz/row")
  double empty_ratio = 0.0;    // empty rows / nrows (the paper's emptyratio)
  offset_t max_row_nnz = 0;
  offset_t min_row_nnz = 0;
  double row_nnz_stddev = 0.0;
  index_t bandwidth = 0;       // max |i - j| over nonzeros
  bool diagonal_only = false;  // triangular block with perfect parallelism
};

/// |i - j| computed in 64-bit. `long` is 32-bit on LLP64 platforms, where
/// `std::abs(long(i) - j)` overflows for index pairs spanning more than
/// INT32_MAX rows/columns; widening each operand first keeps the difference
/// exact for every representable index pair.
inline index_t index_distance(index_t i, index_t j) {
  const std::int64_t d =
      static_cast<std::int64_t>(i) - static_cast<std::int64_t>(j);
  return static_cast<index_t>(d < 0 ? -d : d);
}

template <class T>
MatrixFeatures compute_features(const Csr<T>& a);

/// Canonical 64-bit hash of a sparsity pattern: (nrows, ncols, row_ptr,
/// col_idx), each value widened to 64 bits and folded through the
/// four-lane LaneHash (common/lane_hash.hpp), values excluded. Two matrices
/// share a hash iff (modulo the usual 2^-64 collision odds) they have
/// identical structure — the key under which analyzed BlockPlans are
/// persisted and cached, and the gate BlockSolver::refresh_values checks
/// before writing new values into existing block structures. A collision
/// costs a cold build or a typed kStructureMismatch, never a wrong solve:
/// installing values checks every slot's column against the caller's.
std::uint64_t structure_hash(index_t nrows, index_t ncols,
                             const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx);

template <class T>
std::uint64_t structure_hash(const Csr<T>& a) {
  return structure_hash(a.nrows, a.ncols, a.row_ptr, a.col_idx);
}

/// Order-dependent 64-bit combine for building composite keys (e.g. the
/// structure hash + planner-option fingerprint of a cached plan).
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  // splitmix64 finalizer over seed ^ v, so combine(a, b) != combine(b, a).
  std::uint64_t z = seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Features of a triangular block including its level count — the SpTRSV
/// selector's inputs.
struct TriangularFeatures {
  MatrixFeatures base;
  index_t nlevels = 0;
  ParallelismStats parallelism;
};

template <class T>
TriangularFeatures compute_triangular_features(const Csr<T>& lower);

std::string describe(const MatrixFeatures& f);

}  // namespace blocktri
