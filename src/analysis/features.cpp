#include "analysis/features.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/lane_hash.hpp"

namespace blocktri {

template <class T>
MatrixFeatures compute_features(const Csr<T>& a) {
  MatrixFeatures f;
  f.nrows = a.nrows;
  f.ncols = a.ncols;
  f.nnz = a.nnz();
  if (a.nrows == 0) return f;

  f.nnz_per_row = static_cast<double>(f.nnz) / static_cast<double>(f.nrows);
  f.min_row_nnz = a.row_nnz(0);
  double sq_sum = 0.0;
  index_t empty = 0;
  bool diag_only = a.nrows == a.ncols;
  for (index_t i = 0; i < a.nrows; ++i) {
    const offset_t r = a.row_nnz(i);
    f.max_row_nnz = std::max(f.max_row_nnz, r);
    f.min_row_nnz = std::min(f.min_row_nnz, r);
    const double d = static_cast<double>(r) - f.nnz_per_row;
    sq_sum += d * d;
    if (r == 0) ++empty;
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = a.col_idx[static_cast<std::size_t>(k)];
      f.bandwidth = std::max(f.bandwidth, index_distance(i, j));
      if (j != i) diag_only = false;
    }
  }
  f.empty_ratio = static_cast<double>(empty) / static_cast<double>(f.nrows);
  f.row_nnz_stddev = std::sqrt(sq_sum / static_cast<double>(f.nrows));
  f.diagonal_only = diag_only && f.nnz == f.nrows;
  return f;
}

template <class T>
TriangularFeatures compute_triangular_features(const Csr<T>& lower) {
  TriangularFeatures tf;
  tf.base = compute_features(lower);
  const LevelSets ls = compute_level_sets(lower);
  tf.nlevels = ls.nlevels;
  tf.parallelism = parallelism_stats(ls);
  return tf;
}


std::uint64_t structure_hash(index_t nrows, index_t ncols,
                             const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx) {
  LaneHash h;
  h.fold(static_cast<std::uint64_t>(nrows));
  h.fold(static_cast<std::uint64_t>(ncols));
  for (const offset_t p : row_ptr) h.fold(static_cast<std::uint64_t>(p));
  for (const index_t j : col_idx) h.fold(static_cast<std::uint64_t>(j));
  return h.finish();
}

std::string describe(const MatrixFeatures& f) {
  std::ostringstream os;
  os << f.nrows << "x" << f.ncols << ", nnz=" << f.nnz
     << ", nnz/row=" << f.nnz_per_row << ", emptyratio=" << f.empty_ratio
     << ", max_row=" << f.max_row_nnz << ", bandwidth=" << f.bandwidth;
  return os.str();
}

#define BLOCKTRI_INSTANTIATE(T)                          \
  template MatrixFeatures compute_features(const Csr<T>&); \
  template TriangularFeatures compute_triangular_features(const Csr<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
