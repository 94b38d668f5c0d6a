#include "core/adaptive.hpp"

#include <algorithm>

namespace blocktri {

std::string to_string(TriKernelKind k) {
  switch (k) {
    case TriKernelKind::kCompletelyParallel: return "completely-parallel";
    case TriKernelKind::kLevelSet: return "level-set";
    case TriKernelKind::kSyncFree: return "sync-free";
    case TriKernelKind::kCusparseLike: return "cusparse-like";
  }
  return "?";
}

std::string to_string(SpmvKernelKind k) {
  switch (k) {
    case SpmvKernelKind::kScalarCsr: return "scalar-CSR";
    case SpmvKernelKind::kVectorCsr: return "vector-CSR";
    case SpmvKernelKind::kScalarDcsr: return "scalar-DCSR";
    case SpmvKernelKind::kVectorDcsr: return "vector-DCSR";
  }
  return "?";
}

ThresholdTable simulator_fitted_thresholds() {
  ThresholdTable t;  // triangular thresholds: the measured map matches the
                     // published one (P at nlevels==1, cuSPARSE beyond
                     // 20000 levels, sync-free in between)
  t.sq_nnz_row_scalar = 0.5;  // vector kernels essentially always win
  t.sq_empty_vector = 0.4;    // DCSR from ~40% empty rows
  return t;
}

TriKernelKind select_tri_kernel(const TriangularFeatures& f,
                                const ThresholdTable& t) {
  // Algorithm 7, triangular branch, in the paper's order of tests.
  if (f.nlevels <= 1) return TriKernelKind::kCompletelyParallel;
  if (f.nlevels > t.tri_nlevels_cusparse) return TriKernelKind::kCusparseLike;
  // "nnz/row == 1" in the paper counts off-diagonal entries (a pure chain);
  // with the diagonal stored, that reads as nnz/row <= 2.
  const double offdiag_per_row =
      f.base.nnz_per_row - 1.0;  // diagonal always present
  if ((offdiag_per_row <= 1.0 && f.nlevels <= t.tri_nlevels_unit_row) ||
      (offdiag_per_row <= t.tri_nnz_row_levelset &&
       f.nlevels <= t.tri_nlevels_levelset)) {
    return TriKernelKind::kLevelSet;
  }
  return TriKernelKind::kSyncFree;
}

SpmvKernelKind select_square_kernel(const MatrixFeatures& f,
                                    const ThresholdTable& t) {
  // nnz/row over the *non-empty* rows decides scalar vs vector (an empty-row
  // dominated block would otherwise always look "short-rowed").
  const double active_rows =
      static_cast<double>(f.nrows) * (1.0 - f.empty_ratio);
  const double nnz_row = active_rows > 0.0
                             ? static_cast<double>(f.nnz) / active_rows
                             : 0.0;
  if (nnz_row <= t.sq_nnz_row_scalar) {
    return f.empty_ratio <= t.sq_empty_scalar ? SpmvKernelKind::kScalarCsr
                                              : SpmvKernelKind::kScalarDcsr;
  }
  return f.empty_ratio <= t.sq_empty_vector ? SpmvKernelKind::kVectorCsr
                                            : SpmvKernelKind::kVectorDcsr;
}

bool prefer_hbmc(index_t nlevels, index_t max_colors,
                 const ThresholdTable& t) {
  return static_cast<double>(nlevels) >
         t.hbmc_depth_per_color * static_cast<double>(std::max<index_t>(
                                      1, max_colors));
}

}  // namespace blocktri
