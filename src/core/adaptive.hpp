// Adaptive kernel selection (§3.4, Fig. 5, Algorithm 7).
//
// After the recursive blocking, every triangular block is solved by one of
// four SpTRSV kernels and every square block is multiplied by one of four
// SpMV kernels. The paper selects per block from two features each:
//
//   triangular: (nnz/row, nlevels)      square: (nnz/row, emptyratio)
//
// with thresholds fitted offline from 373,814 measured kernel timings
// (Fig. 5). The published decision tree (Alg. 7) is the default
// ThresholdTable below; bench/fig5_adaptive_heatmap regenerates a table from
// simulated measurements the same way the authors fitted theirs.
#pragma once

#include <string>

#include "analysis/features.hpp"

namespace blocktri {

enum class TriKernelKind {
  kCompletelyParallel,  // diagonal-only block (§3.4 case 1)
  kLevelSet,            // few levels, short rows
  kSyncFree,            // the broad middle
  kCusparseLike,        // very deep blocks (nlevels > 20000)
};

std::string to_string(TriKernelKind k);

/// The four SpMV kernels of §3.4 for the square blocks. They differ in how
/// the paper's GPU kernels map rows to threads (model/kernels.hpp): scalar
/// runs one thread per row and diverges to the longest row of its warp,
/// vector one warp per row; the DCSR kinds iterate only the non-empty rows
/// of a doubly-compressed block (§3.3). On the host every kind runs the one
/// listed-row SpMV body.
enum class SpmvKernelKind {
  kScalarCsr,
  kVectorCsr,
  kScalarDcsr,
  kVectorDcsr,
};

std::string to_string(SpmvKernelKind k);

inline bool is_dcsr(SpmvKernelKind k) {
  return k == SpmvKernelKind::kScalarDcsr || k == SpmvKernelKind::kVectorDcsr;
}

struct ThresholdTable {
  // SpTRSV thresholds (Alg. 7 lines 4-10).
  double tri_nnz_row_levelset = 15.0;   // nnz/row <= 15 ...
  index_t tri_nlevels_levelset = 20;    // ... and nlevels <= 20 -> level-set
  index_t tri_nlevels_unit_row = 100;   // nnz/row == 1 and nlevels <= 100
  index_t tri_nlevels_cusparse = 20000; // nlevels > 20000 -> cuSPARSE-like

  // SpMV thresholds (Alg. 7 lines 12-20).
  double sq_nnz_row_scalar = 12.0;  // nnz/row <= 12 -> scalar kernels
  double sq_empty_scalar = 0.50;    // scalar: emptyratio > 50% -> DCSR
  double sq_empty_vector = 0.15;    // vector: emptyratio > 15% -> DCSR

  // Scheme-level depth-vs-colors decision (DESIGN.md §16): the HBMC
  // reordering replaces O(level-depth) synchronisation with O(color-bound)
  // steps, but pays extra squares and a permutation that scatters locality.
  // It is considered worthwhile only when the level depth exceeds this
  // multiple of the color budget (hbmc_max_colors).
  double hbmc_depth_per_color = 4.0;
};

/// Thresholds fitted to THIS repository's device model via the Fig. 5
/// methodology (bench/fig5_adaptive_heatmap) — the same offline calibration
/// the authors ran on their physical GPUs to obtain the published table.
/// On the simulator, the warp-per-row (vector) SpMV kernels win at much
/// lower nnz/row than on the authors' hardware because the scalar kernels'
/// uncoalesced structure traffic is fully bandwidth-visible, and square
/// blocks switch to DCSR around 40% empty rows.
ThresholdTable simulator_fitted_thresholds();

/// The SpTRSV branch of Algorithm 7.
TriKernelKind select_tri_kernel(const TriangularFeatures& f,
                                const ThresholdTable& t);

/// The SpMV branch of Algorithm 7.
SpmvKernelKind select_square_kernel(const MatrixFeatures& f,
                                    const ThresholdTable& t);

/// Depth-vs-colors gate for the HBMC scheme: true when the whole-matrix
/// level depth is deep enough (relative to the color budget) that trading
/// locality for a fixed sync-step count should pay. Used by the tuner to
/// decide whether to price an HBMC candidate at all.
bool prefer_hbmc(index_t nlevels, index_t max_colors,
                 const ThresholdTable& t);

}  // namespace blocktri
