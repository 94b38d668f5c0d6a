// Per-host calibrated kernel cost model — the measured replacement for the
// paper's offline-fitted constants (ROADMAP item 2, DESIGN.md §13).
//
// The adaptive selector of §3.4 keys fixed thresholds (nnz/row, nlevels,
// emptyratio) that were fitted to the authors' GPUs. This module instead
// *measures* each kernel's cost curve on the configured device model: a
// calibration microbench runs every SpTRSV kernel (completely-parallel,
// level-set, sync-free, cuSPARSE-like) and every SpMV kernel (scalar/vector ×
// CSR/DCSR) through the execution simulator over synthetic blocks from
// src/gen spanning the structural axes that matter (level count, row length,
// empty ratio, density), then least-squares-fits an affine model
//
//   cost_ns ≈ setup + per_row·rows + per_nnz·nnz + per_level·nlevels
//
// per kernel. Every sample is cross-checked against the exact collect_stats
// flop counters (2·nnz per block) so a drifting simulator invalidates the
// model instead of silently mis-tuning. A host microbench additionally picks
// the level-merge width that minimises real wall-clock on deep chains.
//
// Calibration is paid once per device description: models are cached
// in-process (keyed by the device fingerprint) and optionally on disk in a
// versioned, CRC-checked ".btcm" file.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/adaptive.hpp"
#include "sim/machine.hpp"
#include "sptrsv/levelset.hpp"

namespace blocktri::tune {

/// Bumped whenever the model form or the calibration protocol changes; a
/// cached model with a different version is discarded and refitted.
inline constexpr std::uint32_t kCostModelVersion = 1;

/// One kernel's fitted affine cost curve (nanoseconds). `per_level_ns` is
/// meaningful for the SpTRSV kernels (per-level barrier/launch cost) and
/// fitted to ~0 for the single-launch ones; SpMV kernels do not use it.
struct KernelCost {
  double setup_ns = 0.0;
  double per_row_ns = 0.0;
  double per_nnz_ns = 0.0;
  double per_level_ns = 0.0;
};

struct CostModel {
  std::uint32_t version = kCostModelVersion;
  std::uint64_t device = 0;  // device_fingerprint of the calibrated GpuSpec
  KernelCost tri[4];         // indexed by static_cast<int>(TriKernelKind)
  KernelCost sq[4];          // indexed by static_cast<int>(SpmvKernelKind)
  /// Host-measured level-merge width (the LevelSetSolver execution-group
  /// bound) that minimised wall-clock on a deep serial chain.
  offset_t preferred_merge_width = kLevelMergeMaxWidth;
  /// False when the flops cross-check against the collect_stats counters
  /// failed or a fit degenerated — the plan search then keeps the paper's
  /// Alg. 7 heuristics for kernel choice and only searches the partition.
  bool valid = false;

  /// Predicted solve cost of one triangular leaf under kernel `k`.
  double predict_tri(TriKernelKind k, index_t rows, offset_t nnz,
                     index_t nlevels) const;

  /// Predicted update cost of one square block under kernel `k`.
  /// `stored_rows` is the number of rows the kernel iterates: all rows for
  /// the CSR kinds, only the non-empty rows for the DCSR kinds.
  double predict_square(SpmvKernelKind k, index_t stored_rows,
                        offset_t nnz) const;
};

/// Order-dependent hash of every GpuSpec field that affects simulated cost.
/// Two specs with the same fingerprint produce identical simulated timings,
/// so they can share a calibrated model.
std::uint64_t device_fingerprint(const sim::GpuSpec& gpu);

/// Runs the full calibration microbench against `gpu` and fits the model.
/// Deterministic in `gpu` (all synthetic blocks are seeded).
CostModel calibrate_cost_model(const sim::GpuSpec& gpu);

/// Versioned CRC-checked cost-model file ("BTCM"). Atomic write (tmp +
/// rename), same durability contract as the .btpa artifacts.
Status save_cost_model(const std::string& path, const CostModel& m);

/// Typed failures: kBadFormat / kChecksumMismatch / kVersionMismatch /
/// kTruncated / kIoError, mirroring the artifact reader.
Status load_cost_model(const std::string& path, CostModel* out);

/// The "fit once per host" entry point: returns a model for `gpu` from the
/// in-process cache, else from `path` (when non-empty and the file matches
/// this device and version), else calibrates — and then persists to `path`
/// (best effort) and caches in-process. The returned reference stays valid
/// for the life of the process. Thread-safe.
const CostModel& ensure_cost_model(const sim::GpuSpec& gpu,
                                   const std::string& path = "");

/// Process-wide count of calibrate_cost_model runs (atomic) — the
/// "calibration is paid once per host" contract is asserted by diffing this
/// counter around warm ensure_cost_model calls.
std::uint64_t calibration_run_count();

}  // namespace blocktri::tune
