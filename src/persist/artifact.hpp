// Plan persistence — serialized BlockSolver preprocessing (ISSUE 4).
//
// Table 5 of the paper prices recursive-block preprocessing at many
// single-solve equivalents; in a service that solves the same sparsity
// pattern millions of times (a factorization reused across timesteps or
// requests), that analysis must be paid once, not per BlockSolver. A
// PlanArtifact captures *everything* BlockSolver::create computes —
// permutation, recursive BlockPlan (triangles, squares, step order, waves),
// per-block kernel selections, and the built block arrays (one copy of
// each block: a triangle's rows as its kernel reads them, a square's
// non-empty rows by window and length) — as plain data that can
// be
//
//   * saved to / loaded from a versioned binary file (save_artifact /
//     load_artifact below, format described in DESIGN.md §10),
//   * shared immutably between concurrent solvers through a PlanCache
//     (persist/plan_cache.hpp),
//   * rehydrated into a BlockSolver with zero re-analysis
//     (BlockSolver::create_from_artifact), bitwise-identical to the cold
//     build it was captured from.
//
// The artifact is keyed by the canonical structure hash of the *original*
// (unpermuted) matrix plus a fingerprint of the plan-affecting options, so a
// stale or mismatched artifact is rejected with a typed Status instead of
// producing a silently wrong solve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/levels.hpp"
#include "common/status.hpp"
#include "core/adaptive.hpp"
#include "core/plan.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

/// The one on-disk format version this build writes and reads. Every file
/// is stamped with it; the tuning and color sections stay optional, and
/// every plan carries a value map section. An artifact is a cache, so any
/// other version — including the older layouts: 1–5 also held a copy of the
/// permuted matrix (and, through 4, sync-free blocks as CSC plus strict
/// rows), 6 had no value map, so its warm paths re-gathered and sorted
/// every row, 7 held each square as CSR or DCSR by its kind, rows
/// ascending, 8 also held each cuSPARSE-like block's merged-kernel
/// schedule and an optional shard-slice section, and 9 was keyed by a
/// byte-wise FNV-1a structure hash (10 has 9's layout, keyed by the
/// four-lane hash of common/lane_hash.hpp) — is rejected with
/// kVersionMismatch and the caller rebuilds cold.
inline constexpr std::uint32_t kArtifactFormatVersion = 10;

/// Everything preprocessing derived for one triangular leaf block. Only the
/// fields of the selected kernel kind are filled (the rest stay empty),
/// mirroring what the live solver holds: one copy of the block, pivots for
/// a diagonal block and rows (diagonal last) for every other kind.
template <class T>
struct TriBlockArtifact {
  index_t r0 = 0, r1 = 0;
  TriKernelKind kind = TriKernelKind::kSyncFree;
  index_t nlevels = 0;
  offset_t nnz = 0;

  std::vector<T> diag;  // kCompletelyParallel
  Csr<T> kernel_csr;    // every other kind
  LevelSets levels;     // kLevelSet / kCusparseLike
};

/// One square (SpMV) block: kernel selection plus the built storage, the
/// same for every kind — the non-empty rows, grouped by global window of
/// kSquareWindowRows rows (⌊(ref.r0 + id) / kSquareWindowRows⌋ ascending)
/// and by (length, id) inside a window.
template <class T>
struct SquareBlockArtifact {
  SquareBlockRef ref{};  // the plan's square; row ids relative to ref.r0
  SpmvKernelKind kind = SpmvKernelKind::kScalarCsr;
  offset_t nnz = 0;
  double empty_ratio = 0.0;
  Dcsr<T> rows;
};

/// The complete, immutable result of BlockSolver preprocessing.
template <class T>
struct PlanArtifact {
  /// structure_hash() of the original (unpermuted) input matrix — a loaded
  /// plan is only accepted for a matrix with this exact pattern.
  std::uint64_t structure = 0;
  /// Fingerprint of the plan-affecting Options fields (scheme, planner,
  /// adaptive/forced kernels, thresholds) the artifact was captured under;
  /// create_from_artifact requires an exact match.
  std::uint64_t options = 0;

  BlockPlan plan;
  /// compute_step_waves output: the plan's steps in order, empty squares
  /// left out, grouped into mutually independent waves.
  std::vector<std::vector<ExecStep>> waves;
  offset_t nnz = 0;
  double norm_inf = 0.0;  // ‖L‖∞, which the residual check scales by
  /// Where each held value comes from (core/plan.hpp): what lets a warm
  /// path install the caller's values with no per-row gather or sort. One
  /// entry per held value.
  ValueMap value_map;

  std::int64_t build_ops = 0;  // preprocessing cost counters (Table 5)
  std::int64_t build_bytes = 0;

  /// Autotuning record (optional section — absent from untuned plans, which
  /// load with these defaults). The tuned kernel
  /// *choices* live in the regular tri/square sections like any others; this
  /// section carries what cannot be reconstructed from them: that the plan
  /// came from the tuner (so rehydration must not expect the heuristic
  /// plan), the level-merge width the level-set blocks were built with, and
  /// the search's oracle verdict for diagnostics.
  bool tuned = false;
  offset_t merge_width = kLevelMergeMaxWidth;
  bool tune_fell_back = false;
  std::uint64_t tune_device = 0;     // device_fingerprint of the tuning GPU
  double oracle_default_ns = 0.0;    // exact-sim time of the default plan
  double oracle_tuned_ns = 0.0;      // exact-sim time of the captured plan

  // HBMC color record (optional section — absent from non-HBMC plans). The
  // payload itself lives inside the BlockPlan (plan.color_bounds /
  // plan.hbmc_block_rows); a separate CRC'd section carries it, so the
  // kSectionPlan encoding is the same for every scheme.

  std::vector<TriBlockArtifact<T>> tri;
  std::vector<SquareBlockArtifact<T>> squares;
};

/// Heap footprint of an artifact (all vector payloads + bookkeeping) — the
/// byte measure PlanCache's capacity bound uses.
template <class T>
std::size_t artifact_bytes(const PlanArtifact<T>& art);

/// Serializes `art` to `path` in the versioned binary format: a fixed header
/// (magic, format version, endianness tag, value-type width, structure hash,
/// options fingerprint, n, nnz) followed by CRC32-guarded sections. Returns
/// Ok or a typed Status (kBadFormat for an unopenable/unwritable path).
/// The header and then each section (frame, payload) are streamed to this
/// writer's own side file, "<path>.tmp.<pid>.<seq>", which is renamed into
/// place only after a successful flush and removed on every failure: readers
/// never observe a torn file, and concurrent writers to one path each
/// publish a complete one (the last rename wins).
template <class T>
Status save_artifact(const std::string& path, const PlanArtifact<T>& art);

/// TESTING ONLY: arms the next `n` load_artifact calls (process-wide, any
/// thread) to fail with a transient kIoError before touching the file —
/// the fault class BlockSolver::create_from_file's retry-with-backoff loop
/// exists to absorb. pending_io_failures() reads the remaining budget.
/// validation_count() is the number of validate_artifact calls so far
/// (process-wide): the evidence that each artifact is validated once.
namespace persist_testing {
void force_io_failures(int n);
int pending_io_failures();
std::uint64_t validation_count();
}  // namespace persist_testing

/// Loads an artifact written by save_artifact. Every defect class maps to a
/// typed Status: wrong magic / endianness / value width → kBadFormat, any
/// version but kArtifactFormatVersion → kVersionMismatch, file ends early →
/// kTruncated (location = byte offset), section CRC32 disagrees →
/// kChecksumMismatch (location = section's byte offset), bytes after the
/// last section → kBadFormat
/// (location = offset of the first extra byte), the OS reports a read error
/// mid-stream → kIoError (naming the path — distinct from kTruncated: the
/// file may be intact). On any failure *out is left untouched.
template <class T>
Status load_artifact(const std::string& path, PlanArtifact<T>* out);

/// Deep semantic check of a deserialized (or hand-built) artifact. The
/// executors index with artifact contents unchecked — permute_vector writes
/// out[new_of_old[i]], the square spmv writes y[row_ids[r]], kernels read
/// x[col_idx[k]] — so beyond consistent plan bounds and array sizes this
/// proves every stored index in-bounds and every kernel precondition
/// (pointer arrays monotone and covering, new_of_old a permutation of
/// [0, n), triangular CSRs non-empty rows with a trailing diagonal and
/// nothing above it, so a row reads only x entries already solved — square
/// row ids in range, distinct and in non-decreasing windows, which the
/// threaded SpMV, the value install and the residual rely on, enum values
/// in range). Returns kBadFormat describing the first violation. load_artifact
/// runs this before handing the artifact out, so a CRC-valid but crafted or
/// semantically corrupt file is rejected here rather than corrupting memory
/// at solve time.
template <class T>
Status validate_artifact(const PlanArtifact<T>& art);

}  // namespace blocktri
