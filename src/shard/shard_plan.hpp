// Shard planning — cutting one BlockSolver plan into per-process slices.
//
// The sharded backend (DESIGN.md §15) distributes a single solve over a pool
// of worker processes. Each worker owns a contiguous range of the permuted
// rows: the triangular leaves inside the range plus row slices of every
// square block whose rows fall in it. Because cuts are only ever placed at
// plan.tri_bounds (a triangle is never split) and an SpMV's rows are
// arithmetically independent, the union of the shards executes exactly the
// arithmetic of the single-process plan — the sharded solution is bitwise
// identical to BlockSolver::solve_many on one process.
//
// This header is pure planning: no processes, no shared memory. The three
// stages are
//
//   compute_shard_cuts    nnz-balanced cut rows, snapped to tri_bounds
//   slice_shard_artifact  one worker's PlanArtifact (format v3 shard slice)
//   build_local_schedule  the worker's wave-structured step subsequence with
//                         halo watermarks (what to wait for, what to publish)
#pragma once

#include <cstdint>
#include <vector>

#include "persist/artifact.hpp"

namespace blocktri::shard {

/// nnz-balanced cut rows for `nshards` workers, snapped to the plan's
/// triangular leaf boundaries. Each leaf is weighted by its triangle's nnz
/// plus the row-proportional share of every square overlapping it, then the
/// leaves are partitioned greedily by prefix weight (the same discipline as
/// balanced_row_partition). Returns strictly ascending bounds
/// {0, ..., plan.n}; when the plan has fewer leaves than requested shards the
/// result simply has fewer cuts — bounds.size() - 1 is the effective shard
/// count, never 0 for a non-empty plan.
template <class T>
std::vector<index_t> compute_shard_cuts(const PlanArtifact<T>& art,
                                        int nshards);

/// Extracts shard `shard_index`'s slice of a captured artifact:
///   * the *global* plan, waves and permutation are retained verbatim (the
///     worker derives its local schedule and halo dependencies from them),
///   * triangular leaves inside [bounds[i], bounds[i+1]) keep their kernel
///     payloads; foreign leaves become metadata-only (!populated),
///   * squares are row-sliced to the shard's interval: the listed rows it
///     keeps, in their order, ids re-based to the slice's first row, so the
///     windows stay global (core/plan.hpp); slices with no remaining
///     nonzeros become !populated with the plan's original ref,
///   * `options` is restamped with `worker_options` — the fingerprint of the
///     Options the worker will rehydrate under,
///   * no value map: a slice never installs values (its solver refuses
///     every whole-matrix entry point).
/// The result passes validate_artifact and round-trips through
/// save_artifact/load_artifact.
template <class T>
PlanArtifact<T> slice_shard_artifact(const PlanArtifact<T>& full,
                                     const std::vector<index_t>& bounds,
                                     int shard_index,
                                     std::uint64_t worker_options);

/// One plan step a shard executes locally, with its halo bookkeeping.
struct LocalStep {
  ExecStep step;
  /// For a square step: the x-row watermark each upstream shard must have
  /// published before this step may run (progress[upstream] >= watermark).
  /// Empty for tri steps and for squares whose columns are entirely local.
  struct HaloWait {
    int upstream = 0;
    index_t watermark = 0;
  };
  std::vector<HaloWait> waits;
  /// For a tri step: the watermark to release-publish after it completes
  /// (the leaf's r1 — rows [shard begin, publish) are then final). 0 for
  /// square steps.
  index_t publish = 0;
};

/// The worker's execution schedule: the global waves filtered down to the
/// steps shard `shard_index` owns, preserving wave structure (steps of one
/// wave are mutually independent, so the worker may reorder within a wave —
/// the compute/communication overlap runs halo-ready steps first).
template <class T>
std::vector<std::vector<LocalStep>> build_local_schedule(
    const PlanArtifact<T>& slice);

}  // namespace blocktri::shard
