// In-process plan cache (ISSUE 4 layer 3).
//
// A service solving many systems with a handful of recurring sparsity
// patterns should pay the BlockSolver analysis (Table 5's preprocessing
// cost) once per pattern, not once per solver. PlanCache keys immutable
// PlanArtifacts by (structure hash, options fingerprint) and hands them out
// as shared_ptr<const ...>, so any number of concurrent BlockSolvers can
// rehydrate from the same artifact while the cache evicts cold entries.
//
// Semantics:
//   * Thread safe: every operation takes an internal mutex; the artifacts
//     themselves are immutable after insert, so readers need no further
//     locking. Entries are ref-counted — eviction never invalidates an
//     artifact a solver still holds.
//   * Capacity bounded in BOTH bytes (artifact_bytes of each entry) and
//     entry count; least-recently-used entries are evicted first. An
//     artifact larger than the byte budget is handed back to the caller
//     uncached rather than wedging the cache.
//   * Observable: hit / miss / eviction / insert counters plus current
//     entries and bytes, for cache-sizing decisions and the zero-analysis
//     warm-path tests.
//   * Quarantine: an entry whose *hit path* keeps failing (the cached
//     artifact rehydrates into a solver that breaks — stale values file,
//     corrupted mmap, miscompiled plan) is tombstoned after
//     Limits::quarantine_failures consecutive failures. While the tombstone
//     lives, find() misses and insert() hands artifacts back uncached, so a
//     poisoned pattern cannot ping-pong between warm failure and re-admission.
//     Tombstones age in insert-generation counts (cheap, monotonic, no
//     clock): one created at generation g expires once the cache has seen
//     Limits::quarantine_ttl_inserts further successful inserts.
//   * Validated once: an entry remembers whether its artifact is trusted —
//     captured from a live solver, or validated by load_artifact — so
//     BlockSolver::create's hit path skips validate_artifact on it. An
//     artifact handed to the public insert() is validated on its first hit,
//     and the entry remembers that too. Only BlockSolver (a friend) can
//     insert or mark an entry trusted; there is no public way to do so.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "persist/artifact.hpp"

namespace blocktri {

template <class T>
class BlockSolver;  // core/solver.hpp

/// Cache identity of a plan: the canonical structure hash of the original
/// matrix plus the fingerprint of the plan-affecting Options. Two solvers
/// share a cached plan iff both match.
struct PlanCacheKey {
  std::uint64_t structure = 0;
  std::uint64_t options = 0;

  friend bool operator==(const PlanCacheKey& a, const PlanCacheKey& b) {
    return a.structure == b.structure && a.options == b.options;
  }
};

struct PlanCacheKeyHash {
  std::size_t operator()(const PlanCacheKey& k) const {
    return static_cast<std::size_t>(
        hash_combine(k.structure, k.options));
  }
};

/// Point-in-time cache statistics (monotonic counters + current occupancy).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  /// Keys tombstoned after repeated hit-path failures (monotonic).
  std::uint64_t quarantined = 0;
  /// Artifact loads that succeeded only after transient-I/O retries
  /// (fed by BlockSolver::create_from_file's backoff loop).
  std::uint64_t retry_successes = 0;
  /// Workspace-lease acquisitions that had to block on an exhausted pool
  /// (fed by callers wiring WorkspacePoolStats into their cache telemetry).
  std::uint64_t lease_waits = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  /// Currently live (unexpired) quarantine tombstones.
  std::size_t tombstones = 0;
};

template <class T>
class PlanCache {
 public:
  struct Limits {
    std::size_t max_bytes = std::size_t(256) << 20;  // 256 MiB
    std::size_t max_entries = 64;
    /// Consecutive hit-path failures (report_hit_failure without an
    /// intervening report_hit_success) before a key is tombstoned.
    int quarantine_failures = 3;
    /// Tombstone lifetime, measured in successful inserts of *other* keys —
    /// a generation clock rather than wall time, so quarantine behaviour is
    /// deterministic under test and in replay. 0 makes tombstones expire at
    /// their first check (quarantine still evicts, but never blocks
    /// re-admission); UINT64_MAX quarantines forever (the expiry generation
    /// saturates instead of wrapping).
    std::uint64_t quarantine_ttl_inserts = 8;
  };

  PlanCache() : PlanCache(Limits{}) {}
  explicit PlanCache(Limits limits) : limits_(limits) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached artifact for `key` and marks it most recently used,
  /// or nullptr (counted as a miss).
  std::shared_ptr<const PlanArtifact<T>> find(const PlanCacheKey& key);

  /// Inserts `art` under its own (structure, options) key, evicting LRU
  /// entries until both capacity bounds hold. If an entry with the key
  /// already exists it is kept (first writer wins — concurrent cold builds
  /// of the same pattern produce identical artifacts) and returned, unless
  /// `overwrite` is set, in which case `art` replaces it (outstanding
  /// shared_ptrs to the old artifact stay valid). Pass overwrite = true when
  /// the cached entry is known bad — e.g. a cached artifact that failed the
  /// warm rehydration path and forced a cold rebuild. Returns the artifact
  /// that is now authoritative for the key: the cached one, or `art` itself
  /// when it exceeds max_bytes alone and bypasses the cache.
  std::shared_ptr<const PlanArtifact<T>> insert(
      std::shared_ptr<const PlanArtifact<T>> art, bool overwrite = false);

  PlanCacheStats stats() const;

  /// Records that a solver rehydrated from this key's cached artifact and
  /// the warm path *failed* (rehydration threw, refresh_values mismatched,
  /// warm verification rejected the plan). After
  /// Limits::quarantine_failures consecutive failures the key is evicted
  /// and tombstoned for Limits::quarantine_ttl_inserts insert generations.
  void report_hit_failure(const PlanCacheKey& key);

  /// Records a successful warm rehydration for `key`, resetting its
  /// consecutive-failure count (quarantine counts *consecutive* failures).
  void report_hit_success(const PlanCacheKey& key);

  /// Counts an artifact load that succeeded only after transient-I/O
  /// retries (BlockSolver::create_from_file's backoff loop reports here).
  void note_retry_success();

  /// Folds workspace-pool blocking-acquisition waits into the cache's
  /// telemetry, so one stats() call covers the whole resilience surface.
  void note_lease_waits(std::uint64_t waits);

  /// True while `key` is under an unexpired quarantine tombstone.
  bool quarantined(const PlanCacheKey& key);

  /// Drops every entry (outstanding shared_ptrs stay valid) and resets the
  /// occupancy, keeping the monotonic counters. Tombstones and failure
  /// counts are dropped too — a cleared cache starts from a clean slate.
  void clear();

  const Limits& limits() const { return limits_; }

 private:
  // BlockSolver::create's hit path and create_from_file use the trust
  // bookkeeping below.
  friend class BlockSolver<T>;

  struct Entry {
    PlanCacheKey key;
    std::shared_ptr<const PlanArtifact<T>> art;
    std::size_t bytes = 0;
    bool trusted = false;  // art passed validate_artifact or was captured
  };

  /// find() that also reports whether the entry's artifact is trusted.
  std::shared_ptr<const PlanArtifact<T>> lookup(const PlanCacheKey& key,
                                                bool* trusted);
  /// insert() that records whether `art` is trusted: captured from a live
  /// solver or validated by load_artifact.
  std::shared_ptr<const PlanArtifact<T>> insert_entry(
      std::shared_ptr<const PlanArtifact<T>> art, bool overwrite,
      bool trusted);
  /// Records that `art` passed validate_artifact, if it is still the
  /// artifact cached under `key` (a concurrent overwrite may have replaced
  /// it).
  void mark_trusted(const PlanCacheKey& key, const PlanArtifact<T>* art);

  // Called with mu_ held.
  void evict_until_fits_locked(std::size_t incoming_bytes);
  // Called with mu_ held: drops `key`'s tombstone if its TTL has lapsed and
  // returns whether a live tombstone remains.
  bool tombstoned_locked(const PlanCacheKey& key);

  Limits limits_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PlanCacheKey, typename std::list<Entry>::iterator,
                     PlanCacheKeyHash>
      index_;
  // Consecutive hit-path failures per key (erased on success/quarantine).
  std::unordered_map<PlanCacheKey, int, PlanCacheKeyHash> failures_;
  // key -> insert generation (counters_.inserts) at which the tombstone
  // expires.
  std::unordered_map<PlanCacheKey, std::uint64_t, PlanCacheKeyHash>
      tombstones_;
  std::size_t bytes_ = 0;
  PlanCacheStats counters_;
};

}  // namespace blocktri
