// BlockSolver — the library's main public API, implementing the paper's
// contribution end to end:
//
//   preprocessing (once):  partition (column / row / recursive scheme §3.1),
//                          recursive level-set reordering (§3.3),
//                          per-block adaptive kernel selection (§3.4),
//                          per-block storage (each triangle's rows held
//                          once by its sub-solver, each square's non-empty
//                          rows by window and length, diagonal separate)
//   solve (many times):    walk the execution steps, calling the selected
//                          SpTRSV kernel on each triangular block and the
//                          selected SpMV kernel on each square block.
//
// Typical use:
//
//   blocktri::BlockSolver<double>::Options opt;
//   opt.planner.stop_rows = 4096;
//   blocktri::BlockSolver<double> solver(L, opt);   // preprocess once
//   std::vector<double> x = solver.solve(b);        // solve many rhs
//
// Simulated-GPU timing (the benchmark path) goes through solve_simulated,
// which replays the plan on the paper's GPU model (model/replay.hpp).
#pragma once

#include <atomic>
#include <concepts>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/deadline.hpp"
#include "common/workspace_pool.hpp"
#include "core/adaptive.hpp"
#include "core/plan.hpp"
#include "model/replay.hpp"
#include "sim/cache.hpp"
#include "sim/host_sim.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "spmv/kernels.hpp"
#include "sptrsv/cusparse_like.hpp"
#include "sptrsv/diagonal.hpp"
#include "sptrsv/levelset.hpp"
#include "sptrsv/syncfree.hpp"
#include "tune/search.hpp"

namespace blocktri {

template <class T>
struct PlanArtifact;  // persist/artifact.hpp
template <class T>
class PlanCache;  // persist/plan_cache.hpp

/// One engagement of the per-block fallback ladder: triangular block `block`
/// produced non-finite output on kernel `from`, and the solve degraded to
/// `to` (level-set first, then the serial reference).
struct FallbackEvent {
  index_t block = 0;
  TriKernelKind from = TriKernelKind::kSyncFree;
  enum class Rung { kLevelSet, kSerial } to = Rung::kLevelSet;
};

/// One rung of the whole-solve degradation ladder: a full retry attempt was
/// demoted along one axis — parallel execution handed back for a serial
/// pass, or the SIMD lowering stepped down vector → blocked → strict —
/// because of `reason` (kNumericalBreakdown, kSpinTimeout,
/// kResidualTooLarge, or kReentrantSolve when the solver's pool was busy
/// serving a concurrent caller). The per-block FallbackEvent ladder swaps
/// the *kernel* of one block; DegradeEvents demote the *whole solve*.
struct DegradeEvent {
  enum class Kind {
    kParallelToSerial,   // pool handed back; retry runs the serial executor
    kVectorToBlocked,    // SIMD lowering demoted to canonical blocked-scalar
    kBlockedToStrict,    // lowering demoted to the pre-SIMD sequential order
  };
  Kind kind = Kind::kParallelToSerial;
  StatusCode reason = StatusCode::kOk;
};

/// What solve_checked observed: the verified residual, how many refinement
/// rounds ran, and every fallback the degradation ladder fired — benches and
/// callers can see when and where a solve did not take the fast path.
///
/// The operation counters (flops, bytes, levels) are filled only when
/// Options::collect_stats is set: they expose the arithmetic intensity per
/// solve (2 flops per nonzero, structure + value bytes streamed) and how much
/// per-level overhead the level-merge optimisation removed. They count the
/// first ladder attempt of each block, not refinement/fallback re-runs.
struct SolveReport {
  bool residual_checked = false;
  double residual = 0.0;   // ‖Lx−b‖∞ / (‖L‖∞‖x‖∞ + ‖b‖∞), final
  double tolerance = 0.0;  // threshold the residual was compared against
  int refinements = 0;     // iterative-refinement rounds applied
  std::vector<FallbackEvent> fallbacks;  // per-block rungs, final attempt only
  std::vector<DegradeEvent> degrades;    // whole-solve rungs, all attempts
  int attempts = 0;              // whole-solve attempts run (1 = no ladder)
  index_t steps_completed = 0;   // plan steps finished (partial progress when
                                 // a deadline/cancel/spin-timeout fired)
  index_t steps_total = 0;       // plan steps the solve would run
  std::int64_t flops = 0;        // 2 per nonzero touched (+1 divide per row)
  std::int64_t bytes = 0;        // structure + value bytes streamed
  index_t levels_executed = 0;   // level-set groups actually run
  index_t levels_merged = 0;     // levels folded away by group merging
};

/// Outcome of solve_checked. `x` is populated even on kResidualTooLarge (the
/// best solution found, with the residual in the report); on
/// kNumericalBreakdown it holds the partial, non-finite solve for
/// diagnosis.
template <class T>
struct SolveResult {
  Status status;
  std::vector<T> x;
  SolveReport report;
  bool ok() const { return status.ok(); }
};

/// Outcome of solve_many_checked: the solution panel (n × k, column-major)
/// and one SolveReport per column. `status` is the worst column's outcome —
/// Ok only when every column verified; on kResidualTooLarge /
/// kNumericalBreakdown the per-column reports identify the offenders, and X
/// still holds the best solution found for every column.
template <class T>
struct SolveManyResult {
  Status status;
  std::vector<T> X;                  // n × k, column-major
  std::vector<SolveReport> reports;  // one per right-hand side
  bool ok() const { return status.ok(); }
};

template <class T>
class BlockSolver {
 public:
  struct Options {
    BlockScheme scheme = BlockScheme::kRecursive;
    PlannerOptions planner;
    /// Adaptive per-block kernel selection (Alg. 7). When false, every
    /// triangular block uses forced_tri and every square block forced_square
    /// — the ablation mode of bench/ablation_adaptive.
    bool adaptive = true;
    TriKernelKind forced_tri = TriKernelKind::kSyncFree;
    SpmvKernelKind forced_square = SpmvKernelKind::kScalarCsr;
    ThresholdTable thresholds;

    /// Host execution threads. 1 (the default) takes the serial paths
    /// unchanged — required by the simulator and the deterministic tests.
    /// 0 means std::thread::hardware_concurrency. The BLOCKTRI_THREADS
    /// environment variable, when set, overrides whatever is configured
    /// here (see resolve_threads). With more than one thread the solver
    /// owns a ThreadPool used for preprocessing (planning, CSC conversion,
    /// level analyses) and for solve()/solve_checked(). Every solve entry
    /// point is reentrant at any thread count: concurrent callers lease
    /// independent workspaces, and the pool is arbitrated so exactly one
    /// in-flight solve drives it while the others take the serial executor.
    int threads = 1;

    /// Fill the SolveReport operation counters (flops, bytes, levels
    /// executed/merged) during solve_checked/solve_many_checked. Off by
    /// default — the increments are cheap but not free, and most callers
    /// only want the residual machinery. Runtime-only: not part of the
    /// options fingerprint, so cached plans are reusable across it.
    bool collect_stats = false;

    /// Robustness knobs for solve_checked and solve_many_checked. The
    /// residual check, refinement and the fallback ladder read the blocks
    /// every solve reads, so the checked paths hold no extra state.
    struct VerifyOptions {
      double tolerance = 0.0;  // 0 → 100 · n · eps(T)
      int max_refinements = 1;
      bool fallback = true;    // degrade adaptive → level-set → serial
    };
    VerifyOptions verify;

    /// Session/resilience knobs. All runtime-only: none participate in the
    /// options fingerprint, so cached plans are reusable across them.
    struct SessionOptions {
      /// Upper bound on concurrently leased solve workspaces (≥ 1). Each
      /// concurrent in-flight solve on this solver holds one lease; the pool
      /// never shrinks, so steady-state concurrency costs no allocation.
      int max_workspaces = 8;
      /// When every workspace is leased: true blocks the caller until one
      /// frees (backpressure), false fails the solve with kPoolExhausted.
      bool block_when_exhausted = true;
      /// Debug guard: when true, a second solve entering while one is in
      /// flight returns kReentrantSolve instead of proceeding. Off by
      /// default — concurrent solves are supported; this exists to flag
      /// callers that *assumed* exclusive use and want the old contract
      /// enforced as a typed error rather than silently sharing the pool.
      bool strict_reentrancy = false;
      /// create_from_file retries transient kIoError loads up to this many
      /// attempts total, sleeping a jittered exponential backoff
      /// (artifact_retry_backoff_ms · 2^attempt · U[0.5,1.5)) between them.
      /// Permanent failures (checksum/version/structure mismatch) never
      /// retry.
      int artifact_retry_attempts = 3;
      double artifact_retry_backoff_ms = 1.0;
    };
    SessionOptions session;

    /// Sharded multi-process execution (src/shard, DESIGN.md §15). All
    /// runtime-only: none participate in the options fingerprint — a shard
    /// worker rehydrates the same plan a single-process solver would use.
    /// Consumed by shard::ShardCoordinator and the solve service's shard
    /// backend; the in-process BlockSolver ignores every field.
    struct ShardOptions {
      /// Worker processes (shards). 0 disables sharding entirely (the
      /// service then solves in process); 1 is valid and useful in tests —
      /// one worker, full transport machinery.
      int processes = 0;
      /// How long the coordinator waits for any worker progress before
      /// declaring the epoch dead and typing the solve kWorkerLost.
      int epoch_timeout_ms = 10000;
      /// After a kWorkerLost, retry the solve on the coordinator's own
      /// in-process solver instead of surfacing the loss to the caller.
      bool fallback_inprocess = true;
      /// Directory for the per-shard .btpa slices (empty → TMPDIR or /tmp).
      std::string artifact_dir;
      /// Panel width the shared-memory segment is sized for (k ≤ max_panel).
      index_t max_panel = 32;
      /// Test-only deterministic fault hooks, mirroring FaultInjection:
      /// worker `kill_worker` SIGKILLs itself (or sleeps forever when
      /// `hang_worker` is set instead) after `after_steps` local steps of
      /// the next solve. Never set in production.
      struct Fault {
        int kill_worker = -1;   // shard index to kill (-1 = none)
        int hang_worker = -1;   // shard index to hang (-1 = none)
        int after_steps = 0;    // local steps to run before the fault
      };
      Fault fault;
    };
    ShardOptions shard;

    /// Cost-model-driven plan autotuning (DESIGN.md §13). Off by default —
    /// plans are then byte-for-byte identical to the untuned planner +
    /// Alg. 7 selector. When enabled, the cold build calibrates (or loads) a
    /// per-device CostModel, searches partition depth / per-block kernels /
    /// the level-merge schedule against the execution-simulator oracle, and
    /// adopts the winner; the tuned choices persist into the .btpa artifact
    /// so warm starts pay zero re-tuning. tune.enabled and the fields that
    /// change the chosen plan (device, SA budget, seed) join the options
    /// fingerprint only when enabled, so untuned fingerprints are unchanged.
    tune::TuneOptions tune;

    /// Test-only deterministic fault hook for the fault-injection suite:
    /// while solve_checked processes triangular block `tri_block`, the
    /// output of its first `corrupt_attempts` solve attempts (0 = the
    /// selected kernel, 1 = the next fallback rung, ...) is poisoned with
    /// NaN, forcing the ladder to engage. In solve_many_checked only panel
    /// column `column` is poisoned — the other columns must sail through
    /// untouched. Never set in production.
    struct FaultInjection {
      index_t tri_block = -1;
      int corrupt_attempts = 0;
      index_t column = 0;
      /// Poisons the checked solve's first `corrupt_solve_attempts` whole
      /// attempts with a large-but-finite wrong solution *after* the steps
      /// ran clean, so the per-block ladder sees nothing and the residual
      /// check must catch it — exercising the whole-solve degradation
      /// ladder's residual-rejection trigger.
      int corrupt_solve_attempts = 0;
      /// Makes row 0 of `tri_block`'s sync-free solver wait on its own
      /// ready flag in the threaded solve, which nobody else publishes, so
      /// its spin-wait can never finish — the bounded-spin timeout and its
      /// spin-free fallbacks are exercised.
      bool stuck_spin = false;
      /// Holds the leased workspace for this long at solve entry —
      /// lets tests overlap leases deterministically to fill the pool.
      int hold_lease_ms = 0;
    };
    FaultInjection fault;
  };

  /// Preprocessing stage. `lower` must be lower triangular with a nonzero
  /// diagonal stored last in each row, the other entries strictly lower in
  /// any order; throws blocktri::Error carrying the check_lower_triangular
  /// status otherwise.
  BlockSolver(const Csr<T>& lower, const Options& opt);

  /// Non-throwing factory: validates `lower` (check_lower_triangular) and
  /// returns the typed Status instead of throwing — a failure of the build
  /// itself included; on success *out owns the solver. With a `cache`, the solver is rehydrated from a cached plan
  /// when one matches (structure hash, options fingerprint) — performing
  /// zero level-set analysis and producing bitwise-identical solves — and a
  /// cold build's plan is captured into the cache for the next caller. A
  /// hit copies the cached plan's structure and installs `lower`'s values
  /// in one pass; it validates the cached artifact only if the cache does
  /// not already trust it (see PlanCache). A hit that fails — a shard
  /// slice, or a block structure that disagrees with `lower` — falls back
  /// to the cold build and replaces the entry.
  static Status create(const Csr<T>& lower, const Options& opt,
                       std::unique_ptr<BlockSolver<T>>* out,
                       PlanCache<T>* cache = nullptr);

  // --- Plan persistence (persist/artifact.hpp, persist/plan_cache.hpp) -----

  /// Snapshots everything preprocessing computed — plan, waves, kernel
  /// selections, built block structures, ‖L‖∞ — as plain data.
  PlanArtifact<T> capture_artifact() const;

  /// capture_artifact() + persist::save_artifact in one call.
  Status save_artifact(const std::string& path) const;

  /// Rehydrates a solver from a (shared, immutable) artifact with zero
  /// re-analysis. Fails with kInvalidArgument when `opt`'s plan-affecting
  /// fields differ from those the artifact was captured under (fingerprint
  /// mismatch). The artifact's numeric values are adopted as-is; call
  /// refresh_values to install a new factorization with the same pattern.
  /// A shard slice (shard/shard_plan.hpp) serves only a worker's
  /// exec_plan_step_many: every whole-matrix entry point refuses it with
  /// kInvalidArgument (thrown as blocktri::Error where no Status returns).
  static Status create_from_artifact(
      std::shared_ptr<const PlanArtifact<T>> art, const Options& opt,
      std::unique_ptr<BlockSolver<T>>* out);

  /// load_artifact(path) + structure check against `lower` + structure-only
  /// rehydration + one-pass install of `lower`'s values: the full warm-start
  /// path. validate_artifact runs once, inside load_artifact.
  /// Adds kStructureMismatch when `lower`'s pattern differs from the one the
  /// artifact was captured from, and kInvalidArgument when the file holds a
  /// shard slice (a slice serves only a shard worker). Transient I/O
  /// failures (kIoError) are retried with jittered exponential backoff per
  /// opt.session; permanent
  /// artifact rejections (checksum, version, structure) fail immediately.
  /// With a `cache`, a successfully loaded artifact is inserted so later
  /// create() calls warm-hit, and retried-then-successful loads are counted
  /// in the cache stats.
  static Status create_from_file(const std::string& path, const Csr<T>& lower,
                                 const Options& opt,
                                 std::unique_ptr<BlockSolver<T>>* out,
                                 PlanCache<T>* cache = nullptr);

  /// Installs the numeric values of `lower` — which must have the exact
  /// sparsity pattern this solver was built for (checked via the structure
  /// hash; kStructureMismatch otherwise) — into every block structure
  /// without re-running any analysis. After Ok, solves behave exactly as if
  /// the solver had been cold-built from `lower`. A solver rehydrated from a
  /// shard slice holds only its shard's blocks and returns
  /// kInvalidArgument. Not thread safe with concurrent solves on this
  /// solver.
  Status refresh_values(const Csr<T>& lower);

  /// Canonical hash of the original (unpermuted) input pattern — the
  /// artifact/cache key (analysis/features.hpp structure_hash).
  std::uint64_t structure_hash() const { return structure_hash_; }

  /// Fingerprint of the plan-affecting Options fields (scheme, planner,
  /// kernel selection, thresholds). Runtime-only fields (threads, the verify
  /// knobs, fault injection) are deliberately excluded — a cached plan is
  /// reusable across them.
  static std::uint64_t options_fingerprint(const Options& opt);

  /// Solves L x = b (host execution only).
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Allocation-free solve into caller storage: `b` and `x` are length-n
  /// arrays (they may not alias). The entry/exit permutations run as single
  /// fused scatter/gather passes over a leased workspace, so after the first
  /// (warm-up) call per shape this path performs zero heap allocations — the
  /// serving fast path, enforced by tests/test_alloc.cpp. Every solve entry
  /// point is reentrant: concurrent callers lease independent workspaces
  /// from a bounded pool (Options::session), and at threads = 1 concurrent
  /// results are bitwise identical to serial ones. Throws blocktri::Error
  /// only for the session faults the Status overload types (pool exhaustion
  /// in failing mode, strict-reentrancy violations, spin timeouts).
  void solve(const T* b, T* x) const;

  /// Resilient solve: like the raw solve() but cooperative — `controls`
  /// carries an optional deadline, cancel token and spin-wait budget that
  /// the executor polls at step/wave granularity (and the kernels poll at
  /// level/chunk granularity). On kDeadlineExceeded / kCancelled, `x` holds
  /// the partial permuted progress gathered back (diagnostic only) and
  /// `rep` (optional) reports steps_completed/steps_total. Returns
  /// kPoolExhausted when the workspace pool is drained in failing mode and
  /// kReentrantSolve under session.strict_reentrancy.
  Status solve(const T* b, T* x, const SolveControls& controls,
               SolveReport* rep = nullptr) const;

  /// Allocation-free batched solve into caller storage: `B` and `X` are
  /// n × k column-major panels. Same workspace/warm-up/reentrancy contract
  /// as the raw-pointer solve().
  void solve_many(const T* B, T* X, index_t k) const;

  /// Resilient batched solve — the solve_many counterpart of the
  /// Status-returning solve() overload, with the same controls semantics.
  Status solve_many(const T* B, T* X, index_t k,
                    const SolveControls& controls,
                    SolveReport* rep = nullptr) const;

  /// Gather/scatter batched solve: column c is read from Bs[c] and written
  /// to Xs[c] (each an n-vector), with no contiguous panel required on
  /// either side. The entry permutation gathers the scattered columns
  /// straight into the solver's interleaved workspace and the exit
  /// permutation scatters back, so callers batching k independent
  /// right-hand sides (e.g. the solve service's coalescing queue) pay zero
  /// panel-assembly or demux copies. Column c of the result is bitwise
  /// identical to solve(Bs[c], Xs[c]).
  Status solve_many(const T* const* Bs, T* const* Xs, index_t k,
                    const SolveControls& controls,
                    SolveReport* rep = nullptr) const;

  /// Batched solve of k right-hand sides against the same plan: `B` is an
  /// n × k column-major panel (column c occupies [c·n, (c+1)·n)) and the
  /// returned X uses the same layout. One pass over the execution steps
  /// solves every column per step, so the plan, per-block structures and
  /// level sets are streamed once per step instead of once per RHS. With
  /// threads > 1 the wave executor parallelises over steps × column chunks;
  /// every batched kernel is deterministic, so the result is bitwise
  /// identical to k independent solve() calls at threads = 1, at any thread
  /// count.
  std::vector<T> solve_many(const std::vector<T>& B, index_t k) const;

  /// Hardened solve: validates b (size, finiteness), runs the block solve
  /// with the per-block fallback ladder, then verifies the normwise residual
  /// and applies up to verify.max_refinements rounds of iterative refinement
  /// when it exceeds the tolerance. Never throws on bad numerics — the
  /// outcome is typed in SolveResult::status and itemised in the report.
  ///
  /// On top of the per-block ladder, a whole-solve degradation ladder
  /// (gated on verify.fallback) retries the complete solve on progressively
  /// more conservative rungs — parallel → serial executor, then SIMD
  /// vector → blocked → strict lowering — when an attempt ends in
  /// kNumericalBreakdown, a sync-free spin timeout, or a residual still
  /// above tolerance after refinement. Each demotion is recorded as a
  /// DegradeEvent; the report's fallbacks describe the final attempt only.
  SolveResult<T> solve_checked(const std::vector<T>& b) const;

  /// solve_checked with cooperative controls: deadline/cancel trips are
  /// terminal (never retried by the ladder) and surface as
  /// kDeadlineExceeded / kCancelled with partial progress in the report.
  SolveResult<T> solve_checked(const std::vector<T>& b,
                               const SolveControls& controls) const;

  /// Hardened batched solve: validates the panel, runs the batched block
  /// solve with the per-block fallback ladder engaged per column (a bad
  /// column degrades alone — the healthy columns keep their fast batched
  /// result), then verifies every column's normwise residual and applies
  /// per-column iterative refinement. The batched attempt runs on the
  /// interleaved panel of solve_many. The whole-solve degradation ladder
  /// applies at panel granularity: when a
  /// batched attempt breaks down or any column's residual survives
  /// refinement, the entire panel retries on the next rung.
  SolveManyResult<T> solve_many_checked(const std::vector<T>& B,
                                        index_t k) const;

  /// solve_many_checked with cooperative controls (see solve_checked).
  SolveManyResult<T> solve_many_checked(const std::vector<T>& B, index_t k,
                                        const SolveControls& controls) const;

  /// Solves on the host (serially) and accounts simulated GPU time into
  /// `report`: one model::replay of the plan's steps over the paper's view
  /// of each block. `cache` carries locality across calls (pass the same
  /// cache for warm-cache measurements; nullptr models a cache-less device).
  /// `breakdown` (optional) splits the time between triangular and SpMV
  /// kernels.
  std::vector<T> solve_simulated(const std::vector<T>& b,
                                 const sim::GpuSpec& gpu,
                                 sim::CacheModel* cache,
                                 sim::SolveReport* report,
                                 BlockSolveBreakdown* breakdown = nullptr,
                                 bool fp64 = sizeof(T) == 8) const;

  // --- Introspection -------------------------------------------------------

  struct TriBlockInfo {
    index_t r0 = 0, r1 = 0;
    TriKernelKind kind = TriKernelKind::kSyncFree;
    index_t nlevels = 0;
    offset_t nnz = 0;
  };
  struct SquareBlockInfo {
    SquareBlockRef ref{};
    SpmvKernelKind kind = SpmvKernelKind::kScalarCsr;
    offset_t nnz = 0;
    double empty_ratio = 0.0;
  };

  const BlockPlan& plan() const { return plan_; }
  const std::vector<TriBlockInfo>& tri_info() const { return tri_info_; }
  const std::vector<SquareBlockInfo>& square_info() const {
    return square_info_;
  }

  index_t n() const { return plan_.n; }
  offset_t nnz() const { return nnz_; }

  /// Effective host thread count after the BLOCKTRI_THREADS override.
  int threads() const { return threads_; }

  /// Live counters of the leased-workspace pool: total leases, creations,
  /// blocking waits, failed (exhausted) acquisitions, and current in-use.
  WorkspacePoolStats workspace_stats() const { return ws_pool_->stats(); }

  /// The executor's step waves (mutually independent steps grouped for
  /// concurrent execution) — introspection for tests and the explorer.
  const std::vector<std::vector<ExecStep>>& step_waves() const {
    return waves_;
  }

  // --- Shard-worker hooks (src/shard) ---------------------------------------
  // A shard worker executes a *subsequence* of this solver's plan steps
  // against an externally managed interleaved panel (the shared-memory
  // x/b regions), so it needs the per-step executor without the surrounding
  // permute/workspace machinery. Serial (the worker is single-threaded);
  // bitwise-identical to the same step inside solve_many.

  /// Runs one plan step against interleaved n × k panels `bw`/`xw`
  /// (element (i, c) at i·k + c). `tri_scratch` is unused — no kernel needs
  /// scratch — and kept so existing callers compile; pass nullptr.
  void exec_plan_step_many(const ExecStep& step, T* bw, T* xw, index_t k,
                           [[maybe_unused]] T* tri_scratch,
                           const ExecControl* ctl = nullptr) const {
    exec_step_many(step, bw, xw, 0, k, nullptr, ctl, k);
  }

  /// Always 0: the scratch exec_plan_step_many once took is gone. Kept so
  /// existing callers compile.
  std::size_t tri_scratch_len() const { return 0; }

  /// Nonzeros that ended up in square blocks — the §3.3 claim that the
  /// reordering concentrates work into the parallel-friendly SpMV parts.
  offset_t nnz_in_squares() const;

  /// Host-model preprocessing cost (Table 5 column 1).
  struct PreprocessStats {
    std::int64_t host_ops = 0;
    std::int64_t host_bytes = 0;
    double model_ms = 0.0;
  };
  PreprocessStats preprocess_stats() const;

  /// True when this solver was built with Options::tune.enabled (cold tuned
  /// build) or rehydrated from an artifact captured by one. Whether the
  /// search actually beat the default plan is tune_stats().fell_back.
  bool tuned() const { return tuned_; }
  /// Level-merge width every level-set block of this solver was built with.
  offset_t level_merge_width() const { return merge_width_; }
  /// Search diagnostics of the cold tuned build (zeros for untuned solvers
  /// and artifact rehydrations, which re-run no search).
  const tune::TuneStats& tune_stats() const { return tune_stats_; }

 private:
  /// Rehydration: adopt a captured (and validated) artifact instead of
  /// analyzing. A const `art` (shared, e.g. by a PlanCache) is copied: with
  /// `with_values` every array; without, only the index arrays, level sets
  /// and schedules, each value array sized for install_values to fill (a
  /// diagonal block keeps its captured pivots, which the solver requires
  /// nonzero). An `art` its owner gives up (an rvalue) hands over every
  /// array by move, values included, and is left empty. The fingerprint and
  /// validation preconditions are rehydrate()'s job.
  template <class Art>
    requires std::same_as<std::remove_cvref_t<Art>, PlanArtifact<T>>
  BlockSolver(Art&& art, const Options& opt, bool with_values);

  /// Options-fingerprint check, then validate_artifact unless `validated`
  /// says the caller already ran it (load_artifact, or a trusted PlanCache
  /// entry), then adoption — of every array, or of the structure only; by
  /// copy, or by move from an rvalue `art` — with any invariant throw from
  /// artifact-derived state mapped back to its Status.
  template <class Art>
  static Status rehydrate(Art&& art, const Options& opt, bool validated,
                          bool with_values,
                          std::unique_ptr<BlockSolver<T>>* out);

  /// The install path a cache hit and create_from_file share: structure-only
  /// rehydration of the validated `art` (moved from when it is an rvalue),
  /// then install_values(lower). The caller has checked `lower`
  /// (check_lower_triangular) and matched its structure hash against `art`.
  template <class Art>
  static Status warm_start(Art&& art, const Csr<T>& lower, const Options& opt,
                           std::unique_ptr<BlockSolver<T>>* out);

  /// The cold build for a caller that already ran check_lower_triangular on
  /// `lower` and computed its structure hash (`structure`): neither is
  /// repeated. The public constructor validates and delegates here.
  BlockSolver(const Csr<T>& lower, const Options& opt,
              std::uint64_t structure);

  /// One triangular leaf: the sub-solver of its kind holds its rows (a
  /// diagonal block only its pivots) — the one copy every path reads.
  struct TriBlock {
    TriBlockInfo info;
    std::unique_ptr<DiagonalSolver<T>> diag;
    std::unique_ptr<LevelSetSolver<T>> levelset;
    std::unique_ptr<SyncFreeSolver<T>> syncfree;
    std::unique_ptr<CusparseLikeSolver<T>> cusparse;
  };
  /// One square: its non-empty rows by window and length
  /// (kSquareWindowRows), the one layout every kernel kind runs on the host.
  /// The kind is the plan's decision (Alg. 7), which the model replays on
  /// the paper's view of the rows (solve_simulated).
  struct SquareBlock {
    SquareBlockInfo info;
    Dcsr<T> rows;
  };

  /// `ctl` is the session's cooperative control (nullable).
  void exec_tri(const TriBlock& blk, const T* b, T* x,
                ThreadPool* pool = nullptr,
                const ExecControl* ctl = nullptr) const;
  /// The model's view of a triangle's held structure.
  static model::TriView tri_view(const TriBlock& blk);
  /// The rows the fallback rungs solve from: the kernel's own CSR, or — for
  /// a diagonal block, which holds only pivots — rows built into `built`.
  const Csr<T>& tri_rows(const TriBlock& blk, Csr<T>& built) const;
  /// y −= A·x over the square's listed rows, whatever its kind.
  void exec_square(const SquareBlock& blk, const T* x, T* y,
                   ThreadPool* pool = nullptr) const;
  /// One ExecStep of the host solve (no simulation, no ladder).
  void exec_step(const ExecStep& step, T* bw, T* xw, ThreadPool* pool,
                 const ExecControl* ctl) const;
  /// Batched counterparts (host only): b/x/y point at the block's first row
  /// of a row-interleaved panel whose row stride is `ld`.
  void exec_tri_many(const TriBlock& blk, const T* b, T* x, index_t k,
                     ThreadPool* pool, const ExecControl* ctl,
                     index_t ld) const;
  void exec_square_many(const SquareBlock& blk, const T* x, T* y, index_t k,
                        ThreadPool* pool, index_t ld) const;
  /// One ExecStep of the batched host solve over panel columns [c0, c1) of
  /// a row-interleaved panel with row stride `ld` (a sub-panel is base + c0
  /// with the same stride, so [c0, c1) needs no kernel-side column offsets).
  void exec_step_many(const ExecStep& step, T* bw, T* xw, index_t c0,
                      index_t c1, ThreadPool* pool, const ExecControl* ctl,
                      index_t ld) const;
  /// The value install of refresh_values, a cache hit and create_from_file,
  /// for a caller that already validated `lower` and matched its structure
  /// hash against this solver's: one pass over the held blocks through the
  /// value map (install_through). A shard slice returns kInvalidArgument
  /// before anything is written.
  Status install_values(const Csr<T>& lower);

  /// install_values for map entries of type W. The rows go window by window
  /// (kSquareWindowRows), as the residual reads them: each covering square's
  /// run of listed rows in storage order, squares by first column, then each
  /// row's triangle row, so every row takes its slots in the order the build
  /// walk read them — its map entries' order. Each slot reads `lower.val` at
  /// its caller row's start plus its map entry, which must lie inside that
  /// row, be taken once, and hold the column the slot holds; each row must
  /// take exactly its caller row's entries. ‖L‖∞ is summed in slot order, as
  /// the build walk sums it. A violation is kStructureMismatch (values may
  /// be partly written).
  template <class W>
  Status install_through(const Csr<T>& lower);

  /// Ok for a whole plan; for a shard slice, the kInvalidArgument every
  /// whole-matrix entry point returns.
  Status whole_matrix() const;

  /// What a build walk fills besides the block arrays it writes in place.
  struct BuildState;

  /// The cold build's pass over the permuted rows. Each row of `lower` is
  /// gathered through the permutation and ordered as permute_symmetric
  /// orders it — std::sort by column when the plan permutes (or is HBMC's,
  /// whose planner always permuted), as given when the plan is the identity
  /// and the row sorted, sorted when it is not. The row must end in its
  /// diagonal, and every entry must land in a square that covers it or in
  /// its row's triangle. Its triangle part is appended to the triangle, and
  /// each triangle row's level is computed; its run in each covering square
  /// waits until the row's window (kSquareWindowRows) ends, when the
  /// window's runs are placed in every square by (length, row id). The
  /// arrays are sized exactly beforehand and every one must end exactly
  /// full. Each value's position in its caller row goes to build->map in
  /// row order (each row's squares by first column, then its triangle), and
  /// ‖L‖∞ is summed on the way. A violation is kInternal: the planner's
  /// layout is wrong.
  Status walk_rows(const Csr<T>& lower, BuildState* build);

  /// The cold build after planning: sizes every block array from `counts`
  /// (counting them first when the planner did not), runs the build walk,
  /// then picks each block's kernel — the tuner's choices when `tuned` is
  /// given — and hands the filled arrays to it. Throws kInternal when the
  /// walk finds the plan's layout broken.
  void build_blocks(const Csr<T>& lower, BlockNnz counts,
                    const tune::TunedPlan<T>* tuned);
  /// One pass over the execution steps with the fallback ladder armed.
  /// Consumes bw (square blocks accumulate into it). `epool` is this call's
  /// arbitrated executor pool (null → serial), `ctl` the cooperative
  /// control: deadline/cancel trips return its typed Status immediately; a
  /// sync-free spin timeout is consumed and healed by the spin-free rungs
  /// when the ladder is enabled. `rep->steps_completed` tracks progress.
  Status run_steps_checked(std::vector<T>& bw, std::vector<T>& xw,
                           SolveReport* rep, ThreadPool* epool,
                           const ExecControl* ctl) const;
  /// Batched ladder pass over row-interleaved n × k panels: each step runs
  /// as the plain panel executor runs it; a column with non-finite output
  /// degrades alone through the single-RHS rungs (its slices staged through
  /// the length-n `bc`/`xc`), recorded in its own report.
  Status run_steps_checked_many(T* bw, T* xw, index_t k,
                                std::vector<SolveReport>* reps,
                                ThreadPool* epool, const ExecControl* ctl,
                                T* bc, T* xc) const;
  /// r = bw0 − L·xw over the blocks, for permuted row-interleaved n × k
  /// panels (element (i, c) at i·k + c; k = 1 for vectors; r may not alias
  /// xw/bw0). The rows go window by window (kSquareWindowRows), so each
  /// covering square is read as one run of listed rows. Each row of each
  /// column accumulates in double, in the order the row walk read it: its
  /// squares' entries by ascending first column, then its triangle entries,
  /// diagonal last.
  void residual_into(const T* xw, const T* bw0, T* r, index_t k,
                     ThreadPool* epool) const;
  /// The normwise relative residual ‖r‖∞ / (‖L‖∞‖x‖∞ + ‖b‖∞) of each of the
  /// k columns into norms[0, k), the residual panel staged through `r`.
  void residual_norms(const T* xw, const T* bw0, index_t k, T* r,
                      double* norms, ThreadPool* epool) const;
  double default_residual_tolerance() const;
  /// Adds the per-solve operation counters (Options::collect_stats) — flops
  /// and bytes from the block nnz, level-merge savings from the level-set
  /// blocks' execution groups.
  void accumulate_op_stats(SolveReport* rep) const;

  /// Shared body of the panel solves. Exactly one of `B`/`Bs` is non-null
  /// (likewise `X`/`Xs`): the contiguous form reads column c at B + c·n,
  /// the gather form through the pointer table. Branching here instead of
  /// delegating through a built pointer array keeps the warm contiguous
  /// path allocation-free.
  Status solve_many_impl(const T* B, const T* const* Bs, T* X, T* const* Xs,
                         index_t k, const SolveControls& controls,
                         SolveReport* rep) const;

  Options opt_;
  std::uint64_t structure_hash_ = 0;  // of the original (unpermuted) pattern
  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // only when threads_ > 1
  std::vector<std::vector<ExecStep>> waves_;
  BlockPlan plan_;
  offset_t nnz_ = 0;
  double norm_inf_ = 0.0;  // ‖L‖∞ of the permuted matrix
  ValueMap value_map_;     // where each held value comes from (installs)
  std::vector<TriBlock> tri_;
  std::vector<SquareBlock> squares_;
  std::vector<TriBlockInfo> tri_info_;
  std::vector<SquareBlockInfo> square_info_;
  std::int64_t build_ops_ = 0;    // block build cost counters (Table 5)
  std::int64_t build_bytes_ = 0;
  bool tuned_ = false;            // this solver runs an autotuned plan
  // Names the shard slice (src/shard) this solver was rehydrated from, empty
  // otherwise: a slice populates only its shard's blocks, so the
  // whole-matrix value install refuses it.
  std::string slice_;
  offset_t merge_width_ = kLevelMergeMaxWidth;  // level-set exec-group bound
  tune::TuneStats tune_stats_;    // cold tuned builds only

  /// Reusable buffers backing the allocation-free solve paths. Vectors only
  /// ever grow (resize never shrinks capacity), so after the first solve of
  /// each shape every entry point runs without heap traffic. Instances live
  /// in ws_pool_ and are leased per call — concurrent solves each hold a
  /// private workspace, which is what makes the solve entry points
  /// reentrant.
  struct SolveWorkspace {
    std::vector<T> bw;           // permuted rhs (n, or n·k for panels)
    std::vector<T> xw;           // permuted solution (n, or n·k)
    std::vector<T> bw0;          // checked paths: pristine permuted rhs
    std::vector<T> rw;           // refinement residual
    std::vector<T> dw;           // refinement correction
    std::vector<T> xc, bc;       // solve_many_checked per-column staging
  };

  /// Leases a workspace from ws_pool_. When `ctl` is armed, a blocking
  /// acquisition races the caller's deadline/cancel instead of sleeping
  /// forever on a drained pool: the denial is tripped on `ctl` so callers
  /// surface ctl.to_status(). An empty lease with `ctl` untripped means the
  /// pool is exhausted in failing mode — callers surface
  /// pool_exhausted_status().
  typename WorkspacePool<SolveWorkspace>::Lease acquire_workspace(
      const ExecControl* ctl = nullptr) const;
  Status pool_exhausted_status() const;

  /// Bounded, never-shrinking pool of per-call workspaces (capacity and
  /// exhaustion behaviour from Options::session).
  std::unique_ptr<WorkspacePool<SolveWorkspace>> ws_pool_;
  /// Arbitrates pool_ between concurrent callers: the try_lock winner drives
  /// the parallel wave executor, every other in-flight solve runs serial.
  mutable std::mutex exec_mu_;
  /// In-flight solve count — the strict_reentrancy debug guard's evidence.
  mutable std::atomic<int> in_flight_{0};
};

}  // namespace blocktri
