// Sharded multi-process solve coordinator (DESIGN.md §15).
//
// ShardCoordinator::create captures a BlockSolver's plan once, saves it as a
// .btpa, maps a shared-memory panel region, and forks P worker processes
// that each rehydrate the whole plan with zero re-analysis. Each solve is an
// *epoch* that splits the panel by columns: the coordinator copies the
// right-hand sides into the shared b panel, bumps the epoch sequence
// (release), and sends worker i a SolveCmd for its contiguous share of the
// columns; each worker runs its own solver's solve_many on them and reports
// over its control pipe; the coordinator copies the shared x columns back.
// The batched kernels are per-column deterministic, so the result is
// bitwise identical to the base solver's solve_many at any shard count.
//
// Failure containment: a worker that dies (waitpid) or does not report
// within shard.epoch_timeout_ms turns the epoch into a typed kWorkerLost —
// never a hang. The shared segment is unlinked at creation (workers inherit
// the mapping), so no crash can leak a named segment; dead workers are
// reaped with targeted waitpid and respawned from the saved plan before the
// next epoch (a respawn re-runs the warm path: zero re-analysis). With
// shard.fallback_inprocess the lost epoch is transparently re-run on the
// base solver in process.
#pragma once

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "shard/shm.hpp"

namespace blocktri::shard {

/// Cumulative coordinator telemetry (monotonic; returned by value).
struct CoordinatorStats {
  std::uint64_t epochs = 0;          // solve epochs attempted
  std::uint64_t workers_lost = 0;    // dead or hung workers detected
  std::uint64_t fallbacks = 0;       // epochs re-run on the base solver
  std::uint64_t respawns = 0;        // workers re-forked from the saved plan
  // Workers share no rows, so no worker waits on another: these stay 0.
  // They are kept for callers that read them.
  std::uint64_t halo_ready = 0;
  std::uint64_t halo_deferred = 0;
  double wait_ms = 0.0;
  /// Level-set analyses performed by workers across rehydrations and
  /// epochs — the warm-start proof is that this stays 0.
  std::uint64_t worker_level_analyses = 0;
};

template <class T>
class ShardCoordinator {
 public:
  using Options = typename BlockSolver<T>::Options;

  /// Builds the shard pool for `base` (which must stay alive and unchanged
  /// for the coordinator's lifetime — it provides the captured plan and the
  /// in-process fallback). `opt.shard.processes` workers are forked, 1 to
  /// kMaxShards. Failure leaves *out untouched with every child process,
  /// file and mapping cleaned up.
  static Status create(const BlockSolver<T>& base, const Options& opt,
                       std::unique_ptr<ShardCoordinator<T>>* out);

  /// Shuts the pool down: Shutdown frames (EOF works too), bounded waitpid,
  /// SIGKILL for stragglers, targeted reaps, the plan file unlinked.
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Sharded solve of L x = b. Bitwise identical to base.solve(b, x).
  Status solve(const T* b, T* x, const SolveControls& controls = {},
               SolveReport* rep = nullptr);

  /// Sharded batched solve of an n × k column-major panel: worker i solves
  /// columns [k·i/P, k·(i+1)/P). Bitwise identical to base.solve_many(B, X,
  /// k). k must be <= max_panel().
  Status solve_many(const T* B, T* X, index_t k,
                    const SolveControls& controls = {},
                    SolveReport* rep = nullptr);

  /// Gather/scatter form: column c read from Bs[c], written to Xs[c] — the
  /// solve service's coalescing front end feeds panels this way.
  Status solve_many(const T* const* Bs, T* const* Xs, index_t k,
                    const SolveControls& controls = {},
                    SolveReport* rep = nullptr);

  index_t n() const { return base_->n(); }
  index_t max_panel() const { return k_max_; }
  /// Worker processes (shard.processes).
  int shard_count() const { return count_; }
  /// The (already unlinked) shared segment name, for leak tests.
  const std::string& shm_name() const { return shm_.name(); }
  /// Worker pids, for fault-injection tests (dead entries are -1).
  std::vector<pid_t> worker_pids() const;
  CoordinatorStats stats() const;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;  // coordinator end of the control socketpair
    bool alive = false;
  };

  ShardCoordinator() = default;

  /// Forks worker `i` from the saved plan and awaits its Hello.
  Status spawn_worker(int i);
  /// Re-forks every dead worker; Ok when the full pool is alive again.
  Status respawn_dead_locked();
  /// Marks `w` dead, reaps it (targeted waitpid), closes its fd.
  void retire_worker_locked(Worker& w, bool kill_first);
  /// One epoch over panels delivered via either contiguous or pointer form.
  Status run_epoch_locked(const T* B, const T* const* Bs, T* X, T* const* Xs,
                          index_t k, const SolveControls& controls,
                          SolveReport* rep);

  const BlockSolver<T>* base_ = nullptr;
  Options opt_;
  typename BlockSolver<T>::Options worker_opt_;
  int count_ = 0;
  index_t k_max_ = 1;
  SharedRegion<T> shm_;
  std::vector<Worker> workers_;
  std::string plan_path_;  // the saved plan every worker loads
  std::uint64_t seq_ = 0;
  mutable std::mutex mu_;  // one epoch at a time; stats reads
  CoordinatorStats stats_;
};

}  // namespace blocktri::shard
