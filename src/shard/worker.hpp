// Shard worker process body (DESIGN.md §15).
//
// A worker is forked by ShardCoordinator::create, inherits the shared-memory
// mapping and one end of its control socketpair, rehydrates the whole plan
// from the coordinator's .btpa (zero level-set re-analysis — the warm-start
// contract, reported in its Hello), and then serves solve epochs: each
// epoch's command names a contiguous range of the shared panels' columns,
// which the worker solves with its own solver's solve_many, the segment's
// abort flag as the cancel token.
//
// The worker never returns: every exit path is _exit() (no atexit handlers,
// no double-flushed stdio inherited from the parent). It installs no signal
// handlers — a SIGKILL fault-injection test must see the untouched default
// disposition.
#pragma once

#include <string>

#include "core/solver.hpp"
#include "shard/shm.hpp"

namespace blocktri::shard {

template <class T>
struct WorkerConfig {
  int control_fd = -1;  // worker end of the control socketpair
  int shard_index = 0;
  std::string artifact_path;  // the plan every worker loads
  typename BlockSolver<T>::Options options;  // threads = 1
  ShmHeader* header = nullptr;  // inherited shm mapping
  T* x_panel = nullptr;
  T* b_panel = nullptr;
};

/// The forked child's whole life. Calls _exit — never returns.
template <class T>
[[noreturn]] void run_worker(const WorkerConfig<T>& cfg);

}  // namespace blocktri::shard
