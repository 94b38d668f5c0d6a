#include "shard/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

#include "persist/artifact.hpp"
#include "shard/control.hpp"
#include "shard/worker.hpp"

namespace blocktri::shard {

namespace {

using Clock = std::chrono::steady_clock;

std::string plan_dir(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* tmp = std::getenv("TMPDIR"); tmp != nullptr && *tmp != '\0')
    return tmp;
  return "/tmp";
}

Status worker_lost(const std::string& what) {
  return Status(StatusCode::kWorkerLost, what);
}

/// Targeted, WNOHANG-first reap. Never waitpid(-1): the embedding process
/// (the solve service, a test harness) may own children of its own, and a
/// wildcard wait would steal their exit statuses.
void reap(pid_t pid) {
  if (pid <= 0) return;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r == pid || (r < 0 && errno != EINTR)) return;
  }
}

bool exited(pid_t pid) {
  if (pid <= 0) return true;
  int status = 0;
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  return r == pid || (r < 0 && errno == ECHILD);
}

}  // namespace

template <class T>
Status ShardCoordinator<T>::create(const BlockSolver<T>& base,
                                   const Options& opt,
                                   std::unique_ptr<ShardCoordinator<T>>* out) {
  BLOCKTRI_CHECK(out != nullptr);
  if (opt.shard.processes < 1)
    return Status(StatusCode::kInvalidArgument,
                  "shard.processes must be >= 1 for a sharded coordinator");
  if (opt.shard.processes > kMaxShards)
    return Status(StatusCode::kInvalidArgument,
                  "shard.processes exceeds the supported maximum of " +
                      std::to_string(kMaxShards));

  std::unique_ptr<ShardCoordinator<T>> coord(new ShardCoordinator<T>());
  coord->base_ = &base;
  coord->opt_ = opt;
  coord->count_ = opt.shard.processes;
  coord->k_max_ = std::max<index_t>(1, opt.shard.max_panel);

  // Workers rehydrate under runtime options of their own: single-threaded,
  // no in-process fault hooks, and of course no nested sharding. None of
  // these fields are in the options fingerprint.
  coord->worker_opt_ = opt;
  coord->worker_opt_.threads = 1;
  coord->worker_opt_.collect_stats = false;
  coord->worker_opt_.fault = {};
  coord->worker_opt_.shard.processes = 0;

  // Save the plan once, stamped with the fingerprint of the Options the
  // workers rehydrate under. The salted name keeps concurrent coordinators
  // (parallel test shards included) from colliding.
  {
    std::random_device rd;
    const std::uint64_t salt = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s/bt-shard-%ld-%016llx.btpa",
                  plan_dir(opt.shard.artifact_dir).c_str(),
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(salt));
    PlanArtifact<T> art = base.capture_artifact();
    art.options = BlockSolver<T>::options_fingerprint(coord->worker_opt_);
    if (Status st = save_artifact(buf, art); !st.ok()) return st;
    coord->plan_path_ = buf;
  }

  if (Status st = SharedRegion<T>::create(base.n(), coord->k_max_,
                                          &coord->shm_);
      !st.ok())
    return st;

  coord->workers_.resize(static_cast<std::size_t>(coord->count_));
  for (int i = 0; i < coord->count_; ++i)
    if (Status st = coord->spawn_worker(i); !st.ok()) return st;

  *out = std::move(coord);
  return Status::Ok();
}

template <class T>
Status ShardCoordinator<T>::spawn_worker(int i) {
  Worker& w = workers_[static_cast<std::size_t>(i)];
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    return Status(StatusCode::kIoError,
                  std::string("socketpair: ") + std::strerror(errno));

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status(StatusCode::kIoError,
                  std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Drop every coordinator-side fd inherited across the fork —
    // holding a sibling's coordinator end would keep that sibling's channel
    // half-open after the coordinator exits.
    ::close(fds[0]);
    for (const Worker& other : workers_)
      if (other.fd >= 0) ::close(other.fd);
    WorkerConfig<T> cfg;
    cfg.control_fd = fds[1];
    cfg.shard_index = i;
    cfg.artifact_path = plan_path_;
    cfg.options = worker_opt_;
    cfg.header = shm_.header();
    cfg.x_panel = shm_.x_panel();
    cfg.b_panel = shm_.b_panel();
    run_worker(cfg);  // _exits, never returns
  }
  ::close(fds[1]);
  w.pid = pid;
  w.fd = fds[0];
  w.alive = true;

  // Await the Hello: the worker is either ready, failed typed (it said
  // why), or dead/silent (bounded by the epoch timeout — never a hang).
  struct pollfd pfd = {w.fd, POLLIN, 0};
  const int timeout_ms = std::max(1, opt_.shard.epoch_timeout_ms);
  int pr;
  do {
    pr = ::poll(&pfd, 1, timeout_ms);
  } while (pr < 0 && errno == EINTR);
  if (pr <= 0) {
    retire_worker_locked(w, /*kill_first=*/true);
    return worker_lost("shard worker " + std::to_string(i) +
                       " sent no hello within the epoch timeout");
  }
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  bool eof = false;
  Status st = read_any_frame(w.fd, &type, &payload, &eof);
  HelloMsg hello;
  if (st.ok() && !eof &&
      type == static_cast<std::uint8_t>(ControlFrame::kHello))
    st = decode_hello(payload, &hello);
  else if (st.ok())
    st = worker_lost("shard worker " + std::to_string(i) +
                     " exited before its hello");
  if (st.ok() && hello.code != 0)
    st = Status(static_cast<StatusCode>(hello.code),
                "shard worker " + std::to_string(i) +
                    " failed to start: " + hello.message);
  if (!st.ok()) {
    retire_worker_locked(w, /*kill_first=*/true);
    return st;
  }
  stats_.worker_level_analyses += hello.level_analyses;
  return Status::Ok();
}

template <class T>
void ShardCoordinator<T>::retire_worker_locked(Worker& w, bool kill_first) {
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  if (w.pid > 0) {
    if (kill_first) ::kill(w.pid, SIGKILL);
    reap(w.pid);
    w.pid = -1;
  }
  w.alive = false;
}

template <class T>
Status ShardCoordinator<T>::respawn_dead_locked() {
  for (int i = 0; i < count_; ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    if (w.alive && !exited(w.pid)) continue;
    if (w.alive) retire_worker_locked(w, /*kill_first=*/false);
    ++stats_.respawns;
    if (Status st = spawn_worker(i); !st.ok()) return st;
  }
  return Status::Ok();
}

template <class T>
ShardCoordinator<T>::~ShardCoordinator() {
  for (Worker& w : workers_) {
    if (!w.alive) continue;
    if (w.fd >= 0) {
      (void)write_shutdown(w.fd);  // EOF below is the backstop
      ::close(w.fd);
      w.fd = -1;
    }
  }
  // Grace period for orderly exits, then SIGKILL the stragglers. Every
  // reap is a targeted waitpid — no zombies, no stolen statuses.
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  for (Worker& w : workers_) {
    if (w.pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid || (r < 0 && errno == ECHILD)) break;
      if (Clock::now() >= deadline) {
        ::kill(w.pid, SIGKILL);
        reap(w.pid);
        break;
      }
      ::usleep(2000);
    }
    w.pid = -1;
    w.alive = false;
  }
  if (!plan_path_.empty()) ::unlink(plan_path_.c_str());
}

template <class T>
Status ShardCoordinator<T>::solve(const T* b, T* x,
                                  const SolveControls& controls,
                                  SolveReport* rep) {
  return solve_many(b, x, 1, controls, rep);
}

template <class T>
Status ShardCoordinator<T>::solve_many(const T* B, T* X, index_t k,
                                       const SolveControls& controls,
                                       SolveReport* rep) {
  std::lock_guard<std::mutex> lock(mu_);
  return run_epoch_locked(B, nullptr, X, nullptr, k, controls, rep);
}

template <class T>
Status ShardCoordinator<T>::solve_many(const T* const* Bs, T* const* Xs,
                                       index_t k,
                                       const SolveControls& controls,
                                       SolveReport* rep) {
  std::lock_guard<std::mutex> lock(mu_);
  return run_epoch_locked(nullptr, Bs, nullptr, Xs, k, controls, rep);
}

template <class T>
Status ShardCoordinator<T>::run_epoch_locked(const T* B, const T* const* Bs,
                                             T* X, T* const* Xs, index_t k,
                                             const SolveControls& controls,
                                             SolveReport* rep) {
  if (k < 1 || k > k_max_)
    return Status(StatusCode::kInvalidArgument,
                  "panel width " + std::to_string(k) +
                      " outside [1, " + std::to_string(k_max_) +
                      "] (shard.max_panel)");
  ++stats_.epochs;

  // The caller's deadline or cancel, as a typed Status (Ok while neither
  // fired). A tripped epoch is never fallen back: a retry cannot beat the
  // clock.
  const auto caller_stop = [&]() -> Status {
    if (controls.deadline.expired())
      return Status(StatusCode::kDeadlineExceeded,
                    "deadline exceeded during the sharded epoch");
    if (controls.cancel != nullptr && controls.cancel->cancelled())
      return Status(StatusCode::kCancelled,
                    "sharded epoch cancelled by the caller");
    return Status::Ok();
  };
  if (Status st = caller_stop(); !st.ok()) return st;

  const auto fall_back = [&](const Status& why) -> Status {
    if (!opt_.shard.fallback_inprocess) return why;
    ++stats_.fallbacks;
    return B != nullptr ? base_->solve_many(B, X, k, controls, rep)
                        : base_->solve_many(Bs, Xs, k, controls, rep);
  };

  // A worker lost in an earlier epoch is respawned here, before the new
  // epoch starts — the saved plan is still on disk, so the respawn re-runs
  // the zero-analysis warm path.
  if (Status st = respawn_dead_locked(); !st.ok()) {
    ++stats_.workers_lost;
    return fall_back(worker_lost("shard worker respawn failed: " +
                                 st.message()));
  }

  // Worker i solves the contiguous columns [k·i/P, k·(i+1)/P). Its columns
  // go into the shared b panel just before its command, and come back out
  // of the x panel as soon as its report arrives, so each copy overlaps the
  // other workers' solves. Every worker gets a command, an idle one too:
  // each epoch proves the whole pool alive.
  ShmHeader* hdr = shm_.header();
  const auto n = static_cast<std::size_t>(base_->n());
  const auto first_column = [&](int i) {
    return static_cast<index_t>(static_cast<std::int64_t>(k) * i / count_);
  };
  const auto stage = [&](int i) {
    for (index_t c = first_column(i); c < first_column(i + 1); ++c) {
      const auto at = static_cast<std::size_t>(c) * n;
      std::memcpy(shm_.b_panel() + at, B != nullptr ? B + at : Bs[c],
                  n * sizeof(T));
    }
  };
  const auto collect = [&](int i) {
    for (index_t c = first_column(i); c < first_column(i + 1); ++c) {
      const auto at = static_cast<std::size_t>(c) * n;
      std::memcpy(X != nullptr ? X + at : Xs[c], shm_.x_panel() + at,
                  n * sizeof(T));
    }
  };
  hdr->abort.reset();
  ++seq_;
  bool lost = false;
  std::vector<bool> reported(static_cast<std::size_t>(count_), false);
  int pending = 0;
  for (int i = 0; i < count_; ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    stage(i);
    // Re-stored after each worker's columns: the worker's acquire of the
    // epoch sequence makes them visible.
    hdr->solve_seq.store(seq_, std::memory_order_release);
    const index_t c0 = first_column(i);
    if (write_solve_cmd(w.fd, {seq_, c0, first_column(i + 1) - c0}).ok()) {
      ++pending;
    } else {
      // Write failure means the peer is gone (EPIPE under MSG_NOSIGNAL).
      // The epoch is lost, but the peers that did get the command must
      // still be drained below — their reports must not leak into the
      // next epoch's socket buffers.
      retire_worker_locked(w, /*kill_first=*/true);
      reported[static_cast<std::size_t>(i)] = true;
      lost = true;
      hdr->abort.cancel();
    }
  }

  // Collect reports. Any report within epoch_timeout_ms resets the clock;
  // a silent pool past the timeout is a hung worker. Dead processes are
  // detected eagerly through EOF on their control fds.
  Status epoch_status;
  bool deadline_tripped = false;
  auto last_motion = Clock::now();
  const int timeout_ms = std::max(1, opt_.shard.epoch_timeout_ms);
  std::vector<ReportMsg> reports(static_cast<std::size_t>(count_));

  while (pending > 0) {
    std::vector<struct pollfd> pfds;
    std::vector<int> idx;
    for (int i = 0; i < count_; ++i) {
      const Worker& w = workers_[static_cast<std::size_t>(i)];
      if (w.alive && !reported[static_cast<std::size_t>(i)]) {
        pfds.push_back({w.fd, POLLIN, 0});
        idx.push_back(i);
      }
    }
    if (pfds.empty()) break;
    int pr = ::poll(pfds.data(), pfds.size(), 50);
    if (pr < 0 && errno == EINTR) continue;
    if (pr > 0) last_motion = Clock::now();

    for (std::size_t j = 0; j < pfds.size(); ++j) {
      if (pfds[j].revents == 0) continue;
      const int i = idx[j];
      Worker& w = workers_[static_cast<std::size_t>(i)];
      std::uint8_t type = 0;
      std::vector<std::uint8_t> payload;
      bool eof = false;
      Status st = read_any_frame(w.fd, &type, &payload, &eof);
      ReportMsg& msg = reports[static_cast<std::size_t>(i)];
      if (st.ok() && !eof &&
          type == static_cast<std::uint8_t>(ControlFrame::kReport))
        st = decode_report(payload, &msg);
      else if (st.ok())
        st = worker_lost("shard worker " + std::to_string(i) +
                         " hung up mid-epoch");
      reported[static_cast<std::size_t>(i)] = true;
      --pending;
      if (!st.ok() || msg.seq != seq_) {
        retire_worker_locked(w, /*kill_first=*/true);
        lost = true;
        // The epoch is lost: stop the other workers' now useless solves.
        hdr->abort.cancel();
        continue;
      }
      if (msg.code == 0)
        collect(i);
      else if (epoch_status.ok())
        epoch_status = Status(static_cast<StatusCode>(msg.code),
                              "shard worker " + std::to_string(i) + ": " +
                                  msg.message);
    }

    // Honour the caller's deadline/cancel: abort the epoch (the workers'
    // solves stop at their next step) but keep draining reports so no stale
    // frame leaks into the next epoch.
    if (!deadline_tripped) {
      if (Status st = caller_stop(); !st.ok()) {
        deadline_tripped = true;
        hdr->abort.cancel();
        epoch_status = std::move(st);
      }
    }

    const double silent_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - last_motion)
            .count();
    if (pending > 0 && silent_ms > timeout_ms) {
      // Hung epoch: abort, SIGKILL every unreported worker, reap, typed loss.
      hdr->abort.cancel();
      for (int i = 0; i < count_; ++i) {
        if (reported[static_cast<std::size_t>(i)]) continue;
        retire_worker_locked(workers_[static_cast<std::size_t>(i)],
                             /*kill_first=*/true);
        reported[static_cast<std::size_t>(i)] = true;
        --pending;
      }
      lost = true;
    }
  }

  if (deadline_tripped) return epoch_status;
  if (lost) {
    ++stats_.workers_lost;
    return fall_back(
        worker_lost("a shard worker died or stalled mid-epoch (epoch " +
                    std::to_string(seq_) + ")"));
  }
  // A worker whose solve failed (a deadline, say) leaves its columns
  // unsolved; the epoch is not recoverable in place.
  if (!epoch_status.ok()) return fall_back(epoch_status);

  // Success: every worker's columns are back in the caller's form.
  for (const ReportMsg& msg : reports)
    stats_.worker_level_analyses += msg.level_analyses;
  if (rep != nullptr) {
    // Every worker that held columns ran the same plan steps for them.
    rep->steps_total = 0;
    rep->steps_completed = 0;
    for (int i = 0; i < count_; ++i) {
      if (first_column(i) == first_column(i + 1)) continue;
      const ReportMsg& msg = reports[static_cast<std::size_t>(i)];
      rep->steps_total = static_cast<index_t>(msg.steps_total);
      rep->steps_completed = static_cast<index_t>(msg.steps_completed);
    }
  }
  return Status::Ok();
}

template <class T>
std::vector<pid_t> ShardCoordinator<T>::worker_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pid_t> pids;
  for (const Worker& w : workers_) pids.push_back(w.alive ? w.pid : -1);
  return pids;
}

template <class T>
CoordinatorStats ShardCoordinator<T>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

template class ShardCoordinator<float>;
template class ShardCoordinator<double>;

}  // namespace blocktri::shard
