#include "shard/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/levels.hpp"
#include "persist/plan_cache.hpp"
#include "shard/control.hpp"
#include "shard/shard_plan.hpp"

namespace blocktri::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// True once every upstream watermark a step needs has been published.
/// Acquire loads: a satisfied wait also makes the covered x rows visible.
bool halo_ready(const ShmHeader* hdr, const LocalStep& ls) {
  for (const LocalStep::HaloWait& w : ls.waits) {
    if (hdr->progress[w.upstream].rows.load(std::memory_order_acquire) <
        static_cast<std::int64_t>(w.watermark))
      return false;
  }
  return true;
}

}  // namespace

template <class T>
void run_worker(const WorkerConfig<T>& cfg) {
  const std::uint64_t analyses_at_start = level_analysis_count();

  // Rehydrate the slice through a worker-local PlanCache — the same code
  // path a warm service restart takes, and what a respawned worker reruns.
  PlanCache<T> cache;
  std::unique_ptr<BlockSolver<T>> solver;
  std::vector<std::vector<LocalStep>> schedule;
  HelloMsg hello;
  hello.shard_index = cfg.shard_index;
  {
    auto art = std::make_shared<PlanArtifact<T>>();
    Status st = load_artifact(cfg.artifact_path, art.get());
    if (st.ok()) {
      std::shared_ptr<const PlanArtifact<T>> shared =
          cache.insert(std::move(art));
      schedule = build_local_schedule(*shared);
      st = BlockSolver<T>::create_from_artifact(shared, cfg.options, &solver);
    }
    hello.code = static_cast<std::int32_t>(st.code());
    hello.message = st.message();
  }
  hello.level_analyses = level_analysis_count() - analyses_at_start;
  if (!write_hello(cfg.control_fd, hello).ok() || hello.code != 0) _exit(1);

  ShmHeader* hdr = cfg.header;
  const auto self = cfg.shard_index;
  const auto& fault = cfg.options.shard.fault;
  const double epoch_timeout_ms =
      cfg.options.shard.epoch_timeout_ms > 0
          ? static_cast<double>(cfg.options.shard.epoch_timeout_ms)
          : 10000.0;

  for (;;) {
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;
    bool clean_eof = false;
    if (!read_any_frame(cfg.control_fd, &type, &payload, &clean_eof).ok() ||
        clean_eof)
      _exit(0);  // coordinator went away: quiet, orderly exit
    if (type == static_cast<std::uint8_t>(ControlFrame::kShutdown)) _exit(0);
    if (type != static_cast<std::uint8_t>(ControlFrame::kSolveCmd)) _exit(1);

    SolveCmdMsg cmd;
    if (!decode_solve_cmd(payload, &cmd).ok()) _exit(1);
    if (cmd.k > hdr->k_max) _exit(1);
    // The coordinator release-stored the epoch after staging the b panel
    // and resetting the watermarks; this acquire pairs with it.
    if (hdr->solve_seq.load(std::memory_order_acquire) != cmd.seq) _exit(1);

    ReportMsg report;
    report.seq = cmd.seq;
    const std::uint64_t analyses_at_epoch = level_analysis_count();
    const index_t k = cmd.k;
    T* xw = cfg.x_panel;
    T* bw = cfg.b_panel;
    std::uint64_t steps_run = 0;
    double wait_ms = 0.0;
    Status epoch_status;

    const auto maybe_fault = [&]() {
      if (fault.kill_worker == self &&
          steps_run >= static_cast<std::uint64_t>(fault.after_steps))
        raise(SIGKILL);
      if (fault.hang_worker == self &&
          steps_run >= static_cast<std::uint64_t>(fault.after_steps)) {
        // Unresponsive but alive: the epoch-timeout detector's other case.
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    };

    const auto run_step = [&](const LocalStep& ls) {
      solver->exec_plan_step_many(ls.step, bw, xw, k, nullptr);
      ++steps_run;
      if (ls.publish > 0)
        hdr->progress[self].rows.store(static_cast<std::int64_t>(ls.publish),
                                       std::memory_order_release);
      maybe_fault();
    };

    std::vector<const LocalStep*> deferred;
    for (const std::vector<LocalStep>& wave : schedule) {
      if (!epoch_status.ok()) break;
      // Pass 1 — overlap: run everything whose halo is already in, defer
      // boundary squares still waiting on an upstream shard. Wave members
      // are mutually independent, so this reordering is bitwise-neutral.
      deferred.clear();
      for (const LocalStep& ls : wave) {
        if (ls.waits.empty() || halo_ready(hdr, ls)) {
          run_step(ls);
          if (!ls.waits.empty()) ++report.halo_ready;
        } else {
          ++report.halo_deferred;
          deferred.push_back(&ls);
        }
      }
      // Pass 2 — bounded wait on the stragglers, in wave order.
      for (const LocalStep* ls : deferred) {
        const auto wait_begin = Clock::now();
        bool aborted = false;
        while (!halo_ready(hdr, *ls)) {
          if (hdr->abort.load(std::memory_order_acquire) != 0) {
            aborted = true;
            break;
          }
          const double waited =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        wait_begin)
                  .count();
          if (waited > epoch_timeout_ms) {
            epoch_status = Status(
                StatusCode::kSpinTimeout,
                "halo wait for an upstream shard exceeded the epoch timeout");
            break;
          }
          std::this_thread::yield();
        }
        wait_ms += std::chrono::duration<double, std::milli>(Clock::now() -
                                                             wait_begin)
                       .count();
        if (aborted) {
          epoch_status = Status(StatusCode::kCancelled,
                                "epoch aborted by the coordinator");
          break;
        }
        if (!epoch_status.ok()) break;
        run_step(*ls);
      }
    }

    report.code = static_cast<std::int32_t>(epoch_status.code());
    report.message = epoch_status.message();
    report.steps_run = steps_run;
    report.wait_ms = wait_ms;
    report.level_analyses = level_analysis_count() - analyses_at_epoch;
    if (!write_report(cfg.control_fd, report).ok()) _exit(1);
  }
}

template void run_worker(const WorkerConfig<float>&);
template void run_worker(const WorkerConfig<double>&);

}  // namespace blocktri::shard
