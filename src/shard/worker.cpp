#include "shard/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/levels.hpp"
#include "persist/artifact.hpp"
#include "shard/control.hpp"

namespace blocktri::shard {

template <class T>
void run_worker(const WorkerConfig<T>& cfg) {
  const std::uint64_t analyses_at_start = level_analysis_count();

  // Rehydrate the whole plan. The loaded artifact is dropped once the solver
  // holds its own copy, so a worker keeps one copy of the plan.
  std::unique_ptr<BlockSolver<T>> solver;
  HelloMsg hello;
  hello.shard_index = cfg.shard_index;
  {
    auto art = std::make_shared<PlanArtifact<T>>();
    Status st = load_artifact(cfg.artifact_path, art.get());
    if (st.ok())
      st = BlockSolver<T>::create_from_artifact(std::move(art), cfg.options,
                                                &solver);
    hello.code = static_cast<std::int32_t>(st.code());
    hello.message = st.message();
  }
  hello.level_analyses = level_analysis_count() - analyses_at_start;
  if (!write_hello(cfg.control_fd, hello).ok() || hello.code != 0) _exit(1);

  ShmHeader* hdr = cfg.header;
  const auto& fault = cfg.options.shard.fault;
  const std::size_t n = static_cast<std::size_t>(hdr->n);
  SolveControls controls;
  controls.cancel = &hdr->abort;

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
    if (cmd.c0 + cmd.k > hdr->k_max) _exit(1);
    // The coordinator release-stored the epoch after staging the b panel
    // and resetting abort; this acquire pairs with it.
    if (hdr->solve_seq.load(std::memory_order_acquire) != cmd.seq) _exit(1);

    if (fault.kill_worker == cfg.shard_index) raise(SIGKILL);
    if (fault.hang_worker == cfg.shard_index) {
      // Unresponsive but alive: the epoch-timeout detector's other case.
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    ReportMsg report;
    report.seq = cmd.seq;
    const std::uint64_t analyses_at_epoch = level_analysis_count();
    if (cmd.k > 0) {
      const std::size_t at = static_cast<std::size_t>(cmd.c0) * n;
      SolveReport rep;
      const Status st = solver->solve_many(cfg.b_panel + at, cfg.x_panel + at,
                                           cmd.k, controls, &rep);
      report.code = static_cast<std::int32_t>(st.code());
      report.message = st.message();
      report.steps_completed = static_cast<std::uint64_t>(rep.steps_completed);
      report.steps_total = static_cast<std::uint64_t>(rep.steps_total);
    }
    report.level_analyses = level_analysis_count() - analyses_at_epoch;
    if (!write_report(cfg.control_fd, report).ok()) _exit(1);
  }
}

template void run_worker(const WorkerConfig<float>&);
template void run_worker(const WorkerConfig<double>&);

}  // namespace blocktri::shard
