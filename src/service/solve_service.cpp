#include "service/solve_service.hpp"

#include <algorithm>
#include <cstring>

namespace blocktri::service {

SolveService::SolveService(ServiceOptions opt)
    : opt_(opt), cache_(opt.cache_limits) {
  if (opt_.max_panel < 1) opt_.max_panel = 1;
}

SolveService::~SolveService() { shutdown(); }

Status SolveService::register_matrix(
    const Csr<double>& lower, const BlockSolver<double>::Options& solver_opt,
    std::uint64_t* id) {
  BLOCKTRI_CHECK(id != nullptr);
  std::unique_ptr<BlockSolver<double>> solver;
  if (Status st = BlockSolver<double>::create(lower, solver_opt, &solver,
                                              &cache_);
      !st.ok())
    return st;
  auto e = std::make_unique<MatrixEntry>();
  e->solver = std::move(solver);
  e->n = e->solver->n();
  if (solver_opt.shard.processes > 0) {
    // The coordinator's shared panels must fit the widest panel the
    // coalescer can form for this matrix.
    BlockSolver<double>::Options shard_opt = solver_opt;
    shard_opt.shard.max_panel = std::max<index_t>(
        shard_opt.shard.max_panel, static_cast<index_t>(opt_.max_panel));
    if (Status st = shard::ShardCoordinator<double>::create(
            *e->solver, shard_opt, &e->shard);
        !st.ok())
      return st;
  }
  std::lock_guard<std::mutex> lock(reg_mu_);
  if (stopping_)
    return Status(StatusCode::kCancelled,
                  "the solve service is shutting down");
  e->id = next_id_++;
  *id = e->id;
  matrices_[e->id] = std::move(e);
  return Status::Ok();
}

SolveService::MatrixEntry* SolveService::find_entry(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  auto it = matrices_.find(id);
  return it == matrices_.end() ? nullptr : it->second.get();
}

const BlockSolver<double>* SolveService::solver(std::uint64_t id) const {
  const MatrixEntry* e = find_entry(id);
  return e == nullptr ? nullptr : e->solver.get();
}

const shard::ShardCoordinator<double>* SolveService::shard_backend(
    std::uint64_t id) const {
  const MatrixEntry* e = find_entry(id);
  return e == nullptr ? nullptr : e->shard.get();
}

void SolveService::account(const std::string& tenant, const Response& resp) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  TenantStats& t = tenants_[tenant];
  if (resp.panel_width > 1) ++t.coalesced;
  t.degrade_events += resp.report.degrades.size();
  if (!resp.status.ok()) {
    if (resp.status.code() == StatusCode::kDeadlineExceeded) {
      ++t.deadline_misses;
      ++deadline_misses_;
    } else {
      ++t.failures;
    }
  }
}

namespace {

Response reject(StatusCode code, std::string message) {
  Response r;
  r.status = Status(code, std::move(message));
  return r;
}

/// Per-column verdict of a checked panel. Session faults (deadline, cancel,
/// backpressure) hit the whole panel; numeric verdicts are per column — a
/// column whose verified residual met its tolerance is Ok even when a
/// sibling broke down.
Status column_status(const Status& panel, const SolveReport& rep) {
  if (panel.ok()) return Status::Ok();
  switch (panel.code()) {
    case StatusCode::kResidualTooLarge:
    case StatusCode::kNumericalBreakdown:
      if (rep.residual_checked && rep.residual <= rep.tolerance)
        return Status::Ok();
      return panel;
    default:
      return panel;
  }
}

}  // namespace

Response SolveService::solve(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++requests_;
    ++tenants_[req.tenant].requests;
  }

  MatrixEntry* e = find_entry(req.matrix_id);
  if (e == nullptr) {
    Response r = reject(StatusCode::kInvalidArgument,
                        "unknown matrix id " + std::to_string(req.matrix_id));
    account(req.tenant, r);
    return r;
  }
  if (req.b.size() != static_cast<std::size_t>(e->n)) {
    Response r = reject(StatusCode::kInvalidArgument,
                        "rhs has " + std::to_string(req.b.size()) +
                            " entries, matrix " +
                            std::to_string(req.matrix_id) + " needs " +
                            std::to_string(e->n));
    account(req.tenant, r);
    return r;
  }
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    if (stopping_) {
      Response r = reject(StatusCode::kCancelled,
                          "the solve service is shutting down");
      account(req.tenant, r);
      return r;
    }
  }

  Pending p;
  p.b = &req.b;
  p.tenant = &req.tenant;
  p.deadline = req.deadline_ms > 0.0 ? Deadline::after_ms(req.deadline_ms)
                                     : Deadline::unlimited();
  if (p.deadline.expired()) {
    // Typed rejection at admission: no queueing, no solver call, no shared
    // cache traffic — a request that arrives dead cannot poison anything.
    Response r = reject(StatusCode::kDeadlineExceeded,
                        "request deadline expired before admission");
    account(req.tenant, r);
    return r;
  }

  std::unique_lock<std::mutex> lk(e->mu);
  e->queue.push_back(&p);
  e->cv.notify_all();  // a lingering leader re-checks its panel width

  while (!p.done) {
    // Group commit: while a leader is forming or solving a panel, park.
    // Wake on panel completion (p.done) or leadership handover. Claiming
    // leadership requires a non-empty queue — our own request may already
    // be riding another leader's in-flight panel.
    if (e->leader_active || e->queue.empty()) {
      e->cv.wait(lk);
      continue;
    }
    e->leader_active = true;

    // Linger for co-travellers, bounded by the batch window and by our own
    // deadline — a leader never idles past the point its own request dies.
    if (opt_.coalesce && opt_.max_panel > 1 && opt_.batch_window_ms > 0.0) {
      auto give_up = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::
                                                    duration>(
                         std::chrono::duration<double, std::milli>(
                             opt_.batch_window_ms));
      if (!p.deadline.unlimited_deadline())
        give_up = std::min(give_up, p.deadline.time_point());
      while (static_cast<int>(e->queue.size()) < opt_.max_panel &&
             !stop_token_.cancelled()) {
        if (e->cv.wait_until(lk, give_up) == std::cv_status::timeout) break;
      }
    }

    // Snapshot the panel: the oldest max_panel requests.
    const int width = opt_.coalesce ? opt_.max_panel : 1;
    std::vector<Pending*> batch;
    batch.reserve(static_cast<std::size_t>(width));
    while (!e->queue.empty() && static_cast<int>(batch.size()) < width) {
      batch.push_back(e->queue.front());
      e->queue.pop_front();
    }
    e->leader_active = false;
    lk.unlock();
    e->cv.notify_all();  // remaining queued requests elect the next leader

    dispatch(e, batch);
    lk.lock();
  }
  lk.unlock();

  account(req.tenant, p.resp);
  return std::move(p.resp);
}

void SolveService::dispatch(MatrixEntry* e, std::vector<Pending*>& batch) {
  if (batch.empty()) return;

  // Admission at dispatch: members whose deadline expired while queued are
  // rejected typed and never ride the panel.
  std::vector<Pending*> live;
  live.reserve(batch.size());
  for (Pending* p : batch) {
    if (stop_token_.cancelled()) {
      p->resp.status = Status(StatusCode::kCancelled,
                              "the solve service is shutting down");
    } else if (p->deadline.expired()) {
      p->resp.status = Status(StatusCode::kDeadlineExceeded,
                              "request deadline expired while queued");
    } else {
      live.push_back(p);
    }
  }

  const index_t k = static_cast<index_t>(live.size());
  if (k > 0) {
    const std::size_t n = static_cast<std::size_t>(e->n);

    SolveControls controls;
    controls.cancel = &stop_token_;
    // The panel runs under the *latest* member deadline: it must not
    // outlive every member, and a panel killed by that deadline means every
    // member's own budget is gone too. Unlimited if any member is.
    bool unlimited = false;
    Deadline::Clock::time_point latest = Deadline::Clock::time_point::min();
    for (const Pending* p : live) {
      if (p->deadline.unlimited_deadline()) {
        unlimited = true;
        break;
      }
      latest = std::max(latest, p->deadline.time_point());
    }
    if (!unlimited) controls.deadline = Deadline::at(latest);

    if (opt_.checked) {
      std::vector<double> B(n * static_cast<std::size_t>(k));
      for (index_t c = 0; c < k; ++c)
        std::memcpy(B.data() + static_cast<std::size_t>(c) * n,
                    live[static_cast<std::size_t>(c)]->b->data(),
                    n * sizeof(double));
      SolveManyResult<double> res =
          e->solver->solve_many_checked(B, k, controls);
      for (index_t c = 0; c < k; ++c) {
        Pending* p = live[static_cast<std::size_t>(c)];
        const auto* col = res.X.data() + static_cast<std::size_t>(c) * n;
        p->resp.x.assign(col, col + n);
        p->resp.report = res.reports[static_cast<std::size_t>(c)];
        p->resp.status = column_status(res.status, p->resp.report);
      }
    } else {
      // Gather/scatter panel: the members' rhs vectors are the panel columns
      // and their response vectors the destinations — no panel assembly, no
      // demux copy (the solver's entry/exit permutations do the routing).
      std::vector<const double*> bs(static_cast<std::size_t>(k));
      std::vector<double*> xs(static_cast<std::size_t>(k));
      for (index_t c = 0; c < k; ++c) {
        Pending* p = live[static_cast<std::size_t>(c)];
        p->resp.x.resize(n);
        bs[static_cast<std::size_t>(c)] = p->b->data();
        xs[static_cast<std::size_t>(c)] = p->resp.x.data();
      }
      SolveReport rep;
      const Status st =
          e->shard != nullptr
              ? e->shard->solve_many(bs.data(), xs.data(), k, controls, &rep)
              : e->solver->solve_many(bs.data(), xs.data(), k, controls,
                                      &rep);
      for (index_t c = 0; c < k; ++c) {
        Pending* p = live[static_cast<std::size_t>(c)];
        if (!st.ok()) p->resp.x.clear();  // partial panels are not results
        p->resp.report = rep;  // one raw-path report, mirrored to members
        p->resp.status = st;
      }
    }

    std::lock_guard<std::mutex> lock(stats_mu_);
    ++panels_;
    max_panel_width_ =
        std::max(max_panel_width_, static_cast<std::uint64_t>(k));
    if (k > 1) coalesced_requests_ += static_cast<std::uint64_t>(k);
  }

  // Complete every member — the rejected ones too — under the entry mutex,
  // then wake the followers.
  {
    std::lock_guard<std::mutex> lock(e->mu);
    for (Pending* p : batch) {
      if (p->resp.status.ok() || !p->resp.x.empty())
        p->resp.panel_width = static_cast<int>(k);
      p->done = true;
    }
  }
  e->cv.notify_all();
}

void SolveService::shutdown() {
  std::vector<MatrixEntry*> entries;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    stopping_ = true;
    entries.reserve(matrices_.size());
    for (auto& [id, entry] : matrices_) entries.push_back(entry.get());
  }
  stop_token_.cancel();
  // Wake every parked follower/leader: queued requests drain through
  // dispatch, which rejects them with kCancelled under the tripped token.
  for (MatrixEntry* e : entries) {
    std::lock_guard<std::mutex> lock(e->mu);
    e->cv.notify_all();
  }
}

ServiceStats SolveService::stats() const {
  // Fold the registered solvers' workspace lease waits into the shared
  // cache telemetry first (DESIGN.md §12 wiring), then snapshot.
  std::uint64_t waits = 0;
  shard::CoordinatorStats shard_total;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (const auto& [id, entry] : matrices_) {
      waits += entry->solver->workspace_stats().lease_waits;
      if (entry->shard != nullptr) {
        const shard::CoordinatorStats cs = entry->shard->stats();
        shard_total.epochs += cs.epochs;
        shard_total.workers_lost += cs.workers_lost;
        shard_total.fallbacks += cs.fallbacks;
        shard_total.respawns += cs.respawns;
        shard_total.worker_level_analyses += cs.worker_level_analyses;
      }
    }
  }
  ServiceStats s;
  s.shard = shard_total;
  s.cache = cache_.stats();
  if (waits > s.cache.lease_waits) {
    cache_.note_lease_waits(waits - s.cache.lease_waits);
    s.cache.lease_waits = waits;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.requests = requests_;
  s.panels = panels_;
  s.coalesced_requests = coalesced_requests_;
  s.deadline_misses = deadline_misses_;
  s.max_panel_width = max_panel_width_;
  s.coalesce_ratio =
      panels_ > 0 ? static_cast<double>(requests_ - deadline_misses_) /
                        static_cast<double>(panels_)
                  : 0.0;
  return s;
}

TenantStats SolveService::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second;
}

}  // namespace blocktri::service
