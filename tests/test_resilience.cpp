// Resilience & session tests (ISSUE 6): leased workspaces and reentrant
// solves, cooperative deadlines/cancellation, bounded sync-free spins, the
// whole-solve degradation ladder, artifact-load retry, and plan-cache
// quarantine. Every fault here is injected deterministically — no test
// depends on "losing a race"; cross-thread tests synchronise on observable
// state (pool in_use counts, generous sleep margins) rather than timing
// luck. The concurrency tests are the ones the CI stress lane repeats under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"
#include "helpers.hpp"

namespace blocktri {
namespace {

using Opt = BlockSolver<double>::Options;

Csr<double> fixture() { return gen::grid2d(40, 25, 5); }  // n = 1000

Opt base_options(BlockScheme scheme = BlockScheme::kRecursive,
                 int threads = 1) {
  Opt opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = 64;  // force real block structure on test sizes
  opt.planner.nseg = 4;
  opt.threads = threads;
  return opt;
}

std::unique_ptr<BlockSolver<double>> make_solver(const Opt& opt) {
  std::unique_ptr<BlockSolver<double>> s;
  Status st = BlockSolver<double>::create(fixture(), opt, &s);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return s;
}

// Spins until the solver's workspace pool shows `want` leases in flight —
// the cross-thread synchronisation primitive of the pool tests: observable
// state instead of sleep-and-hope.
bool wait_for_in_use(const BlockSolver<double>& s, std::size_t want,
                     int timeout_ms = 2000) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  while (s.workspace_stats().in_use < want) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

// --- WorkspacePool unit tests ----------------------------------------------

TEST(WorkspacePool, LeasesAreDistinctAndRecycled) {
  WorkspacePool<std::vector<int>> pool({4, true});
  auto init = [](std::vector<int>& w) { w.assign(8, 0); };
  auto a = pool.acquire(init);
  auto b = pool.acquire(init);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->size(), 8u);
  const auto* recycled = b.get();
  b.release();
  auto c = pool.acquire(init);  // LIFO: the just-released workspace comes back
  EXPECT_EQ(c.get(), recycled);

  const WorkspacePoolStats st = pool.stats();
  EXPECT_EQ(st.created, 2u);
  EXPECT_EQ(st.leases, 3u);
  EXPECT_EQ(st.in_use, 2u);
  EXPECT_EQ(st.exhausted, 0u);
}

TEST(WorkspacePool, FailingModeReturnsEmptyLeaseWhenExhausted) {
  WorkspacePool<int> pool({2, /*block_when_exhausted=*/false});
  auto init = [](int&) {};
  auto a = pool.acquire(init);
  auto b = pool.acquire(init);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  auto c = pool.acquire(init);
  EXPECT_FALSE(c);  // backpressure: typed failure, not a third workspace
  EXPECT_EQ(pool.stats().exhausted, 1u);
  EXPECT_EQ(pool.stats().created, 2u);
  b.release();
  auto d = pool.acquire(init);
  EXPECT_TRUE(d);
}

TEST(WorkspacePool, BlockingModeWaitsForARelease) {
  WorkspacePool<int> pool({1, /*block_when_exhausted=*/true});
  auto init = [](int&) {};
  auto held = pool.acquire(init);
  ASSERT_TRUE(held);

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto late = pool.acquire(init);  // blocks until `held` is released
    acquired.store(late ? true : false);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());  // still parked on the exhausted pool
  held.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_GE(pool.stats().lease_waits, 1u);
}

// --- Reentrancy: concurrent solves on one warm solver ----------------------

// The tentpole acceptance test: one warm serial-executor solver, hammered
// from 4 caller threads across every scheme and both RHS shapes, must
// produce bitwise the serial answer on every thread (each call leases its
// own workspace; nothing is shared). The CI stress lane runs this under
// ThreadSanitizer.
TEST(Reentrancy, ConcurrentSolvesBitwiseEqualSerial) {
  constexpr int kThreads = 4;
  constexpr index_t kPanel = 16;
  for (BlockScheme scheme :
       {BlockScheme::kColumn, BlockScheme::kRow, BlockScheme::kRecursive}) {
    auto solver = make_solver(base_options(scheme));
    const index_t n = fixture().nrows;
    const auto b = gen::random_rhs<double>(n, 7);
    std::vector<double> B;
    for (index_t c = 0; c < kPanel; ++c) {
      const auto col = gen::random_rhs<double>(n, 100 + static_cast<int>(c));
      B.insert(B.end(), col.begin(), col.end());
    }
    const std::vector<double> x_ref = solver->solve(b);        // k = 1
    const std::vector<double> X_ref = solver->solve_many(B, kPanel);

    std::vector<std::vector<double>> xs(kThreads);
    std::vector<std::vector<double>> Xs(kThreads);
    std::vector<Status> st1(kThreads, Status::Ok());
    std::vector<Status> stk(kThreads, Status::Ok());
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        xs[t].assign(static_cast<std::size_t>(n), 0.0);
        Xs[t].assign(B.size(), 0.0);
        st1[t] = solver->solve(b.data(), xs[t].data(), SolveControls{});
        stk[t] = solver->solve_many(B.data(), Xs[t].data(), kPanel,
                                    SolveControls{});
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(st1[t].ok()) << st1[t].to_string();
      ASSERT_TRUE(stk[t].ok()) << stk[t].to_string();
      EXPECT_EQ(xs[t], x_ref) << "scheme " << to_string(scheme) << " thread "
                              << t;
      EXPECT_EQ(Xs[t], X_ref) << "scheme " << to_string(scheme) << " thread "
                              << t;
    }
    const WorkspacePoolStats ps = solver->workspace_stats();
    EXPECT_EQ(ps.in_use, 0u);  // every lease returned
    EXPECT_GE(ps.leases, static_cast<std::uint64_t>(2 * kThreads + 2));
  }
}

// With a parallel executor the in-flight solves arbitrate for the fork-join
// pool: one wins it, the rest degrade to the serial executor (identical
// arithmetic on a private workspace), so every call still verifies.
TEST(Reentrancy, ConcurrentCheckedSolvesWithExecutorPool) {
  constexpr int kThreads = 4;
  auto solver = make_solver(base_options(BlockScheme::kRecursive, 2));
  const auto b = gen::random_rhs<double>(fixture().nrows, 11);

  std::vector<SolveResult<double>> results(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] { results[t] = solver->solve_checked(b); });
  for (auto& w : workers) w.join();

  // Pool winner and serial losers run the same row expressions, so every
  // caller gets the bits of a lone checked solve.
  const std::vector<double> x_ref = solver->solve_checked(b).x;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status.to_string();
    EXPECT_TRUE(results[t].report.residual_checked);
    for (const DegradeEvent& d : results[t].report.degrades) {
      EXPECT_EQ(d.kind, DegradeEvent::Kind::kParallelToSerial);
      EXPECT_EQ(d.reason, StatusCode::kReentrantSolve);
    }
    EXPECT_EQ(results[t].x, x_ref);
  }
}

TEST(Reentrancy, StrictModeRejectsOverlappingSolves) {
  Opt opt = base_options();
  opt.session.strict_reentrancy = true;
  opt.fault.hold_lease_ms = 150;  // stretch the first solve's occupancy
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);

  Status first = Status::Ok();
  std::thread holder([&] {
    std::vector<double> x(b.size());
    first = solver->solve(b.data(), x.data(), SolveControls{});
  });
  ASSERT_TRUE(wait_for_in_use(*solver, 1));
  std::vector<double> x(b.size());
  const Status second = solver->solve(b.data(), x.data(), SolveControls{});
  holder.join();
  EXPECT_TRUE(first.ok()) << first.to_string();
  EXPECT_EQ(second.code(), StatusCode::kReentrantSolve);
}

// --- Pool exhaustion backpressure ------------------------------------------

TEST(PoolBackpressure, FailingModeSurfacesPoolExhausted) {
  Opt opt = base_options();
  opt.session.max_workspaces = 1;
  opt.session.block_when_exhausted = false;
  opt.fault.hold_lease_ms = 150;
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);

  Status first = Status::Ok();
  std::thread holder([&] {
    std::vector<double> x(b.size());
    first = solver->solve(b.data(), x.data(), SolveControls{});
  });
  ASSERT_TRUE(wait_for_in_use(*solver, 1));  // the lone workspace is leased
  std::vector<double> x(b.size());
  const Status second = solver->solve(b.data(), x.data(), SolveControls{});
  holder.join();
  EXPECT_TRUE(first.ok()) << first.to_string();
  EXPECT_EQ(second.code(), StatusCode::kPoolExhausted);
  EXPECT_GE(solver->workspace_stats().exhausted, 1u);
}

TEST(PoolBackpressure, BlockingModeWaitsAndBothSolvesSucceed) {
  Opt opt = base_options();
  opt.session.max_workspaces = 1;
  opt.session.block_when_exhausted = true;
  opt.fault.hold_lease_ms = 100;
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  const std::vector<double> x_ref = [&] {
    Opt clean = base_options();
    return make_solver(clean)->solve(b);
  }();

  Status first = Status::Ok();
  std::thread holder([&] {
    std::vector<double> x(b.size());
    first = solver->solve(b.data(), x.data(), SolveControls{});
  });
  ASSERT_TRUE(wait_for_in_use(*solver, 1));
  std::vector<double> x(b.size());
  const Status second = solver->solve(b.data(), x.data(), SolveControls{});
  holder.join();
  EXPECT_TRUE(first.ok()) << first.to_string();
  EXPECT_TRUE(second.ok()) << second.to_string();
  EXPECT_EQ(x, x_ref);
  EXPECT_GE(solver->workspace_stats().lease_waits, 1u);
}

// --- Deadlines and cancellation --------------------------------------------

TEST(Deadlines, ExpiredDeadlineTripsBeforeAnyStep) {
  auto solver = make_solver(base_options());
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  SolveControls controls;
  controls.deadline = Deadline::after_ms(0);  // already expired
  std::vector<double> x(b.size(), -1.0);
  SolveReport rep;
  const Status st = solver->solve(b.data(), x.data(), controls, &rep);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rep.steps_completed, 0);
  EXPECT_GT(rep.steps_total, 0);
}

TEST(Deadlines, DeadlineExpiringMidSolveUnwindsCooperatively) {
  Opt opt = base_options();
  opt.fault.hold_lease_ms = 120;  // the deadline lapses while we hold the lease
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  SolveControls controls;
  controls.deadline = Deadline::after_ms(20);
  std::vector<double> x(b.size());
  SolveReport rep;
  const Status st = solver->solve(b.data(), x.data(), controls, &rep);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(rep.steps_completed, rep.steps_total);
}

TEST(Deadlines, CheckedSolveTreatsDeadlineAsTerminal) {
  auto solver = make_solver(base_options(BlockScheme::kRecursive, 2));
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  SolveControls controls;
  controls.deadline = Deadline::after_ms(0);
  const SolveResult<double> res = solver->solve_checked(b, controls);
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  // Terminal: the ladder must NOT burn retry rungs on an expired caller.
  EXPECT_EQ(res.report.attempts, 1);
}

TEST(Deadlines, BatchedSolvesHonourDeadlines) {
  auto solver = make_solver(base_options());
  const index_t n = fixture().nrows;
  constexpr index_t k = 4;
  std::vector<double> B;
  for (index_t c = 0; c < k; ++c) {
    const auto col = gen::random_rhs<double>(n, 40 + static_cast<int>(c));
    B.insert(B.end(), col.begin(), col.end());
  }
  SolveControls controls;
  controls.deadline = Deadline::after_ms(0);
  std::vector<double> X(B.size());
  EXPECT_EQ(solver->solve_many(B.data(), X.data(), k, controls).code(),
            StatusCode::kDeadlineExceeded);
  const SolveManyResult<double> res = solver->solve_many_checked(B, k,
                                                                 controls);
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Cancellation, PreCancelledTokenShortCircuits) {
  auto solver = make_solver(base_options());
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  CancelToken token;
  token.cancel();
  SolveControls controls;
  controls.cancel = &token;
  std::vector<double> x(b.size());
  SolveReport rep;
  EXPECT_EQ(solver->solve(b.data(), x.data(), controls, &rep).code(),
            StatusCode::kCancelled);
  EXPECT_EQ(rep.steps_completed, 0);

  token.reset();  // the token is reusable
  EXPECT_TRUE(solver->solve(b.data(), x.data(), controls, &rep).ok());
}

TEST(Cancellation, CancelFromAnotherThreadStopsTheSolve) {
  Opt opt = base_options();
  opt.fault.hold_lease_ms = 150;  // window for the other thread's cancel
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  CancelToken token;
  SolveControls controls;
  controls.cancel = &token;

  Status st = Status::Ok();
  std::thread worker([&] {
    std::vector<double> x(b.size());
    st = solver->solve(b.data(), x.data(), controls);
  });
  ASSERT_TRUE(wait_for_in_use(*solver, 1));
  token.cancel();  // fires while the solve is in flight
  worker.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

// --- Bounded sync-free spins -----------------------------------------------

// A stalled ready flag makes the threaded sync-free busy-wait unfinishable.
// With a control attached the bounded spin trips kSpinTimeout — a typed
// error where the pre-session kernel livelocked forever.
TEST(SpinTimeout, UncheckedSolveSurfacesTypedStatusInsteadOfLivelock) {
  Opt opt = base_options(BlockScheme::kColumn, 2);
  opt.adaptive = false;
  opt.forced_tri = TriKernelKind::kSyncFree;
  opt.fault.stuck_spin = true;
  opt.fault.tri_block = 2;  // third diagonal block: progress happens first
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  SolveControls controls;
  controls.spin_timeout_ms = 50.0;
  std::vector<double> x(b.size());
  SolveReport rep;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = solver->solve(b.data(), x.data(), controls, &rep);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(st.code(), StatusCode::kSpinTimeout);
  EXPECT_GT(rep.steps_completed, 0);  // the blocks before the stuck one ran
  EXPECT_LT(rep.steps_completed, rep.steps_total);
  EXPECT_LT(ms, 5000.0);  // bounded: nowhere near a livelock
}

// The checked ladder absorbs the same fault: the spin trip is consumed and
// the block re-solved on a spin-free rung (level-set / serial have no ready
// flags), so the caller sees a verified solve plus a recorded per-block
// fallback.
TEST(SpinTimeout, CheckedLadderHealsAStuckSpin) {
  Opt opt = base_options(BlockScheme::kColumn, 2);
  opt.adaptive = false;
  opt.forced_tri = TriKernelKind::kSyncFree;
  opt.fault.stuck_spin = true;
  opt.fault.tri_block = 0;
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  SolveControls controls;
  controls.spin_timeout_ms = 50.0;
  const SolveResult<double> res = solver->solve_checked(b, controls);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  EXPECT_TRUE(res.report.residual_checked);
  EXPECT_GE(res.report.fallbacks.size(), 1u);  // block 0 degraded and healed
}

// The serial and batched sync-free paths have no ready flags, so a
// poisoned solver still produces exact answers on every spin-free rung —
// the property the self-healing direct-call path relies on.
TEST(SpinTimeout, SpinFreePathsIgnorePoisonedCounters) {
  const Csr<double> L = gen::banded(400, 8, 2.0, 21);
  SyncFreeSolver<double> clean(L);
  SyncFreeSolver<double> poisoned(L);
  poisoned.stall_row_for_testing(0);
  const auto b = gen::random_rhs<double>(L.nrows, 9);
  std::vector<double> x_ref(b.size()), x(b.size());
  clean.solve(b.data(), x_ref.data());
  poisoned.solve(b.data(), x.data());  // no pool: serial, counter-free
  EXPECT_EQ(x, x_ref);
}

// --- Whole-solve degradation ladder ----------------------------------------

TEST(DegradationLadder, ResidualRejectionRetriesOnSerialRung) {
  Opt opt = base_options(BlockScheme::kRecursive, 4);
  opt.verify.max_refinements = 0;  // rejection must engage the ladder
  opt.fault.corrupt_solve_attempts = 1;
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  const SolveResult<double> res = solver->solve_checked(b);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  EXPECT_EQ(res.report.attempts, 2);  // attempt 1 poisoned, attempt 2 clean
  ASSERT_EQ(res.report.degrades.size(), 1u);
  EXPECT_EQ(res.report.degrades[0].kind,
            DegradeEvent::Kind::kParallelToSerial);
  EXPECT_EQ(res.report.degrades[0].reason, StatusCode::kResidualTooLarge);
}

TEST(DegradationLadder, ExhaustedLadderReportsEveryRungTried) {
  Opt opt = base_options(BlockScheme::kRecursive, 4);
  opt.verify.max_refinements = 0;
  opt.fault.corrupt_solve_attempts = 100;  // every rung re-poisoned
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  const SolveResult<double> res = solver->solve_checked(b);
  EXPECT_EQ(res.status.code(), StatusCode::kResidualTooLarge);
  EXPECT_GE(res.report.attempts, 2);  // pool rung + at least the serial rung
  EXPECT_EQ(res.report.degrades.size(),
            static_cast<std::size_t>(res.report.attempts) - 1);
}

TEST(DegradationLadder, LadderIsOffWhenFallbackDisabled) {
  Opt opt = base_options(BlockScheme::kRecursive, 4);
  opt.verify.fallback = false;
  opt.verify.max_refinements = 0;
  opt.fault.corrupt_solve_attempts = 1;
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);
  const SolveResult<double> res = solver->solve_checked(b);
  EXPECT_EQ(res.status.code(), StatusCode::kResidualTooLarge);
  EXPECT_EQ(res.report.attempts, 1);
  EXPECT_TRUE(res.report.degrades.empty());
}

TEST(DegradationLadder, PanelRetriesAsAWholeAndOtherColumnsStayClean) {
  Opt opt = base_options(BlockScheme::kRecursive, 4);
  opt.verify.max_refinements = 0;
  opt.fault.corrupt_solve_attempts = 1;
  opt.fault.column = 2;  // only this panel column is poisoned
  auto solver = make_solver(opt);
  const index_t n = fixture().nrows;
  constexpr index_t k = 4;
  std::vector<double> B;
  for (index_t c = 0; c < k; ++c) {
    const auto col = gen::random_rhs<double>(n, 60 + static_cast<int>(c));
    B.insert(B.end(), col.begin(), col.end());
  }
  const SolveManyResult<double> res = solver->solve_many_checked(B, k);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  for (index_t c = 0; c < k; ++c) {
    const SolveReport& rep = res.reports[static_cast<std::size_t>(c)];
    EXPECT_EQ(rep.attempts, 2) << "column " << c;  // panel-level retry
    ASSERT_EQ(rep.degrades.size(), 1u) << "column " << c;
    EXPECT_EQ(rep.degrades[0].reason, StatusCode::kResidualTooLarge);
    EXPECT_TRUE(rep.residual_checked);
    EXPECT_LE(rep.residual, rep.tolerance);
  }
}

// --- Artifact-load retry ----------------------------------------------------

class ArtifactRetry : public ::testing::Test {
 protected:
  void TearDown() override {
    persist_testing::force_io_failures(0);  // never leak into other tests
    std::remove(path_.c_str());
  }
  // One file per test, so tests running in parallel (ctest -j) never
  // remove each other's artifact.
  std::string path_ =
      ::testing::TempDir() + "blocktri_resilience_retry_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".btpa";
};

TEST_F(ArtifactRetry, TransientIoFailuresAreRetriedWithBackoff) {
  const Csr<double> L = fixture();
  Opt opt = base_options();
  opt.session.artifact_retry_attempts = 3;
  opt.session.artifact_retry_backoff_ms = 0.01;  // keep the test fast
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  ASSERT_TRUE(cold->save_artifact(path_).ok());

  PlanCache<double> cache;
  persist_testing::force_io_failures(2);  // attempts 1 and 2 fail, 3 lands
  std::unique_ptr<BlockSolver<double>> warm;
  const Status st =
      BlockSolver<double>::create_from_file(path_, L, opt, &warm, &cache);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(persist_testing::pending_io_failures(), 0);
  EXPECT_EQ(cache.stats().retry_successes, 1u);
  EXPECT_GE(cache.stats().inserts, 1u);  // the loaded plan was cached

  const auto b = gen::random_rhs<double>(L.nrows, 5);
  EXPECT_EQ(warm->solve(b), cold->solve(b));  // bitwise, as ever
}

TEST_F(ArtifactRetry, PersistentIoFailureSurfacesAfterBoundedAttempts) {
  const Csr<double> L = fixture();
  Opt opt = base_options();
  opt.session.artifact_retry_attempts = 3;
  opt.session.artifact_retry_backoff_ms = 0.01;
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  ASSERT_TRUE(cold->save_artifact(path_).ok());

  persist_testing::force_io_failures(10);  // outlasts the retry budget
  std::unique_ptr<BlockSolver<double>> warm;
  const Status st =
      BlockSolver<double>::create_from_file(path_, L, opt, &warm);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // Exactly `attempts` loads were consumed — bounded, no retry storm.
  EXPECT_EQ(persist_testing::pending_io_failures(), 7);
}

TEST_F(ArtifactRetry, PermanentErrorsAreNotRetried) {
  const Csr<double> L = fixture();
  Opt opt = base_options();
  opt.session.artifact_retry_attempts = 5;
  std::unique_ptr<BlockSolver<double>> warm;
  // Missing file: a permanent kBadFormat, returned without burning retries.
  const Status st = BlockSolver<double>::create_from_file(
      ::testing::TempDir() + "blocktri_no_such_artifact.btpa", L, opt, &warm);
  EXPECT_EQ(st.code(), StatusCode::kBadFormat);
}

// --- Plan-cache quarantine --------------------------------------------------

std::shared_ptr<const PlanArtifact<double>> artifact_for(
    const Csr<double>& L) {
  std::unique_ptr<BlockSolver<double>> s;
  EXPECT_TRUE(BlockSolver<double>::create(L, base_options(), &s).ok());
  return std::make_shared<PlanArtifact<double>>(s->capture_artifact());
}

TEST(PlanCacheQuarantine, RepeatedHitFailuresTombstoneTheKey) {
  typename PlanCache<double>::Limits lim;
  lim.quarantine_failures = 3;
  lim.quarantine_ttl_inserts = 2;
  PlanCache<double> cache(lim);

  auto art = artifact_for(gen::banded(200, 4, 2.0, 1));
  const PlanCacheKey key{art->structure, art->options};
  cache.insert(art);
  ASSERT_NE(cache.find(key), nullptr);

  cache.report_hit_failure(key);
  cache.report_hit_failure(key);
  EXPECT_FALSE(cache.quarantined(key));  // below the threshold
  cache.report_hit_failure(key);
  EXPECT_TRUE(cache.quarantined(key));

  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_EQ(st.tombstones, 1u);
  EXPECT_EQ(st.entries, 0u);  // the bad entry was evicted with the tombstone

  EXPECT_EQ(cache.find(key), nullptr);        // tombstoned keys miss
  EXPECT_EQ(cache.insert(art), art);          // ...and are not re-admitted
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheQuarantine, TombstonesExpireAfterTtlInserts) {
  typename PlanCache<double>::Limits lim;
  lim.quarantine_failures = 1;
  lim.quarantine_ttl_inserts = 2;
  PlanCache<double> cache(lim);

  auto bad = artifact_for(gen::banded(200, 4, 2.0, 1));
  const PlanCacheKey key{bad->structure, bad->options};
  cache.insert(bad);
  cache.report_hit_failure(key);
  ASSERT_TRUE(cache.quarantined(key));

  // Two successful inserts of other keys age the tombstone out.
  cache.insert(artifact_for(gen::banded(220, 4, 2.0, 2)));
  EXPECT_TRUE(cache.quarantined(key));  // one generation: still serving time
  cache.insert(artifact_for(gen::banded(240, 4, 2.0, 3)));
  EXPECT_FALSE(cache.quarantined(key));
  EXPECT_EQ(cache.stats().tombstones, 0u);

  // After expiry the key is cacheable again.
  EXPECT_EQ(cache.insert(bad), bad);
  EXPECT_NE(cache.find(key), nullptr);
}

TEST(PlanCacheQuarantine, HitSuccessResetsTheConsecutiveFailureCount) {
  typename PlanCache<double>::Limits lim;
  lim.quarantine_failures = 2;
  PlanCache<double> cache(lim);
  auto art = artifact_for(gen::banded(200, 4, 2.0, 1));
  const PlanCacheKey key{art->structure, art->options};
  cache.insert(art);

  cache.report_hit_failure(key);
  cache.report_hit_success(key);  // quarantine counts *consecutive* failures
  cache.report_hit_failure(key);
  EXPECT_FALSE(cache.quarantined(key));
  cache.report_hit_failure(key);
  EXPECT_TRUE(cache.quarantined(key));
}

TEST(PlanCacheQuarantine, ResilienceCountersFlowIntoStats) {
  PlanCache<double> cache;
  cache.note_retry_success();
  cache.note_retry_success();
  cache.note_lease_waits(3);
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.retry_successes, 2u);
  EXPECT_EQ(st.lease_waits, 3u);
}

// --- Control-plane unit tests ----------------------------------------------

TEST(ExecControlUnit, FirstTripWinsAndSpinTripsAreConsumable) {
  ExecControl ctl;
  EXPECT_TRUE(ctl.check());
  EXPECT_FALSE(ctl.armed());  // nothing attached: the fast path
  ctl.trip(StatusCode::kSpinTimeout);
  ctl.trip(StatusCode::kCancelled);  // ignored: first failure wins
  EXPECT_EQ(ctl.reason(), StatusCode::kSpinTimeout);
  EXPECT_TRUE(ctl.consume_spin_trip());  // the ladder may retry spin-free
  EXPECT_FALSE(ctl.tripped());

  ctl.trip(StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(ctl.consume_spin_trip());  // deadline trips are terminal
  EXPECT_TRUE(ctl.tripped());
  EXPECT_EQ(ctl.to_status("here").code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecControlUnit, DeadlineAndCancelArmTheControl) {
  SolveControls c;
  EXPECT_FALSE(ExecControl(c).armed());
  c.deadline = Deadline::after_ms(60000);
  EXPECT_TRUE(ExecControl(c).armed());
  EXPECT_TRUE(ExecControl(c).check());  // a distant deadline does not trip

  CancelToken token;
  SolveControls c2;
  c2.cancel = &token;
  const ExecControl ctl(c2);
  EXPECT_TRUE(ctl.armed());
  EXPECT_TRUE(ctl.check());
  token.cancel();
  EXPECT_FALSE(ctl.check());
  EXPECT_EQ(ctl.reason(), StatusCode::kCancelled);
}

// --- Latent-bug sweep (ISSUE 8): edges the service front end stresses -------

// A zero or negative budget must be expired the instant it is armed — the
// service admission path relies on this to reject dead requests before they
// touch the solver — and a huge negative value must not wrap the integer
// duration_cast into the far future.
TEST(DeadlineEdges, NonPositiveAndNaNBudgetsAreBornExpired) {
  EXPECT_TRUE(Deadline::after_ms(0.0).expired());
  EXPECT_TRUE(Deadline::after_ms(-1.0).expired());
  EXPECT_TRUE(Deadline::after_ms(-1e300).expired());
  EXPECT_TRUE(Deadline::after_ms(std::nan("")).expired());
  EXPECT_TRUE(
      Deadline::after_ms(-std::numeric_limits<double>::infinity()).expired());
  EXPECT_FALSE(Deadline::after_ms(0.0).unlimited_deadline());  // armed
}

// A budget beyond the clock's range used to overflow duration_cast and land
// in the past (instantly expired); it must instead pin at time_point::max().
TEST(DeadlineEdges, OversizeBudgetsPinAtClockMaxInsteadOfOverflowing) {
  const Deadline huge = Deadline::after_ms(1e300);
  EXPECT_FALSE(huge.unlimited_deadline());
  EXPECT_FALSE(huge.expired());
  EXPECT_EQ(huge.time_point(), Deadline::Clock::time_point::max());

  const Deadline inf =
      Deadline::after_ms(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inf.expired());
  EXPECT_EQ(inf.time_point(), Deadline::Clock::time_point::max());

  EXPECT_FALSE(Deadline::after_ms(5.0).expired());  // sane budgets still work
}

// The waiter-vs-cancellation race: a thread parked on an exhausted blocking
// pool must wake with a typed denial when its request is cancelled — before
// this sweep it slept until a workspace came back, potentially forever.
TEST(WorkspacePool, BlockedWaiterWakesWithCancelledWhenTokenFires) {
  WorkspacePool<int> pool({1, /*block_when_exhausted=*/true});
  auto init = [](int&) {};
  auto held = pool.acquire(init);
  ASSERT_TRUE(held);

  CancelToken token;
  StatusCode denial = StatusCode::kOk;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    auto late = pool.acquire(init, Deadline::unlimited(), &token, &denial);
    EXPECT_FALSE(late);  // cancelled, not served
    woke.store(true);
  });
  // The waiter is parked (lease_waits ticks once it blocks).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (pool.stats().lease_waits < 1 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  ASSERT_GE(pool.stats().lease_waits, 1u);
  EXPECT_FALSE(woke.load());

  token.cancel();  // no workspace is ever released
  waiter.join();
  EXPECT_EQ(denial, StatusCode::kCancelled);
  EXPECT_EQ(pool.stats().in_use, 1u);  // the held lease is untouched
}

TEST(WorkspacePool, BlockedWaiterWakesWithDeadlineExceeded) {
  WorkspacePool<int> pool({1, /*block_when_exhausted=*/true});
  auto init = [](int&) {};
  auto held = pool.acquire(init);
  ASSERT_TRUE(held);

  StatusCode denial = StatusCode::kOk;
  auto late = pool.acquire(init, Deadline::after_ms(20.0), nullptr, &denial);
  EXPECT_FALSE(late);
  EXPECT_EQ(denial, StatusCode::kDeadlineExceeded);
}

TEST(WorkspacePool, CancellableAcquireStillServesWhenAWorkspaceReturns) {
  WorkspacePool<int> pool({1, /*block_when_exhausted=*/true});
  auto init = [](int&) {};
  auto held = pool.acquire(init);
  ASSERT_TRUE(held);

  CancelToken token;  // armed but never fired
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    StatusCode denial = StatusCode::kOk;
    auto late =
        pool.acquire(init, Deadline::after_ms(60000.0), &token, &denial);
    acquired.store(static_cast<bool>(late));
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (pool.stats().lease_waits < 1 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  held.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

// End to end through the solver: a solve blocked waiting for a workspace is
// unblocked by its own cancel token with a typed kCancelled.
TEST(PoolBackpressure, CancelWakesASolveBlockedOnTheExhaustedPool) {
  Opt opt = base_options();
  opt.session.max_workspaces = 1;
  opt.session.block_when_exhausted = true;
  opt.fault.hold_lease_ms = 400;  // the holder camps on the lone workspace
  auto solver = make_solver(opt);
  const auto b = gen::random_rhs<double>(fixture().nrows, 3);

  Status first = Status::Ok();
  std::thread holder([&] {
    std::vector<double> x(b.size());
    first = solver->solve(b.data(), x.data(), SolveControls{});
  });
  ASSERT_TRUE(wait_for_in_use(*solver, 1));

  CancelToken token;
  SolveControls controls;
  controls.cancel = &token;
  Status second = Status::Ok();
  std::thread blocked([&] {
    std::vector<double> x(b.size());
    second = solver->solve(b.data(), x.data(), controls);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.cancel();
  blocked.join();  // wakes on the poll tick, long before the holder releases
  holder.join();
  EXPECT_TRUE(first.ok()) << first.to_string();
  EXPECT_EQ(second.code(), StatusCode::kCancelled) << second.to_string();
}

// quarantine_ttl_inserts = 0 documents "expires at the first check after
// insert"; the boundary arithmetic must not make it permanent.
TEST(PlanCacheQuarantine, ZeroTtlTombstoneExpiresImmediately) {
  typename PlanCache<double>::Limits lim;
  lim.quarantine_failures = 1;
  lim.quarantine_ttl_inserts = 0;
  PlanCache<double> cache(lim);

  auto bad = artifact_for(gen::banded(200, 4, 2.0, 1));
  const PlanCacheKey key{bad->structure, bad->options};
  cache.insert(bad);
  cache.report_hit_failure(key);
  EXPECT_FALSE(cache.quarantined(key));  // expiry generation == now
  EXPECT_EQ(cache.insert(bad), bad);     // re-admitted right away
}

// quarantine_ttl_inserts = UINT64_MAX means "forever". Before the sweep,
// insert_generation + ttl wrapped modulo 2^64 to insert_generation − 1: the
// tombstone expired instantly and the quarantine silently never engaged.
TEST(PlanCacheQuarantine, MaxTtlTombstoneSaturatesInsteadOfWrapping) {
  typename PlanCache<double>::Limits lim;
  lim.quarantine_failures = 1;
  lim.quarantine_ttl_inserts = std::numeric_limits<std::uint64_t>::max();
  PlanCache<double> cache(lim);

  auto bad = artifact_for(gen::banded(200, 4, 2.0, 1));
  const PlanCacheKey key{bad->structure, bad->options};
  cache.insert(bad);
  cache.report_hit_failure(key);
  ASSERT_TRUE(cache.quarantined(key));

  // Generations advance; a wrapped expiry would have lapsed at the first.
  cache.insert(artifact_for(gen::banded(220, 4, 2.0, 2)));
  cache.insert(artifact_for(gen::banded(240, 4, 2.0, 3)));
  EXPECT_TRUE(cache.quarantined(key));
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.stats().tombstones, 1u);
}

}  // namespace
}  // namespace blocktri
