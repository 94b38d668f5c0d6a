// Tests of the sharded multi-process solve (ISSUE 9). The headline contract
// is bitwise invisibility: a solve distributed over P worker processes
// returns byte-identical vectors to the single-process solve_many, for every
// blocking scheme, shard count and panel width. The failure contracts matter
// just as much: a SIGKILLed or hung worker is a *typed* kWorkerLost (never a
// hang), the shm segment can never leak (unlinked at creation), dead workers
// are reaped (no zombies) and respawned warm (zero level-set re-analysis),
// and the in-process fallback turns a lost epoch into a correct answer.
//
// Runs in the CI stress lane (ASan/UBSan/TSan) alongside test_resilience and
// test_service; the shm epoch protocol must be TSan-clean.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"
#include "common/io.hpp"
#include "helpers.hpp"
#include "shard/control.hpp"
#include "shard/shm.hpp"

namespace blocktri {
namespace {

using shard::CoordinatorStats;
using shard::ShardCoordinator;

using Opt = BlockSolver<double>::Options;

Csr<double> fixture() { return gen::grid2d(40, 25, 5); }  // n = 1000

template <class T = double>
typename BlockSolver<T>::Options base_options(
    BlockScheme scheme = BlockScheme::kRecursive) {
  typename BlockSolver<T>::Options opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = 64;
  opt.planner.nseg = 4;
  opt.threads = 1;
  return opt;
}

template <class T>
std::vector<T> make_panel(index_t n, index_t k, unsigned seed) {
  Rng rng(seed);
  std::vector<T> B(static_cast<std::size_t>(n) * k);
  for (auto& v : B) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  return B;
}

template <class T>
bool BitwiseEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// True when the (unlinked) segment name still resolves under /dev/shm —
/// the leak the create-then-unlink discipline makes impossible.
bool shm_name_visible(const std::string& name) {
  std::string path = "/dev/shm" + name;  // name starts with '/'
  return ::access(path.c_str(), F_OK) == 0;
}

/// Builds a base solver + coordinator pair. `mutate` tweaks the shard
/// options before the pool is forked.
template <class T>
void make_pool(const Csr<double>& lower_d,
               typename BlockSolver<T>::Options opt, int processes,
               std::unique_ptr<BlockSolver<T>>* solver,
               std::unique_ptr<ShardCoordinator<T>>* coord) {
  Csr<T> lower;
  if constexpr (std::is_same_v<T, double>) {
    lower = lower_d;
  } else {
    lower.nrows = lower_d.nrows;
    lower.ncols = lower_d.ncols;
    lower.row_ptr = lower_d.row_ptr;
    lower.col_idx = lower_d.col_idx;
    lower.val.assign(lower_d.val.begin(), lower_d.val.end());
  }
  opt.shard.processes = processes;
  ASSERT_TRUE(BlockSolver<T>::create(lower, opt, solver).ok());
  Status st = ShardCoordinator<T>::create(**solver, opt, coord);
  ASSERT_TRUE(st.ok()) << st.to_string();
}

// --- Bitwise equality -------------------------------------------------------

/// Every scheme, P ∈ {1, 2, 4} and k ∈ {1, 16}: each sharded panel is
/// memcmp-identical to the in-process solve_many, and no worker re-ran a
/// level analysis.
template <class T>
void expect_bitwise_across_schemes_shards_and_widths() {
  const Csr<double> L = fixture();
  for (BlockScheme scheme :
       {BlockScheme::kColumn, BlockScheme::kRow, BlockScheme::kRecursive,
        BlockScheme::kHbmc}) {
    for (int p : {1, 2, 4}) {
      std::unique_ptr<BlockSolver<T>> solver;
      std::unique_ptr<ShardCoordinator<T>> coord;
      make_pool<T>(L, base_options<T>(scheme), p, &solver, &coord);
      ASSERT_EQ(coord->shard_count(), p);
      for (index_t k : {index_t{1}, index_t{16}}) {
        const std::vector<T> B = make_panel<T>(solver->n(), k, 77 + k);
        std::vector<T> want(B.size()), got(B.size());
        ASSERT_TRUE(
            solver->solve_many(B.data(), want.data(), k, SolveControls{})
                .ok());
        Status st = coord->solve_many(B.data(), got.data(), k);
        ASSERT_TRUE(st.ok()) << to_string(scheme) << " p=" << p << ": "
                             << st.to_string();
        EXPECT_TRUE(BitwiseEqual(got, want))
            << to_string(scheme) << " p=" << p << " k=" << k;
      }
      // The warm-start proof: no worker ever re-ran level-set analysis.
      EXPECT_EQ(coord->stats().worker_level_analyses, 0u);
      EXPECT_EQ(coord->stats().fallbacks, 0u);
    }
  }
}

TEST(ShardSolve, BitwiseEqualAcrossSchemesShardsAndWidths) {
  expect_bitwise_across_schemes_shards_and_widths<double>();
}

TEST(ShardSolve, BitwiseEqualInSinglePrecision) {
  expect_bitwise_across_schemes_shards_and_widths<float>();
}

TEST(ShardSolve, GatherScatterFormMatchesContiguous) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  make_pool<double>(fixture(), base_options(), 3, &solver, &coord);
  const index_t n = solver->n(), k = 5;
  const std::vector<double> B = make_panel<double>(n, k, 41);
  std::vector<double> want(B.size());
  ASSERT_TRUE(coord->solve_many(B.data(), want.data(), k).ok());

  std::vector<std::vector<double>> cols(k);
  std::vector<const double*> bs(k);
  std::vector<double*> xs(k);
  std::vector<std::vector<double>> xcols(k, std::vector<double>(n));
  for (index_t c = 0; c < k; ++c) {
    cols[c].assign(B.begin() + c * n, B.begin() + (c + 1) * n);
    bs[c] = cols[c].data();
    xs[c] = xcols[c].data();
  }
  ASSERT_TRUE(coord->solve_many(bs.data(), xs.data(), k).ok());
  for (index_t c = 0; c < k; ++c) {
    const std::vector<double> want_col(want.begin() + c * n,
                                       want.begin() + (c + 1) * n);
    EXPECT_TRUE(BitwiseEqual(xcols[c], want_col)) << "column " << c;
  }
}

// --- Progress reports ---------------------------------------------------------

// Four independent bidiagonal chains under the column scheme plan four
// triangles and three empty squares. Every entry point skips the empty
// squares and counts only the steps it runs — at threads 1 and 4, and
// through a shard pool.
TEST(SolveProgress, EmptySquaresAreSkippedNotCountedOnEveryPath) {
  const index_t n = 4000;
  Csr<double> L;
  L.nrows = L.ncols = n;
  L.row_ptr.push_back(0);
  for (index_t i = 0; i < n; ++i) {
    if (i % 1000 != 0) {
      L.col_idx.push_back(i - 1);
      L.val.push_back(-0.5);
    }
    L.col_idx.push_back(i);
    L.val.push_back(2.0);
    L.row_ptr.push_back(static_cast<offset_t>(L.col_idx.size()));
  }
  const std::vector<double> B = make_panel<double>(n, 2, 17);
  const std::vector<double> b(B.begin(), B.begin() + n);
  const double* const Bs[] = {B.data(), B.data() + n};
  std::vector<double> x(b.size()), X(B.size());
  double* const Xs[] = {X.data(), X.data() + n};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Opt opt = base_options(BlockScheme::kColumn);
    opt.planner.nseg = 4;
    opt.planner.reorder = false;
    opt.threads = threads;
    std::unique_ptr<BlockSolver<double>> solver;
    ASSERT_TRUE(BlockSolver<double>::create(L, opt, &solver).ok());
    ASSERT_EQ(solver->plan().steps.size(), 7u);
    const auto all_run = [](const SolveReport& rep, const char* path) {
      EXPECT_EQ(rep.steps_total, 4) << path;
      EXPECT_EQ(rep.steps_completed, 4) << path;
    };

    SolveReport rep;
    ASSERT_TRUE(solver->solve(b.data(), x.data(), {}, &rep).ok());
    all_run(rep, "solve");
    rep = {};
    ASSERT_TRUE(solver->solve_many(B.data(), X.data(), 2, {}, &rep).ok());
    all_run(rep, "solve_many");
    rep = {};
    ASSERT_TRUE(solver->solve_many(Bs, Xs, 2, {}, &rep).ok());
    all_run(rep, "solve_many (gather)");
    const SolveResult<double> one = solver->solve_checked(b);
    ASSERT_TRUE(one.ok()) << one.status.to_string();
    all_run(one.report, "solve_checked");
    const SolveManyResult<double> many = solver->solve_many_checked(B, 2);
    ASSERT_TRUE(many.ok()) << many.status.to_string();
    for (const SolveReport& r : many.reports) all_run(r, "solve_many_checked");

    opt.shard.processes = 2;
    std::unique_ptr<ShardCoordinator<double>> coord;
    ASSERT_TRUE(ShardCoordinator<double>::create(*solver, opt, &coord).ok());
    for (const index_t k : {index_t{1}, index_t{2}}) {
      rep = {};
      ASSERT_TRUE(coord->solve_many(B.data(), X.data(), k, {}, &rep).ok());
      all_run(rep, "ShardCoordinator");
    }
  }
}

// --- Argument and lifecycle contracts ---------------------------------------

TEST(ShardSolve, CreateRejectsBadProcessCounts) {
  std::unique_ptr<BlockSolver<double>> solver;
  Opt opt = base_options();
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), opt, &solver).ok());
  std::unique_ptr<ShardCoordinator<double>> coord;
  opt.shard.processes = 0;
  EXPECT_EQ(ShardCoordinator<double>::create(*solver, opt, &coord).code(),
            StatusCode::kInvalidArgument);
  opt.shard.processes = shard::kMaxShards + 1;
  EXPECT_EQ(ShardCoordinator<double>::create(*solver, opt, &coord).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardSolve, PanelWiderThanMaxPanelIsRejected) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.max_panel = 4;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);
  const std::vector<double> B = make_panel<double>(solver->n(), 5, 3);
  std::vector<double> X(B.size());
  EXPECT_EQ(coord->solve_many(B.data(), X.data(), 5).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardSolve, ExpiredDeadlineIsTypedNotFallenBack) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  make_pool<double>(fixture(), base_options(), 2, &solver, &coord);
  const std::vector<double> b = make_panel<double>(solver->n(), 1, 13);
  std::vector<double> x(b.size());
  SolveControls controls;
  controls.deadline = Deadline::after_ms(-1.0);
  EXPECT_EQ(coord->solve(b.data(), x.data(), controls).code(),
            StatusCode::kDeadlineExceeded);
  // A deadline is not a worker fault: the pool stays intact.
  EXPECT_EQ(coord->stats().fallbacks, 0u);
}

TEST(ShardSolve, ShmSegmentNeverVisibleAndDistinctAcrossCoordinators) {
  // Two live pools at once: the salted names must differ (collision
  // regression) and neither may appear in /dev/shm (unlinked at creation).
  std::unique_ptr<BlockSolver<double>> s1, s2;
  std::unique_ptr<ShardCoordinator<double>> c1, c2;
  make_pool<double>(fixture(), base_options(), 2, &s1, &c1);
  make_pool<double>(fixture(), base_options(), 2, &s2, &c2);
  EXPECT_NE(c1->shm_name(), c2->shm_name());
  EXPECT_FALSE(shm_name_visible(c1->shm_name()));
  EXPECT_FALSE(shm_name_visible(c2->shm_name()));

  const std::vector<double> B = make_panel<double>(s1->n(), 2, 21);
  std::vector<double> want(B.size()), x1(B.size()), x2(B.size());
  ASSERT_TRUE(s1->solve_many(B.data(), want.data(), 2, SolveControls{}).ok());
  ASSERT_TRUE(c1->solve_many(B.data(), x1.data(), 2).ok());
  ASSERT_TRUE(c2->solve_many(B.data(), x2.data(), 2).ok());
  EXPECT_TRUE(BitwiseEqual(x1, want));
  EXPECT_TRUE(BitwiseEqual(x2, want));
}

TEST(ShardSolve, DestructorLeavesNoChildrenBehind) {
  std::vector<pid_t> pids;
  {
    std::unique_ptr<BlockSolver<double>> solver;
    std::unique_ptr<ShardCoordinator<double>> coord;
    make_pool<double>(fixture(), base_options(), 3, &solver, &coord);
    pids = coord->worker_pids();
    ASSERT_EQ(pids.size(), 3u);
    for (pid_t pid : pids) ASSERT_GT(pid, 0);
  }
  // Post-destruction every worker is gone *and* reaped: a targeted waitpid
  // sees ECHILD (no zombie), and the pid no longer accepts signal 0 as our
  // child (it may be recycled by an unrelated process, so ECHILD from
  // waitpid is the authoritative check).
  for (pid_t pid : pids) {
    errno = 0;
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    EXPECT_EQ(r, -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

// --- Fault injection: worker loss -------------------------------------------

TEST(ShardFault, KilledWorkerYieldsTypedWorkerLost) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = false;
  opt.shard.fault.kill_worker = 1;  // dies when the epoch command arrives
  opt.shard.epoch_timeout_ms = 4000;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 51);
  std::vector<double> x(b.size());
  const Status st = coord->solve(b.data(), x.data());
  EXPECT_EQ(st.code(), StatusCode::kWorkerLost) << st.to_string();
  EXPECT_GE(coord->stats().workers_lost, 1u);
  EXPECT_EQ(coord->stats().fallbacks, 0u);

  // The dead worker is reaped (its pid slot reads -1, no zombie) and the
  // segment never existed in the namespace to leak.
  const std::vector<pid_t> pids = coord->worker_pids();
  EXPECT_EQ(pids[1], -1);
  EXPECT_FALSE(shm_name_visible(coord->shm_name()));
}

TEST(ShardFault, FallbackRecoversTheEpochInProcess) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = true;
  opt.shard.fault.kill_worker = 0;  // dies when the epoch command arrives
  opt.shard.epoch_timeout_ms = 4000;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 52);
  std::vector<double> x(b.size()), want(b.size());
  ASSERT_TRUE(solver->solve(b.data(), want.data(), {}).ok());
  const Status st = coord->solve(b.data(), x.data());
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_TRUE(BitwiseEqual(x, want));
  EXPECT_GE(coord->stats().fallbacks, 1u);
  EXPECT_GE(coord->stats().workers_lost, 1u);
}

TEST(ShardFault, ExternallyKilledWorkerIsRespawnedWarm) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = true;
  opt.shard.epoch_timeout_ms = 4000;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 53);
  std::vector<double> x(b.size()), want(b.size());
  ASSERT_TRUE(solver->solve(b.data(), want.data(), {}).ok());
  ASSERT_TRUE(coord->solve(b.data(), x.data()).ok());

  // Kill a worker from outside, between epochs.
  const std::vector<pid_t> pids = coord->worker_pids();
  ASSERT_GT(pids[0], 0);
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  // The next epoch respawns it from the saved plan — warm (no re-analysis)
  // — and solves correctly (directly or via fallback, depending on whether
  // the death is noticed before or during the epoch).
  ASSERT_TRUE(coord->solve(b.data(), x.data()).ok());
  EXPECT_TRUE(BitwiseEqual(x, want));
  // One more epoch to make sure the pool is fully healthy again.
  ASSERT_TRUE(coord->solve(b.data(), x.data()).ok());
  EXPECT_TRUE(BitwiseEqual(x, want));
  const CoordinatorStats s = coord->stats();
  EXPECT_GE(s.respawns, 1u);
  EXPECT_EQ(s.worker_level_analyses, 0u);  // respawn reran the warm path
  const std::vector<pid_t> fresh = coord->worker_pids();
  EXPECT_GT(fresh[0], 0);
  EXPECT_NE(fresh[0], pids[0]);
}

TEST(ShardFault, HungWorkerTripsTheEpochTimeoutNotAHang) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = false;
  opt.shard.fault.hang_worker = 0;  // hangs when the epoch command arrives
  opt.shard.epoch_timeout_ms = 300;  // short: the test must stay fast
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 54);
  std::vector<double> x(b.size());
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = coord->solve(b.data(), x.data());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(st.code(), StatusCode::kWorkerLost) << st.to_string();
  EXPECT_LT(ms, 10000.0) << "epoch timeout failed to bound the hang";
}

TEST(ShardFault, WorkerLostStatusHasAName) {
  EXPECT_STREQ(status_code_name(StatusCode::kWorkerLost), "worker-lost");
}

// --- Service integration ----------------------------------------------------

TEST(ShardService, ShardedBackendServesCoalescedPanelsBitwise) {
  using service::Request;
  using service::Response;
  using service::ServiceOptions;
  using service::SolveService;

  ServiceOptions sopt;
  sopt.max_panel = 8;
  sopt.batch_window_ms = 5.0;
  SolveService svc(sopt);

  Opt opt = base_options();
  opt.shard.processes = 2;
  std::uint64_t id = 0;
  ASSERT_TRUE(svc.register_matrix(fixture(), opt, &id).ok());
  ASSERT_NE(svc.shard_backend(id), nullptr);
  EXPECT_EQ(svc.shard_backend(id)->shard_count(), 2);

  // Reference: the registered base solver, single process.
  const BlockSolver<double>* base = svc.solver(id);
  ASSERT_NE(base, nullptr);
  const index_t n = base->n();

  std::vector<std::vector<double>> rhs;
  std::vector<std::vector<double>> want;
  for (unsigned i = 0; i < 6; ++i) {
    rhs.push_back(make_panel<double>(n, 1, 100 + i));
    std::vector<double> w(static_cast<std::size_t>(n));
    ASSERT_TRUE(base->solve(rhs.back().data(), w.data(), {}).ok());
    want.push_back(std::move(w));
  }

  std::vector<Response> out(rhs.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < rhs.size(); ++i)
    clients.emplace_back([&, i] {
      Request req;
      req.matrix_id = id;
      req.b = rhs[i];
      out[i] = svc.solve(req);
    });
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].status.ok()) << i << ": " << out[i].status.to_string();
    EXPECT_TRUE(BitwiseEqual(out[i].x, want[i])) << "request " << i;
  }
  const service::ServiceStats s = svc.stats();
  EXPECT_GT(s.shard.epochs, 0u);
  EXPECT_EQ(s.shard.worker_level_analyses, 0u);
  EXPECT_EQ(s.shard.fallbacks, 0u);
}

TEST(ShardService, UnshardedMatrixHasNoBackend) {
  service::SolveService svc;
  std::uint64_t id = 0;
  ASSERT_TRUE(svc.register_matrix(fixture(), base_options(), &id).ok());
  EXPECT_EQ(svc.shard_backend(id), nullptr);
  EXPECT_EQ(svc.shard_backend(id + 999), nullptr);
  EXPECT_EQ(svc.stats().shard.epochs, 0u);
}

// --- common/io frame layer (ISSUE 9 satellite) ------------------------------

constexpr io::FrameSpec kTestSpec = {0x54534554u /* "TEST" */, 1, 1 << 16};

TEST(FramedIo, RoundTripWithAndWithoutCrc) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 250};
  for (bool crc : {false, true}) {
    ASSERT_TRUE(io::write_frame(fds[0], kTestSpec, 7, payload.data(),
                                payload.size(), crc)
                    .ok());
    std::uint8_t type = 0;
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(io::read_frame(fds[1], kTestSpec, &type, &got).ok());
    EXPECT_EQ(type, 7);
    EXPECT_EQ(got, payload);  // CRC trailer verified and stripped
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramedIo, FlippedPayloadBitIsAChecksumMismatch) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Assemble a CRC frame by hand, then corrupt one payload byte.
  std::vector<std::uint8_t> payload = {10, 20, 30, 40};
  const std::uint32_t crc = io::crc32(payload.data(), payload.size());
  io::FrameHeader hdr;
  hdr.magic = kTestSpec.magic;
  hdr.version = kTestSpec.version;
  hdr.type = 1;
  hdr.flags = io::kFrameFlagCrc;
  hdr.payload_len = payload.size();
  std::uint8_t raw[io::kFrameHeaderBytes];
  io::encode_frame_header(hdr, raw);
  payload[2] ^= 0x4;  // the flip
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  ASSERT_TRUE(io::write_exact(fds[0], payload.data(), payload.size()).ok());
  ASSERT_TRUE(io::write_exact(fds[0], &crc, sizeof crc).ok());
  std::uint8_t type = 0;
  std::vector<std::uint8_t> got;
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got).code(),
            StatusCode::kChecksumMismatch);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramedIo, TruncationAndCleanEofAreDistinguished) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A header promising 100 payload bytes, 40 delivered, then the peer
  // vanishes mid-buffer: typed kTruncated.
  io::FrameHeader hdr;
  hdr.magic = kTestSpec.magic;
  hdr.version = kTestSpec.version;
  hdr.type = 2;
  hdr.payload_len = 100;
  std::uint8_t raw[io::kFrameHeaderBytes];
  io::encode_frame_header(hdr, raw);
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  const std::vector<std::uint8_t> partial(40, 0xAB);
  ASSERT_TRUE(io::write_exact(fds[0], partial.data(), partial.size()).ok());
  ::close(fds[0]);
  std::uint8_t type = 0;
  std::vector<std::uint8_t> got;
  bool clean_eof = false;
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got, &clean_eof).code(),
            StatusCode::kTruncated);
  EXPECT_FALSE(clean_eof);
  // A fresh pair, closed between frames: clean EOF, Ok.
  int fds2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  ::close(fds2[0]);
  clean_eof = false;
  EXPECT_TRUE(
      io::read_frame(fds2[1], kTestSpec, &type, &got, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  ::close(fds2[1]);
  ::close(fds[1]);
}

TEST(FramedIo, WrongMagicAndOversizePayloadAreBadFormat) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  io::FrameHeader hdr;
  hdr.magic = 0xDEADBEEF;
  hdr.version = kTestSpec.version;
  hdr.payload_len = 0;
  std::uint8_t raw[io::kFrameHeaderBytes];
  io::encode_frame_header(hdr, raw);
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  std::uint8_t type = 0;
  std::vector<std::uint8_t> got;
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got).code(),
            StatusCode::kBadFormat);

  hdr.magic = kTestSpec.magic;
  hdr.payload_len = kTestSpec.max_payload + 1;  // validated pre-allocation
  io::encode_frame_header(hdr, raw);
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got).code(),
            StatusCode::kBadFormat);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramedIo, ControlMessagesRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shard::ReportMsg in;
  in.seq = 42;
  in.code = static_cast<std::int32_t>(StatusCode::kDeadlineExceeded);
  in.message = "deadline exceeded after 17 of 23 plan steps";
  in.steps_completed = 17;
  in.steps_total = 23;
  in.level_analyses = 0;
  ASSERT_TRUE(shard::write_report(fds[0], in).ok());
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(shard::read_any_frame(fds[1], &type, &payload).ok());
  ASSERT_EQ(type, static_cast<std::uint8_t>(shard::ControlFrame::kReport));
  shard::ReportMsg out;
  ASSERT_TRUE(shard::decode_report(payload, &out).ok());
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.message, in.message);
  EXPECT_EQ(out.steps_completed, in.steps_completed);
  EXPECT_EQ(out.steps_total, in.steps_total);
  // Truncated control payloads decode typed, never read past the buffer.
  payload.resize(4);
  EXPECT_EQ(shard::decode_report(payload, &out).code(),
            StatusCode::kTruncated);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace blocktri
