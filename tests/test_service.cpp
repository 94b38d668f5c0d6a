// Tests of the solve service (ISSUE 8): the coalescing queue must be
// *invisible* — a request served in a sixteen-wide panel returns bitwise
// the vector a lone solve() would have produced — and the socket front end
// must turn every kind of client misbehaviour (truncated frames, corrupt
// bytes, vanishing peers) into typed errors, never a crash or a hang.
//
// The concurrent tests run under ThreadSanitizer in the CI stress lane
// alongside test_resilience.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"
#include "helpers.hpp"

namespace blocktri {
namespace {

using service::FrameHeader;
using service::Request;
using service::Response;
using service::ServiceOptions;
using service::SolveClient;
using service::SolveServer;
using service::SolveService;
using service::WireRequest;
using service::WireResponse;

using Opt = BlockSolver<double>::Options;

Csr<double> fixture() { return gen::grid2d(40, 25, 5); }  // n = 1000

Opt base_options(BlockScheme scheme = BlockScheme::kRecursive,
                 int threads = 1) {
  Opt opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = 64;
  opt.planner.nseg = 4;
  opt.threads = threads;
  return opt;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Submits `k` single-RHS requests from k concurrent client threads and
/// returns the k responses in submission order.
std::vector<Response> submit_concurrent(SolveService& service,
                                        std::uint64_t matrix_id,
                                        const std::vector<std::vector<double>>&
                                            rhs,
                                        const std::string& tenant = "default") {
  std::vector<Response> out(rhs.size());
  std::vector<std::thread> clients;
  clients.reserve(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    clients.emplace_back([&, i] {
      Request req;
      req.matrix_id = matrix_id;
      req.tenant = tenant;
      req.b = rhs[i];
      out[i] = service.solve(req);
    });
  }
  for (auto& t : clients) t.join();
  return out;
}

// --- Coalescing is bitwise invisible ---------------------------------------

// The acceptance matrix: schemes × k ∈ {1, 16} × threads ∈ {1, 4}. Every
// coalesced response must be bitwise identical to the lone solve() of its
// own right-hand side on a private solver.
TEST(ServiceCoalescing, PanelsBitwiseEqualSerialSolves) {
  const Csr<double> L = fixture();
  for (const BlockScheme scheme :
       {BlockScheme::kColumn, BlockScheme::kRow, BlockScheme::kRecursive,
        BlockScheme::kHbmc}) {
    for (const int threads : {1, 4}) {
      const Opt opt = base_options(scheme, threads);
      std::unique_ptr<BlockSolver<double>> reference;
      ASSERT_TRUE(BlockSolver<double>::create(L, opt, &reference).ok());

      for (const int k : {1, 16}) {
        ServiceOptions sopt;
        sopt.max_panel = 16;
        // Generous window: the leader lingers until all k requests queue
        // (k = max_panel dispatches immediately on the last arrival).
        sopt.batch_window_ms = k > 1 ? 2000.0 : 0.0;
        SolveService service(sopt);
        std::uint64_t id = 0;
        ASSERT_TRUE(service.register_matrix(L, opt, &id).ok());

        std::vector<std::vector<double>> rhs;
        for (int i = 0; i < k; ++i)
          rhs.push_back(gen::random_rhs<double>(
              L.nrows, 100 * static_cast<std::uint64_t>(k) + i));

        const std::vector<Response> got =
            submit_concurrent(service, id, rhs);
        for (int i = 0; i < k; ++i) {
          ASSERT_TRUE(got[i].status.ok())
              << to_string(scheme) << " t=" << threads << " k=" << k << ": "
              << got[i].status.to_string();
          EXPECT_TRUE(BitwiseEqual(got[i].x, reference->solve(rhs[i])))
              << to_string(scheme) << " t=" << threads << " k=" << k
              << " rhs " << i;
        }
        if (k == 16)
          EXPECT_GE(service.stats().max_panel_width, 2u)
              << "no coalescing happened at all";
      }
    }
  }
}

TEST(ServiceCoalescing, CheckedModePanelsMatchSolveChecked) {
  const Csr<double> L = fixture();
  Opt opt = base_options();
  std::unique_ptr<BlockSolver<double>> reference;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &reference).ok());

  ServiceOptions sopt;
  sopt.max_panel = 8;
  sopt.batch_window_ms = 2000.0;
  sopt.checked = true;
  SolveService service(sopt);
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(L, opt, &id).ok());

  std::vector<std::vector<double>> rhs;
  for (int i = 0; i < 8; ++i)
    rhs.push_back(gen::random_rhs<double>(L.nrows, 7 + i));
  const std::vector<Response> got = submit_concurrent(service, id, rhs);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(got[i].status.ok()) << got[i].status.to_string();
    const SolveResult<double> ref = reference->solve_checked(rhs[i]);
    EXPECT_TRUE(BitwiseEqual(got[i].x, ref.x)) << "rhs " << i;
    EXPECT_TRUE(got[i].report.residual_checked);
    EXPECT_EQ(got[i].report.residual, ref.report.residual);
  }
}

TEST(ServiceCoalescing, CoalesceOffServesEveryRequestSolo) {
  ServiceOptions sopt;
  sopt.coalesce = false;
  SolveService service(sopt);
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(fixture(), base_options(), &id).ok());

  std::vector<std::vector<double>> rhs;
  for (int i = 0; i < 6; ++i)
    rhs.push_back(gen::random_rhs<double>(fixture().nrows, 50 + i));
  const std::vector<Response> got = submit_concurrent(service, id, rhs);
  for (const Response& r : got) {
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_EQ(r.panel_width, 1);
  }
  EXPECT_EQ(service.stats().max_panel_width, 1u);
  EXPECT_EQ(service.stats().coalesced_requests, 0u);
}

// Sustained concurrent traffic: many tenants, many rounds, every response
// verified. The TSan stress lane runs this to certify the queue/demux
// handshake data-race-free.
TEST(ServiceCoalescing, ConcurrentClientsAllReceiveTheirOwnSolution) {
  const Csr<double> L = fixture();
  const Opt opt = base_options();
  std::unique_ptr<BlockSolver<double>> reference;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &reference).ok());

  ServiceOptions sopt;
  sopt.max_panel = 4;
  sopt.batch_window_ms = 5.0;
  SolveService service(sopt);
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(L, opt, &id).ok());

  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        Request req;
        req.matrix_id = id;
        req.tenant = "tenant-" + std::to_string(c % 3);
        req.b = gen::random_rhs<double>(L.nrows,
                                        1000 + c * kRounds + r);
        const Response resp = service.solve(req);
        if (!resp.status.ok() ||
            !BitwiseEqual(resp.x, reference->solve(req.b)))
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const service::ServiceStats st = service.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kClients * kRounds));
  std::uint64_t tenant_requests = 0;
  for (const char* t : {"tenant-0", "tenant-1", "tenant-2"})
    tenant_requests += service.tenant_stats(t).requests;
  EXPECT_EQ(tenant_requests, st.requests);
}

// --- Admission and deadlines -----------------------------------------------

TEST(ServiceAdmission, UnknownMatrixAndWrongSizeAreTypedErrors) {
  SolveService service;
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(fixture(), base_options(), &id).ok());

  Request req;
  req.matrix_id = id + 99;
  req.b = gen::random_rhs<double>(fixture().nrows, 1);
  EXPECT_EQ(service.solve(req).status.code(), StatusCode::kInvalidArgument);

  req.matrix_id = id;
  req.b.resize(7);
  EXPECT_EQ(service.solve(req).status.code(), StatusCode::kInvalidArgument);
}

// An already-expired deadline must be rejected before anything is queued —
// and in particular before any traffic reaches the shared plan cache, whose
// hit-failure ledger could otherwise quarantine a perfectly good plan.
TEST(ServiceAdmission, ExpiredDeadlineRejectedWithoutPoisoningTheCache) {
  SolveService service;
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(fixture(), base_options(), &id).ok());

  // Warm request so the cache has an entry worth protecting.
  Request warm;
  warm.matrix_id = id;
  warm.b = gen::random_rhs<double>(fixture().nrows, 2);
  ASSERT_TRUE(service.solve(warm).status.ok());
  const PlanCacheStats before = service.cache().stats();

  Request dead;
  dead.matrix_id = id;
  dead.tenant = "latecomer";
  dead.b = gen::random_rhs<double>(fixture().nrows, 3);
  dead.deadline_ms = 1e-9;  // expires the instant it is armed
  const Response resp = service.solve(dead);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resp.panel_width, 0);  // never rode a panel
  EXPECT_TRUE(resp.x.empty());

  const PlanCacheStats after = service.cache().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.quarantined, before.quarantined);
  EXPECT_EQ(after.tombstones, before.tombstones);
  EXPECT_EQ(service.tenant_stats("latecomer").deadline_misses, 1u);

  // The service is not poisoned either: the next request solves fine.
  EXPECT_TRUE(service.solve(warm).status.ok());
}

TEST(ServiceAdmission, ShutdownFailsNewRequestsTyped) {
  SolveService service;
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(fixture(), base_options(), &id).ok());
  service.shutdown();
  Request req;
  req.matrix_id = id;
  req.b = gen::random_rhs<double>(fixture().nrows, 4);
  EXPECT_EQ(service.solve(req).status.code(), StatusCode::kCancelled);
}

// --- Wire protocol (pure byte-buffer fault injection) ----------------------

WireRequest sample_request() {
  WireRequest r;
  r.matrix_id = 42;
  r.deadline_ms = 125.5;
  r.tenant = "tenant-7";
  r.b = {1.0, -2.5, 3.25, 0.0, 1e-300};
  return r;
}

TEST(Wire, RequestRoundTrips) {
  const WireRequest in = sample_request();
  const std::vector<std::uint8_t> buf = service::encode_request(in);
  WireRequest out;
  const Status st = service::decode_request(buf.data(), buf.size(), &out);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(out.matrix_id, in.matrix_id);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_TRUE(BitwiseEqual(out.b, in.b));
}

TEST(Wire, ResponseRoundTrips) {
  WireResponse in;
  in.code = StatusCode::kResidualTooLarge;
  in.message = "residual 1e-3 above tolerance";
  in.panel_width = 16;
  in.residual = 1e-3;
  in.refinements = 2;
  in.attempts = 3;
  in.degrades = 1;
  in.x = {4.0, 5.0, -6.0};
  const std::vector<std::uint8_t> buf = service::encode_response(in);
  WireResponse out;
  const Status st = service::decode_response(buf.data(), buf.size(), &out);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.message, in.message);
  EXPECT_EQ(out.panel_width, in.panel_width);
  EXPECT_EQ(out.residual, in.residual);
  EXPECT_EQ(out.refinements, in.refinements);
  EXPECT_EQ(out.attempts, in.attempts);
  EXPECT_EQ(out.degrades, in.degrades);
  EXPECT_TRUE(BitwiseEqual(out.x, in.x));
}

// Every strict prefix of a valid frame must decode to a typed failure —
// kTruncated once the header is intact — and never crash or over-read.
TEST(Wire, TruncationAtEveryLengthIsTyped) {
  const std::vector<std::uint8_t> buf =
      service::encode_request(sample_request());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    WireRequest out;
    const Status st = service::decode_request(buf.data(), len, &out);
    ASSERT_FALSE(st.ok()) << "prefix of " << len << " bytes decoded";
    if (len >= service::kFrameHeaderBytes)
      EXPECT_EQ(st.code(), StatusCode::kTruncated) << "at length " << len;
  }
}

TEST(Wire, HeaderCorruptionIsTyped) {
  const std::vector<std::uint8_t> good =
      service::encode_request(sample_request());

  auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    WireRequest out;
    return service::decode_request(bad.data(), bad.size(), &out);
  };

  EXPECT_EQ(corrupt(0, 0xFF).code(), StatusCode::kBadFormat);  // magic
  EXPECT_EQ(corrupt(4, 99).code(), StatusCode::kVersionMismatch);
  EXPECT_EQ(corrupt(5, 0).code(), StatusCode::kBadFormat);  // unknown type

  // A hostile payload length larger than the buffer: typed, no allocation.
  std::vector<std::uint8_t> bad = good;
  const std::uint64_t huge = service::kMaxFramePayload + 1;
  std::memcpy(bad.data() + 8, &huge, sizeof(huge));
  WireRequest out;
  EXPECT_EQ(service::decode_request(bad.data(), bad.size(), &out).code(),
            StatusCode::kBadFormat);
}

// A frame whose header survives but whose payload is damaged (flipped
// endianness canary) decodes to kBadFormat with the framing intact — the
// server answers it with an error response instead of closing.
TEST(Wire, PayloadCanaryDetectsCorruption) {
  std::vector<std::uint8_t> bad = service::encode_request(sample_request());
  bad[service::kFrameHeaderBytes] ^= 0xFF;  // first canary byte
  WireRequest out;
  EXPECT_EQ(service::decode_request(bad.data(), bad.size(), &out).code(),
            StatusCode::kBadFormat);
}

// --- Socket front end ------------------------------------------------------

std::string test_socket_path(const char* tag) {
  return "/tmp/blocktri_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    L_ = fixture();
    ASSERT_TRUE(service_.register_matrix(L_, base_options(), &id_).ok());
    server_ = std::make_unique<SolveServer>(
        service_, test_socket_path(
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name()));
    const Status st = server_->start();
    ASSERT_TRUE(st.ok()) << st.to_string();
  }

  void TearDown() override { server_->stop(); }

  Csr<double> L_;
  SolveService service_;
  std::uint64_t id_ = 0;
  std::unique_ptr<SolveServer> server_;
};

TEST_F(ServerFixture, RoundTripOverTheSocket) {
  std::unique_ptr<BlockSolver<double>> reference;
  ASSERT_TRUE(BlockSolver<double>::create(L_, base_options(), &reference)
                  .ok());

  SolveClient client;
  ASSERT_TRUE(client.connect(server_->socket_path()).ok());
  WireRequest req;
  req.matrix_id = id_;
  req.tenant = "socket";
  req.b = gen::random_rhs<double>(L_.nrows, 9);
  WireResponse resp;
  const Status st = client.solve(req, &resp);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_TRUE(BitwiseEqual(resp.x, reference->solve(req.b)));
  EXPECT_GE(resp.panel_width, 1u);

  // The same connection serves a second request.
  req.b = gen::random_rhs<double>(L_.nrows, 10);
  ASSERT_TRUE(client.solve(req, &resp).ok());
  EXPECT_TRUE(BitwiseEqual(resp.x, reference->solve(req.b)));
  // frames_served ticks just after the write the client already read, so
  // poll briefly instead of racing the server thread's counter update.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server_->stats().frames_served < 2 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  EXPECT_EQ(server_->stats().frames_served, 2u);
}

TEST_F(ServerFixture, ConcurrentSocketClientsAllGetTheirOwnAnswer) {
  std::unique_ptr<BlockSolver<double>> reference;
  ASSERT_TRUE(BlockSolver<double>::create(L_, base_options(), &reference)
                  .ok());
  constexpr int kClients = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SolveClient client;
      if (!client.connect(server_->socket_path()).ok()) {
        mismatches.fetch_add(1);
        return;
      }
      WireRequest req;
      req.matrix_id = id_;
      req.b = gen::random_rhs<double>(L_.nrows, 20 + c);
      WireResponse resp;
      if (!client.solve(req, &resp).ok() || resp.code != StatusCode::kOk ||
          !BitwiseEqual(resp.x, reference->solve(req.b)))
        mismatches.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service_.stats().requests,
            static_cast<std::uint64_t>(kClients));
}

// A request frame delivered in dribbles (header, pause, payload in two
// writes) must be reassembled by the server's read loop — short reads are
// the norm on stream sockets, not an error.
TEST_F(ServerFixture, InterleavedPartialWritesAreReassembled) {
  SolveClient client;
  ASSERT_TRUE(client.connect(server_->socket_path()).ok());
  WireRequest req;
  req.matrix_id = id_;
  req.b = gen::random_rhs<double>(L_.nrows, 31);
  const std::vector<std::uint8_t> frame = service::encode_request(req);

  const std::size_t cut1 = service::kFrameHeaderBytes;
  const std::size_t cut2 = frame.size() / 2;
  ASSERT_EQ(::send(client.fd(), frame.data(), cut1, 0),
            static_cast<ssize_t>(cut1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::send(client.fd(), frame.data() + cut1, cut2 - cut1, 0),
            static_cast<ssize_t>(cut2 - cut1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::send(client.fd(), frame.data() + cut2, frame.size() - cut2, 0),
            static_cast<ssize_t>(frame.size() - cut2));

  std::vector<std::uint8_t> reply;
  bool clean_eof = false;
  ASSERT_TRUE(service::read_frame(client.fd(), &reply, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  WireResponse resp;
  ASSERT_TRUE(
      service::decode_response(reply.data(), reply.size(), &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
}

// A client that dies mid-frame: the server sees kTruncated, counts it, and
// keeps serving other connections.
TEST_F(ServerFixture, TruncatedFrameDoesNotKillTheServer) {
  {
    SolveClient client;
    ASSERT_TRUE(client.connect(server_->socket_path()).ok());
    WireRequest req;
    req.matrix_id = id_;
    req.b = gen::random_rhs<double>(L_.nrows, 32);
    const std::vector<std::uint8_t> frame = service::encode_request(req);
    const std::size_t half = frame.size() / 2;
    ASSERT_EQ(::send(client.fd(), frame.data(), half, 0),
              static_cast<ssize_t>(half));
    client.close();  // hang up mid-frame
  }

  // The server must still answer a well-formed request afterwards.
  SolveClient client;
  ASSERT_TRUE(client.connect(server_->socket_path()).ok());
  WireRequest req;
  req.matrix_id = id_;
  req.b = gen::random_rhs<double>(L_.nrows, 33);
  WireResponse resp;
  ASSERT_TRUE(client.solve(req, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server_->stats().io_errors < 1 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  EXPECT_GE(server_->stats().io_errors, 1u);
}

// Damaged framing (bad magic): the byte stream cannot be resynced, so the
// server counts a decode error and closes that connection — and nothing
// else.
TEST_F(ServerFixture, CorruptMagicClosesOnlyThatConnection) {
  SolveClient client;
  ASSERT_TRUE(client.connect(server_->socket_path()).ok());
  WireRequest req;
  req.matrix_id = id_;
  req.b = gen::random_rhs<double>(L_.nrows, 34);
  std::vector<std::uint8_t> frame = service::encode_request(req);
  frame[0] ^= 0xFF;
  ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  std::vector<std::uint8_t> reply;
  bool clean_eof = false;
  const Status st = service::read_frame(client.fd(), &reply, &clean_eof);
  EXPECT_TRUE(clean_eof || !st.ok());  // server hung up without replying

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server_->stats().decode_errors < 1 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  EXPECT_GE(server_->stats().decode_errors, 1u);

  SolveClient fresh;
  ASSERT_TRUE(fresh.connect(server_->socket_path()).ok());
  WireResponse resp;
  ASSERT_TRUE(fresh.solve(req, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
}

// Intact framing, damaged payload (flipped canary): the server answers with
// a typed error response and the connection stays usable.
TEST_F(ServerFixture, PayloadDecodeFailureGetsATypedReplyAndKeepsServing) {
  SolveClient client;
  ASSERT_TRUE(client.connect(server_->socket_path()).ok());
  WireRequest req;
  req.matrix_id = id_;
  req.b = gen::random_rhs<double>(L_.nrows, 35);
  std::vector<std::uint8_t> frame = service::encode_request(req);
  frame[service::kFrameHeaderBytes] ^= 0xFF;  // canary
  ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  std::vector<std::uint8_t> reply;
  bool clean_eof = false;
  ASSERT_TRUE(service::read_frame(client.fd(), &reply, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  WireResponse resp;
  ASSERT_TRUE(
      service::decode_response(reply.data(), reply.size(), &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kBadFormat);

  // Same connection, good frame: served normally.
  WireResponse good;
  ASSERT_TRUE(client.solve(req, &good).ok());
  EXPECT_EQ(good.code, StatusCode::kOk);
  EXPECT_GE(server_->stats().decode_errors, 1u);
}

// A client that submits a valid request and vanishes before the response:
// the response write fails typed (kIoError, no SIGPIPE) and the server
// carries on.
TEST_F(ServerFixture, ClientDisconnectMidSolveIsATypedIoError) {
  {
    SolveClient client;
    ASSERT_TRUE(client.connect(server_->socket_path()).ok());
    WireRequest req;
    req.matrix_id = id_;
    req.b = gen::random_rhs<double>(L_.nrows, 36);
    const std::vector<std::uint8_t> frame = service::encode_request(req);
    ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    client.close();  // gone before the solve finishes
  }

  // The write failure is observable and the server still serves.
  SolveClient fresh;
  ASSERT_TRUE(fresh.connect(server_->socket_path()).ok());
  WireRequest req;
  req.matrix_id = id_;
  req.b = gen::random_rhs<double>(L_.nrows, 37);
  WireResponse resp;
  ASSERT_TRUE(fresh.solve(req, &resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
}

TEST(ServerLifecycle, StopUnblocksIdleConnectionsAndUnlinksTheSocket) {
  SolveService service;
  std::uint64_t id = 0;
  ASSERT_TRUE(service.register_matrix(fixture(), base_options(), &id).ok());
  const std::string path = test_socket_path("lifecycle");
  SolveServer server(service, path);
  ASSERT_TRUE(server.start().ok());

  SolveClient idle;
  ASSERT_TRUE(idle.connect(path).ok());  // connected, never sends a frame
  server.stop();                         // must not hang on the idle reader

  SolveClient late;
  EXPECT_FALSE(late.connect(path).ok());  // socket file is gone
}

}  // namespace
}  // namespace blocktri
