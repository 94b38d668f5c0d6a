// Throughput of the solve service under concurrent single-RHS load
// (ISSUE 8).
//
// Sixteen closed-loop clients hammer one registered matrix with single
// right-hand sides. Uncoalesced, every request pays a full solve of its
// own; with the coalescing queue on, concurrent requests ride one
// solve_many panel and the plan/structure streaming is amortised across
// the panel (the interleaved panel layout runs the warm per-RHS cost at
// ~0.37–0.41x a warm single solve on this matrix). The responses are
// bitwise identical either way — asserted continuously here against
// per-seed references, and exhaustively in tests/test_service.cpp — so
// the entire difference is throughput:
//
//   uncoalesced   coalesce = false: requests served solo (the baseline)
//   coalesced     coalesce = true, max_panel = 16, a few-ms batch window
//   socket        coalesced, but every request crosses the Unix-socket
//                 front end (frame encode → server thread → demux → frame
//                 decode) — prices the transport on top
//
// Acceptance (ISSUE 8): coalesced throughput >= 3x uncoalesced with 16
// concurrent clients at full size.
//
// Besides the closed-loop modes above, an *open-loop* mode (ISSUE 9
// satellite) drives the coalesced service with a Poisson arrival process —
// arrivals scheduled up front at a fixed offered rate, latency measured from
// the scheduled arrival so queueing delay counts. Two rates are derived from
// the measured closed-loop coalesced throughput: 0.8x (below saturation —
// achieved tracks offered, the tail stays flat) and 1.5x (past saturation —
// achieved clamps at capacity and the backlog shows up in p99). An explicit
// --rate runs one open-loop record at that rate instead.
//
//   ./bench/service_load [--n=60000] [--clients=16] [--iters=12]
//                        [--panel=16] [--window-ms=15] [--rate=R]
//                        [--open-ms=3000] [--out=BENCH_service.json] [--tiny]
//
// --tiny is the CI smoke mode: small matrix, few iterations, gate reported
// but not enforced.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

struct Record {
  std::string mode;
  int clients = 0;
  std::uint64_t requests = 0;
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  double offered_rps = 0.0;        // open-loop only: the Poisson arrival rate
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double coalesce_ratio = 0.0;     // requests per dispatched panel
  std::uint64_t max_panel_width = 0;
  std::uint64_t mismatches = 0;    // responses not bitwise-equal to reference
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

/// One measured run: `clients` threads, `iters` requests each, cycling
/// through a fixed set of right-hand sides whose reference solutions were
/// solved once up front (so bitwise verification is a memcmp, not a solve).
Record run_load(service::SolveService& svc, std::uint64_t id,
                const std::vector<std::vector<double>>& rhs,
                const std::vector<std::vector<double>>& ref,
                int clients, int iters, const std::string& mode,
                service::SolveServer* server) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::uint64_t> mismatches{0};

  // Requests are pre-built once and shared read-only across the clients
  // (solve() takes them by const reference): the bench measures service
  // throughput, not the cost of copying right-hand sides into request
  // structs. Each pooled right-hand side is one tenant.
  std::vector<service::Request> reqs(rhs.size());
  std::vector<service::WireRequest> wire_reqs(rhs.size());
  for (std::size_t s = 0; s < rhs.size(); ++s) {
    reqs[s].matrix_id = wire_reqs[s].matrix_id = id;
    reqs[s].tenant = wire_reqs[s].tenant = "tenant-" + std::to_string(s);
    reqs[s].b = wire_reqs[s].b = rhs[s];
  }

  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::SolveClient wire_client;
      if (server != nullptr &&
          !wire_client.connect(server->socket_path()).ok()) {
        mismatches.fetch_add(static_cast<std::uint64_t>(iters));
        return;
      }
      latencies[c].reserve(static_cast<std::size_t>(iters));
      for (int i = 0; i < iters; ++i) {
        const std::size_t slot = (c + static_cast<std::size_t>(i) * 7) %
                                 rhs.size();
        Stopwatch sw;
        std::vector<double> got;
        bool ok = false;
        if (server == nullptr) {
          service::Response resp = svc.solve(reqs[slot]);
          ok = resp.status.ok();
          got = std::move(resp.x);
        } else {
          service::WireResponse resp;
          ok = wire_client.solve(wire_reqs[slot], &resp).ok() &&
               resp.code == StatusCode::kOk;
          got = std::move(resp.x);
        }
        latencies[c].push_back(sw.milliseconds());
        if (!ok || got.size() != ref[slot].size() ||
            std::memcmp(got.data(), ref[slot].data(),
                        got.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = wall.milliseconds();

  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());

  const service::ServiceStats st = svc.stats();
  Record r;
  r.mode = mode;
  r.clients = clients;
  r.requests = static_cast<std::uint64_t>(clients) *
               static_cast<std::uint64_t>(iters);
  r.wall_ms = wall_ms;
  r.throughput_rps = 1000.0 * static_cast<double>(r.requests) / wall_ms;
  r.p50_ms = percentile(all, 0.50);
  r.p99_ms = percentile(all, 0.99);
  r.coalesce_ratio = st.coalesce_ratio;
  r.max_panel_width = st.max_panel_width;
  r.mismatches = mismatches.load();
  return r;
}

/// Open-loop (arrival-rate) load: request arrivals follow a Poisson process
/// at `rate_rps`, independent of service completion — the load a real
/// front-end applies, where a slow service does not throttle its own
/// arrivals and queueing delay shows up in the latency tail instead of
/// hiding in the closed loop. Arrival times are drawn up front (exponential
/// inter-arrivals); `clients` worker threads claim arrivals from a shared
/// cursor, sleep until each scheduled instant, and measure latency from the
/// *scheduled arrival* — a late pickup is queueing delay and counts.
Record run_open_loop(service::SolveService& svc, std::uint64_t id,
                     const std::vector<std::vector<double>>& rhs,
                     const std::vector<std::vector<double>>& ref,
                     int clients, double rate_rps, double duration_ms,
                     const std::string& mode) {
  using Clock = std::chrono::steady_clock;

  std::mt19937_64 rng(1234567);
  std::exponential_distribution<double> gap_ms(rate_rps / 1000.0);
  std::vector<double> arrival_ms;
  for (double t = gap_ms(rng); t < duration_ms; t += gap_ms(rng))
    arrival_ms.push_back(t);

  std::vector<service::Request> reqs(rhs.size());
  for (std::size_t s = 0; s < rhs.size(); ++s) {
    reqs[s].matrix_id = id;
    reqs[s].tenant = "tenant-" + std::to_string(s);
    reqs[s].b = rhs[s];
  }

  std::vector<std::vector<double>> latencies(clients);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::size_t> cursor{0};
  const auto start = Clock::now();

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= arrival_ms.size()) return;
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            arrival_ms[i]));
        std::this_thread::sleep_until(due);
        const std::size_t slot = i % rhs.size();
        service::Response resp = svc.solve(reqs[slot]);
        const double lat_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        latencies[c].push_back(lat_ms);
        if (!resp.status.ok() || resp.x.size() != ref[slot].size() ||
            std::memcmp(resp.x.data(), ref[slot].data(),
                        resp.x.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());

  const service::ServiceStats st = svc.stats();
  Record r;
  r.mode = mode;
  r.clients = clients;
  r.requests = arrival_ms.size();
  r.wall_ms = wall_ms;
  r.offered_rps = rate_rps;
  r.throughput_rps = 1000.0 * static_cast<double>(r.requests) / wall_ms;
  r.p50_ms = percentile(all, 0.50);
  r.p99_ms = percentile(all, 0.99);
  r.coalesce_ratio = st.coalesce_ratio;
  r.max_panel_width = st.max_panel_width;
  r.mismatches = mismatches.load();
  return r;
}

void write_json(const std::string& path, index_t n,
                const std::vector<Record>& recs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"service_load\",\n");
  std::fprintf(f, "  \"n\": %lld,\n", static_cast<long long>(n));
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"clients\": %d, \"requests\": %llu, "
        "\"wall_ms\": %.3f, \"throughput_rps\": %.3f, \"offered_rps\": %.3f, "
        "\"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"coalesce_ratio\": %.3f, "
        "\"max_panel_width\": %llu, \"mismatches\": %llu}%s\n",
        r.mode.c_str(), r.clients,
        static_cast<unsigned long long>(r.requests), r.wall_ms,
        r.throughput_rps, r.offered_rps, r.p50_ms, r.p99_ms, r.coalesce_ratio,
        static_cast<unsigned long long>(r.max_panel_width),
        static_cast<unsigned long long>(r.mismatches),
        i + 1 == recs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const auto n = static_cast<index_t>(cli.get_int("n", tiny ? 5000 : 60000));
  const int clients = cli.get_int("clients", 16);
  const int iters = cli.get_int("iters", tiny ? 4 : 12);
  const int panel = cli.get_int("panel", 16);
  // The window must exceed the client-turnaround spread or panels run
  // half-full: on a single core, 16 clients re-arrive over ~10ms.
  const double window_ms = cli.get_double("window-ms", tiny ? 2.0 : 15.0);
  const double rate = cli.get_double("rate", 0.0);  // 0: derive from closed
  const double open_ms = cli.get_double("open-ms", tiny ? 400.0 : 3000.0);
  const std::string matrix = cli.get("matrix", "rndlevels");
  const std::string out_path = cli.get("out", "BENCH_service.json");
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }
  std::fprintf(stderr, "service_load: n=%lld clients=%d iters=%d panel=%d\n",
               static_cast<long long>(n), clients, iters, panel);

  // The service's home turf is level-rich structure: a single solve there is
  // dominated by per-step scheduling and structure streaming, exactly the
  // costs one solve_many panel pays once for the whole batch. --matrix=banded
  // gives the bandwidth-bound contrast (weaker amortisation).
  Csr<double> L;
  if (matrix == "banded") {
    L = gen::banded(n, 48, 16.0, 11);
  } else if (matrix == "rndlevels") {
    L = gen::random_levels(n, n / 16, 2.0, 1.0, 8);
  } else {
    std::fprintf(stderr, "unknown --matrix=%s (banded|rndlevels)\n",
                 matrix.c_str());
    return 1;
  }
  BlockSolver<double>::Options opt;
  opt.scheme = BlockScheme::kRecursive;
  opt.planner.stop_rows =
      std::min<index_t>(1024, std::max<index_t>(512, n / 32));
  opt.planner.nseg = 8;

  // Fixed request pool + references, solved once on a private solver.
  std::unique_ptr<BlockSolver<double>> reference;
  if (!BlockSolver<double>::create(L, opt, &reference).ok()) return 1;
  std::vector<std::vector<double>> rhs, ref;
  for (int i = 0; i < clients; ++i) {
    rhs.push_back(gen::random_rhs<double>(L.nrows, 100 + i));
    ref.push_back(reference->solve(rhs.back()));
  }

  auto make_service = [&](bool coalesce) {
    service::ServiceOptions sopt;
    sopt.coalesce = coalesce;
    sopt.max_panel = panel;
    sopt.batch_window_ms = window_ms;
    return std::make_unique<service::SolveService>(sopt);
  };

  std::vector<Record> recs;

  {
    auto svc = make_service(false);
    std::uint64_t id = 0;
    if (!svc->register_matrix(L, opt, &id).ok()) return 1;
    recs.push_back(
        run_load(*svc, id, rhs, ref, clients, iters, "uncoalesced", nullptr));
  }
  {
    auto svc = make_service(true);
    std::uint64_t id = 0;
    if (!svc->register_matrix(L, opt, &id).ok()) return 1;
    recs.push_back(
        run_load(*svc, id, rhs, ref, clients, iters, "coalesced", nullptr));
  }
  {
    auto svc = make_service(true);
    std::uint64_t id = 0;
    if (!svc->register_matrix(L, opt, &id).ok()) return 1;
    const std::string path =
        "/tmp/blocktri_service_load_" + std::to_string(::getpid()) + ".sock";
    service::SolveServer server(*svc, path);
    if (Status st = server.start(); !st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    recs.push_back(
        run_load(*svc, id, rhs, ref, clients, iters, "socket", &server));
    server.stop();
  }

  // Open-loop (Poisson arrival) records against a fresh coalesced service.
  {
    std::vector<std::pair<std::string, double>> rates;
    if (rate > 0.0) {
      rates.emplace_back("open-loop", rate);
    } else {
      const double capacity = recs[1].throughput_rps;  // closed coalesced
      rates.emplace_back("open-0.8x", 0.8 * capacity);
      rates.emplace_back("open-1.5x", 1.5 * capacity);
    }
    for (const auto& [mode, rps] : rates) {
      auto svc = make_service(true);
      std::uint64_t id = 0;
      if (!svc->register_matrix(L, opt, &id).ok()) return 1;
      recs.push_back(
          run_open_loop(*svc, id, rhs, ref, clients, rps, open_ms, mode));
    }
  }

  for (const Record& r : recs) {
    char offered[48] = "";
    if (r.offered_rps > 0.0)
      std::snprintf(offered, sizeof offered, " (offered %.0f)",
                    r.offered_rps);
    std::fprintf(stderr,
                 "  %-12s %6.1f req/s%s  wall %8.1f ms  p50 %7.2f ms  "
                 "p99 %7.2f ms  ratio %5.2f  widest %llu  mismatches %llu\n",
                 r.mode.c_str(), r.throughput_rps, offered, r.wall_ms,
                 r.p50_ms, r.p99_ms, r.coalesce_ratio,
                 static_cast<unsigned long long>(r.max_panel_width),
                 static_cast<unsigned long long>(r.mismatches));
  }

  write_json(out_path, n, recs);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());

  // Correctness is non-negotiable in every mode, smoke runs included.
  for (const Record& r : recs)
    if (r.mismatches != 0) {
      std::fprintf(stderr, "FAIL: %s had %llu non-bitwise responses\n",
                   r.mode.c_str(),
                   static_cast<unsigned long long>(r.mismatches));
      return 1;
    }

  // Acceptance gate (ISSUE 8): coalescing buys >= 3x throughput under 16
  // concurrent single-RHS clients. Full size only — tiny solves are too
  // short for the panel amortisation to dominate scheduling noise.
  if (tiny) return 0;
  const double speedup = recs[1].throughput_rps / recs[0].throughput_rps;
  std::fprintf(stderr, "coalesced/uncoalesced speedup: %.2fx\n", speedup);
  if (!(speedup >= 3.0)) {
    std::fprintf(stderr, "ACCEPTANCE FAIL: speedup %.2fx < 3x\n", speedup);
    return 1;
  }
  return 0;
}
