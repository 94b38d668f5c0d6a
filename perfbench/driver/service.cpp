// service units: one SolveService (coalescing on) with one registered
// matrix, driven in segments of three kinds:
//   closed  nproc in-process clients, each sending its next request when the
//           previous one returns — the capacity in requests/s
//   open    Poisson arrivals at the fixed offered rate, in process; latency
//           is timed from each request's scheduled arrival
//   socket  the same open loop through SolveServer / SolveClient
// Every response is checked bitwise against the threads=1 reference.
#include <unistd.h>

#include <atomic>
#include <functional>
#include <random>
#include <thread>

#include "bench.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace bs = blocktri::service;

struct ServiceLoad::Impl {
  Fixture& fx;
  std::vector<bs::Request> reqs;
  std::vector<bs::WireRequest> wire;
  std::string sock;
  std::unique_ptr<bs::SolveServer> server;
  std::vector<bs::SolveClient> conns;
  std::uint64_t segment = 0;  // seeds each open-loop segment's arrivals

  explicit Impl(Fixture& f) : fx(f) {}

  bool response_ok(std::size_t slot, const std::vector<double>& x) const {
    const std::vector<double>& want = fx.svc.ref[slot];
    return x.size() == want.size() &&
           bitwise_equal(x.data(), want.data(), x.size());
  }

  /// Untimed requests from nproc threads (through the socket when
  /// `socket`), so a segment starts on warm caches like the rest of it.
  void warm_up(bool socket) {
    std::vector<std::thread> pool;
    for (int t = 0; t < fx.cfg.nproc; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = 0; i < 2; ++i) {
          const std::size_t slot = (static_cast<std::size_t>(t) * 2 + i) % kPanel;
          std::vector<double> x;
          bool ok = false;
          if (socket) {
            bs::WireResponse resp;
            ok = conns[static_cast<std::size_t>(t)].solve(wire[slot], &resp).ok() &&
                 resp.code == blocktri::StatusCode::kOk;
            x = std::move(resp.x);
          } else {
            bs::Response resp = fx.svc.svc->solve(reqs[slot]);
            ok = resp.status.ok();
            x = std::move(resp.x);
          }
          fx.ops.check(ok && response_ok(slot, x), "warm-up response");
        }
      });
    }
    for (auto& th : pool) th.join();
  }

  /// One open-loop segment: Poisson arrivals over `seconds`, claimed in
  /// order by nproc generator threads that wait for each due time and call
  /// `send(thread, slot, &x)`. Latency and lateness are both measured from
  /// the due time.
  void open_loop(double seconds, const char* span,
                 const std::function<bool(int, std::size_t,
                                          std::vector<double>*)>& send,
                 std::vector<double>* lat_ms, std::vector<double>* late_ms) {
    std::mt19937_64 rng(fx.cfg.seed * 1000003 + ++segment);
    std::exponential_distribution<double> gap_ms(fx.cfg.rate / 1000.0);
    std::vector<double> arrivals;
    for (double t = gap_ms(rng); t < seconds * 1e3; t += gap_ms(rng))
      arrivals.push_back(t);

    const int threads = fx.cfg.nproc;
    std::vector<std::vector<double>> lat(threads), late(threads);
    std::atomic<std::size_t> cursor{0};
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<double> x;
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= arrivals.size()) return;
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::milli>(
                                           arrivals[i]));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          const std::size_t slot = i % kPanel;
          bool good = false;
          {
            ScopedSpan s(fx.tracer, span, static_cast<std::int64_t>(i));
            good = send(t, slot, &x);
          }
          const auto done = Clock::now();
          fx.ops.check(good && response_ok(slot, x),
                       std::string(span) + " response");
          lat[t].push_back(
              std::chrono::duration<double, std::milli>(done - due).count());
          late[t].push_back(
              std::chrono::duration<double, std::milli>(sent - due).count());
        }
      });
    }
    for (auto& th : pool) th.join();
    for (int t = 0; t < threads; ++t) {
      lat_ms->insert(lat_ms->end(), lat[t].begin(), lat[t].end());
      late_ms->insert(late_ms->end(), late[t].begin(), late[t].end());
    }
  }
};

ServiceLoad::ServiceLoad(Fixture& fx) : impl_(std::make_unique<Impl>(fx)) {
  const ServiceFixture& s = fx.svc;
  impl_->reqs.resize(kPanel);
  impl_->wire.resize(kPanel);
  for (std::size_t k = 0; k < static_cast<std::size_t>(kPanel); ++k) {
    impl_->reqs[k].matrix_id = impl_->wire[k].matrix_id = s.id;
    impl_->reqs[k].tenant = impl_->wire[k].tenant =
        "tenant-" + std::to_string(k);
    impl_->reqs[k].b = impl_->wire[k].b = s.rhs[k];
  }
  // run_dir is relative to the working directory, so the socket path fits
  // sockaddr_un wherever the checkout lives.
  impl_->sock = fx.cfg.run_dir + "/svc." + std::to_string(::getpid()) + ".sock";
  impl_->server = std::make_unique<bs::SolveServer>(*s.svc, impl_->sock);
  if (!fx.ops.check(impl_->server->start().ok(), "socket server start"))
    return;
  impl_->conns.resize(static_cast<std::size_t>(fx.cfg.nproc));
  for (auto& c : impl_->conns)
    fx.ops.check(c.connect(impl_->sock).ok(), "socket connect");
}

ServiceLoad::~ServiceLoad() {
  for (auto& c : impl_->conns) c.close();
  impl_->server->stop();
}

void ServiceLoad::closed(double seconds) {
  Impl& m = *impl_;
  m.warm_up(false);
  std::atomic<std::uint64_t> done{0};
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < m.fx.cfg.nproc; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c);
           seconds_since(start) < seconds; i += 7) {
        const std::size_t slot = i % kPanel;
        bs::Response resp;
        {
          ScopedSpan sp(m.fx.tracer, "service.closed_request");
          resp = m.fx.svc.svc->solve(m.reqs[slot]);
        }
        m.fx.ops.check(resp.status.ok() && m.response_ok(slot, resp.x),
                       "closed-loop response");
        done.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  s_.closed_rps.push_back(static_cast<double>(done.load()) /
                          seconds_since(start));
}

void ServiceLoad::open(double seconds) {
  Impl& m = *impl_;
  m.warm_up(false);
  m.open_loop(
      seconds, "service.request",
      [&](int, std::size_t slot, std::vector<double>* x) {
        bs::Response resp = m.fx.svc.svc->solve(m.reqs[slot]);
        *x = std::move(resp.x);
        return resp.status.ok();
      },
      &s_.open_ms, &s_.late_ms);
}

void ServiceLoad::socket(double seconds) {
  Impl& m = *impl_;
  if (m.conns.size() != static_cast<std::size_t>(m.fx.cfg.nproc)) return;
  m.warm_up(true);
  m.open_loop(
      seconds, "wire.request",
      [&](int t, std::size_t slot, std::vector<double>* x) {
        bs::WireResponse resp;
        const bool ok = m.conns[static_cast<std::size_t>(t)]
                            .solve(m.wire[slot], &resp)
                            .ok() &&
                        resp.code == blocktri::StatusCode::kOk;
        *x = std::move(resp.x);
        return ok;
      },
      &s_.socket_ms, &s_.late_ms);
}

}  // namespace perfbench
