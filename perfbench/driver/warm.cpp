// warm units: solves on already-built solvers, no preprocessing. Each round
// calls every pattern once:
//   t1     single-RHS solve, threads = 1          bitwise vs reference
//   tn     single-RHS solve, threads = nproc      bitwise vs reference, or
//                                                 residual if sync-free
//   panel  k = 16 solve_many, threads = nproc     bitwise vs reference
//   shard  k = 16 through ShardCoordinator, P = 2 bitwise vs reference
#include <exception>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Calls `body(pattern)` once per pattern inside a `span`, appending the
/// seconds it reports to `samples[pattern]`.
template <class F>
void round(Fixture& fx, const char* span, Samples* samples, F&& body) {
  for (Pattern& p : fx.pats) {
    try {
      ScopedSpan s(fx.tracer, span);
      (*samples)[p.name].push_back(body(p));
    } catch (const std::exception& e) {
      fx.ops.check(false, p.name + ": " + span + " threw: " + e.what());
    }
  }
}

}  // namespace

void warm_t1_round(Fixture& fx, int r, WarmSamples* out) {
  round(fx, "warm.t1", &out->t1, [&](Pattern& p) {
    const std::size_t slot = static_cast<std::size_t>(r) % kPanel;
    std::vector<double> x(p.rhs[slot].size());
    const double secs = timed(fx.tracer, "core.solve", [&] {
      p.t1->solve(p.rhs[slot].data(), x.data());
    });
    fx.ops.check(bitwise_equal(x.data(), p.ref[slot].data(), x.size()),
                 p.name + ": threads=1 solve");
    return secs;
  });
}

void warm_tn_round(Fixture& fx, int r, WarmSamples* out) {
  round(fx, "warm.tn", &out->tn, [&](Pattern& p) {
    const std::size_t slot = static_cast<std::size_t>(r) % kPanel;
    const std::vector<double>& b = p.rhs[slot];
    std::vector<double> x(b.size());
    const double secs = timed(fx.tracer, "core.solve",
                              [&] { p.tn->solve(b.data(), x.data()); });
    // The threaded level-set, diagonal and SpMV paths promise bitwise
    // results; only the threaded single-RHS sync-free kernel may reorder
    // sums, and the promise there is a residual within tolerance.
    fx.ops.check(p.tn_reorders
                     ? relative_residual(p.L, x.data(), b.data()) <=
                           residual_tolerance(p.L.nrows)
                     : bitwise_equal(x.data(), p.ref[slot].data(), x.size()),
                 p.name + ": threads=nproc solve");
    return secs;
  });
}

void warm_panel_round(Fixture& fx, WarmSamples* out) {
  round(fx, "warm.panel", &out->panel, [&](Pattern& p) {
    std::vector<double> X(p.B.size());
    const double secs = timed(fx.tracer, "core.solve_many", [&] {
      p.tn->solve_many(p.B.data(), X.data(), kPanel);
    });
    fx.ops.check(bitwise_equal(X.data(), p.Xref.data(), X.size()),
                 p.name + ": k=16 panel at threads=nproc");
    return secs;
  });
}

void warm_shard_round(Fixture& fx, WarmSamples* out) {
  round(fx, "warm.shard", &out->shard, [&](Pattern& p) {
    std::vector<double> X(p.B.size());
    blocktri::Status st;
    const double secs = timed(fx.tracer, "shard.solve_many", [&] {
      st = p.shard->solve_many(p.B.data(), X.data(), kPanel);
    });
    fx.ops.check(st.ok() && bitwise_equal(X.data(), p.Xref.data(), X.size()),
                 p.name + ": k=16 panel through 2 shards");
    return secs;
  });
}

}  // namespace perfbench
