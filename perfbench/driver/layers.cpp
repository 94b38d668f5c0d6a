// Traced per-layer probes. Each probe calls one layer's public functions
// from outside, inside a span, and reports what that layer did: time, work
// counts, or a ratio against the default path. Nothing here changes the
// library; where a probe re-does work create() does internally (level
// analysis, planning, format conversion) the timing is of the same public
// function on the same input.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>

#include "analysis/levels.hpp"
#include "bench.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "order/hbmc.hpp"
#include "persist/artifact.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/triangular.hpp"

namespace perfbench {

namespace bt = blocktri;

namespace {

std::string kind_key(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

const bt::TriKernelKind kTriKinds[] = {
    bt::TriKernelKind::kCompletelyParallel, bt::TriKernelKind::kLevelSet,
    bt::TriKernelKind::kSyncFree, bt::TriKernelKind::kCusparseLike};
const bt::SpmvKernelKind kSquareKinds[] = {
    bt::SpmvKernelKind::kScalarCsr, bt::SpmvKernelKind::kVectorCsr,
    bt::SpmvKernelKind::kScalarDcsr, bt::SpmvKernelKind::kVectorDcsr};

/// Median wall time (ms) of `reps` calls of `f`, each in a span.
template <class F>
double median_ms(Tracer& tr, const char* span, int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(timed(tr, span, f) * 1e3);
  return median(v);
}

std::size_t csr_bytes(const Csr<double>& a) {
  return a.row_ptr.size() * sizeof(bt::offset_t) +
         a.col_idx.size() * sizeof(index_t) + a.val.size() * sizeof(double);
}

/// Preprocessing stages of one pattern, each timed as a separate call.
void probe_preprocessing(Fixture& fx, Pattern& p, int reps, double create_ms,
                         MetricMap& m) {
  Tracer& tr = fx.tracer;
  const Solver& s = *p.t1;
  const double check = median_ms(tr, "sparse.check_lower_triangular", reps, [&] {
    fx.ops.check(bt::check_lower_triangular(p.L).ok(),
                 p.name + ": check_lower_triangular");
  });
  const double levels = median_ms(tr, "analysis.compute_level_sets", reps,
                                  [&] { (void)bt::compute_level_sets(p.L); });
  const double plan = median_ms(tr, "plan.plan", reps, [&] {
    Csr<double> permuted;
    const bt::BlockPlan bp =
        p.opt.scheme == bt::BlockScheme::kHbmc
            ? bt::order::plan_hbmc(p.L, p.opt.planner,
                                   static_cast<index_t>(s.level_merge_width()),
                                   &permuted)
            : bt::plan_recursive(p.L, p.opt.planner, &permuted);
    fx.ops.check(bt::equals(bp, s.plan()),
                 p.name + ": re-planned plan equals the solver's");
  });
  Csr<double> P;
  const double permute = median_ms(tr, "sparse.permute_symmetric", reps, [&] {
    P = bt::permute_symmetric(p.L, s.plan().new_of_old);
  });
  const double convert = median_ms(tr, "sparse.convert", reps, [&] {
    (void)bt::csr_to_csc(P);
    (void)bt::csr_to_dcsr(P);
  });
  m["sparse.check_ms"] += check;
  m["sparse.permute_ms"] += permute;
  m["sparse.convert_ms"] += convert;
  m["analysis.levels_ms"] += levels;
  m["plan.plan_ms"] += plan;
  // Planning runs the level analyses and the symmetric permutation itself,
  // so levels and permute are parts of plan, not further parts of create.
  m["create.unattributed_ms"] += create_ms - (check + plan + convert);

  const bt::BlockPlan& bp = s.plan();
  m["plan.steps"] += static_cast<double>(bp.steps.size());
  m["plan.waves"] += static_cast<double>(s.step_waves().size());
  m["plan.tri_blocks"] += bp.num_tri_blocks();
  m["plan.squares"] += static_cast<double>(bp.squares.size());
  m["order.colors"] += bp.num_colors();
  m["plan.nnz_in_squares"] += static_cast<double>(s.nnz_in_squares());
  m["plan.nnz"] += static_cast<double>(s.nnz());
  for (const auto& t : s.tri_info())
    m["adaptive.tri." + kind_key(bt::to_string(t.kind))] += 1;
  for (const auto& q : s.square_info())
    m["adaptive.square." + kind_key(bt::to_string(q.kind))] += 1;
}

/// save → decode → rehydrate, each timed alone.
void probe_persist(Fixture& fx, Pattern& p, int reps, MetricMap& m) {
  Tracer& tr = fx.tracer;
  const std::string path = fx.cfg.run_dir + "/layers_" + p.name + ".btpa";
  const double save = median_ms(tr, "persist.save_artifact", reps, [&] {
    fx.ops.check(p.t1->save_artifact(path).ok(), p.name + ": save_artifact");
  });
  auto art = std::make_shared<bt::PlanArtifact<double>>();
  const double decode = median_ms(tr, "persist.load_artifact", reps, [&] {
    fx.ops.check(bt::load_artifact(path, art.get()).ok(),
                 p.name + ": load_artifact");
  });
  std::unique_ptr<Solver> warm;
  std::shared_ptr<const bt::PlanArtifact<double>> shared = art;
  const double rehydrate =
      median_ms(tr, "persist.create_from_artifact", reps, [&] {
        fx.ops.check(Solver::create_from_artifact(shared, p.opt, &warm).ok(),
                     p.name + ": create_from_artifact");
      });
  if (warm) {
    std::vector<double> x(p.L.nrows);
    warm->solve(p.rhs[0].data(), x.data());
    fx.ops.check(bitwise_equal(x.data(), p.ref[0].data(), x.size()),
                 p.name + ": solve after rehydration");
  }
  std::remove(path.c_str());
  m["persist.save_ms"] += save;
  m["persist.decode_ms"] += decode;
  m["persist.rehydrate_ms"] += rehydrate;
  m["persist.artifact_bytes"] += static_cast<double>(bt::artifact_bytes(*art));
  m["persist.csr_bytes"] += static_cast<double>(csr_bytes(p.L));
}

/// Replays one warm solve step by step through exec_plan_step_many(k = 1)
/// and sums each kernel kind's time. The replayed x must equal solve()'s.
void probe_solve_steps(Fixture& fx, Pattern& p, int reps, double solve_ms,
                       MetricMap& m) {
  Tracer& tr = fx.tracer;
  const Solver& s = *p.t1;
  const bt::BlockPlan& plan = s.plan();
  const std::size_t n = static_cast<std::size_t>(plan.n);
  std::vector<double> bw(n), xw(n), x(n), scratch(s.tri_scratch_len());
  std::map<std::string, std::vector<double>> per_kind;
  std::vector<double> totals;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan replay(tr, "solve.replay");
    std::map<std::string, double> kind_ms;
    for (std::size_t i = 0; i < n; ++i) {
      bw[static_cast<std::size_t>(plan.new_of_old[i])] = p.rhs[0][i];
      xw[i] = 0.0;
    }
    double total = 0.0;
    for (const bt::ExecStep& st : plan.steps) {
      const bool tri = st.kind == bt::ExecStep::Kind::kTri;
      const std::size_t idx = static_cast<std::size_t>(st.index);
      const std::string key =
          tri ? "solve.tri." + kind_key(bt::to_string(s.tri_info()[idx].kind))
              : "solve.square." +
                    kind_key(bt::to_string(s.square_info()[idx].kind));
      const double ms = timed(tr, tri ? "sptrsv.step" : "spmv.step", [&] {
                          s.exec_plan_step_many(st, bw.data(), xw.data(), 1,
                                                scratch.data());
                        }) * 1e3;
      kind_ms[key + "_ms"] += ms;
      total += ms;
    }
    for (std::size_t i = 0; i < n; ++i)
      x[i] = xw[static_cast<std::size_t>(plan.new_of_old[i])];
    fx.ops.check(bitwise_equal(x.data(), p.ref[0].data(), n),
                 p.name + ": step replay equals solve()");
    for (const auto& [k, v] : kind_ms) per_kind[k].push_back(v);
    totals.push_back(total);
  }
  for (const auto& [k, v] : per_kind) m[k] += median(v);
  m["solve.overhead_ms"] += solve_ms - median(totals);

  const bt::SolveResult<double> res = s.solve_checked(p.rhs[0]);
  fx.ops.check(res.ok(), p.name + ": solve_checked with collect_stats");
  m["solve.flops"] += static_cast<double>(res.report.flops);
  m["solve.bytes"] += static_cast<double>(res.report.bytes);
  m["solve.levels_executed"] += res.report.levels_executed;
  m["solve.levels_merged"] += res.report.levels_merged;
}

/// Solve time under each SIMD lowering, interleaved, and the k = 16 panel
/// at threads = 1.
void probe_simd_and_panel(Fixture& fx, Pattern& p, int reps, MetricMap& m) {
  Tracer& tr = fx.tracer;
  const Solver& s = *p.t1;
  std::vector<double> x(p.L.nrows), X(p.B.size());
  std::vector<double> dflt, strict, blocked, panel;
  // Blocked and vector lowerings share one summation order (bitwise
  // promise); the strict lowering keeps the pre-SIMD order (residual).
  auto one = [&](std::vector<double>& into, const char* span, bool bitwise) {
    into.push_back(timed(tr, span, [&] {
      s.solve(p.rhs[0].data(), x.data());
    }));
    fx.ops.check(
        bitwise ? bitwise_equal(x.data(), p.ref[0].data(), x.size())
                : relative_residual(p.L, x.data(), p.rhs[0].data()) <=
                      residual_tolerance(p.L.nrows),
        p.name + ": " + span);
  };
  for (int r = 0; r < reps; ++r) {
    one(dflt, "simd.default", true);
    {
      bt::simd::ScopedPathOverride o(bt::simd::Path::kStrictScalar);
      one(strict, "simd.strict", false);
    }
    {
      bt::simd::ScopedPathOverride o(bt::simd::Path::kBlockedScalar);
      one(blocked, "simd.blocked", true);
    }
    panel.push_back(timed(tr, "batched.panel_t1", [&] {
      s.solve_many(p.B.data(), X.data(), kPanel);
    }));
    fx.ops.check(bitwise_equal(X.data(), p.Xref.data(), X.size()),
                 p.name + ": k=16 panel at threads=1");
  }
  m["simd.default_ms"] += median(dflt) * 1e3;
  m["simd.strict_ms"] += median(strict) * 1e3;
  m["simd.blocked_ms"] += median(blocked) * 1e3;
  m["panel.t1_rhs_ms"] += median(panel) * 1e3 / kPanel;
}

/// Single-thread STREAM-style triad a = b + s·c over three arrays whose
/// total size is at least 4x the last-level cache.
void probe_memory(Fixture& fx, MetricMap& m) {
  const std::uint64_t llc = last_level_cache_bytes();
  std::uint64_t total = std::max<std::uint64_t>(4 * llc, 64ull << 20);
  if (fx.cfg.tiny) total = 24ull << 20;
  const std::size_t len = total / 3 / sizeof(double);
  std::vector<double> a(len, 0.0), b(len, 1.0), c(len, 2.0);
  std::vector<double> gbps;
  for (int r = 0; r < (fx.cfg.tiny ? 1 : 3); ++r) {
    const double secs = timed(fx.tracer, "mem.triad", [&] {
      for (std::size_t i = 0; i < len; ++i) a[i] = b[i] + 0.5 * c[i];
    });
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(len) / secs /
                   1e9);
  }
  fx.ops.check(a[len / 2] == 2.0, "triad result");
  m["mem.stream_gbps"] = median(gbps);
  m["mem.llc_mib"] = static_cast<double>(llc) / (1 << 20);
  m["mem.triad_mib"] = static_cast<double>(3 * len * sizeof(double)) /
                       (1 << 20);
}

}  // namespace

void run_layer_probes(Fixture& fx, const std::map<std::string, double>& t1_ms,
                      const std::map<std::string, double>& create_ms,
                      MetricMap* out) {
  MetricMap& m = *out;
  for (const auto k : kTriKinds) {
    m["adaptive.tri." + kind_key(bt::to_string(k))] = 0;
    m["solve.tri." + kind_key(bt::to_string(k)) + "_ms"] = 0;
  }
  for (const auto k : kSquareKinds) {
    m["adaptive.square." + kind_key(bt::to_string(k))] = 0;
    m["solve.square." + kind_key(bt::to_string(k)) + "_ms"] = 0;
  }
  const int reps = fx.cfg.tiny ? 1 : 3;
  const int solve_reps = fx.cfg.tiny ? 2 : 9;
  for (Pattern& p : fx.pats) {
    try {
      ScopedSpan span(fx.tracer, "layers.pattern");
      probe_preprocessing(fx, p, reps, create_ms.at(p.name), m);
      probe_persist(fx, p, reps, m);
      probe_solve_steps(fx, p, solve_reps, t1_ms.at(p.name), m);
      probe_simd_and_panel(fx, p, solve_reps, m);
    } catch (const std::exception& e) {
      fx.ops.check(false, p.name + ": layer probe threw: " + e.what());
    }
  }
  m["plan.nnz_in_squares_frac"] = m["plan.nnz_in_squares"] / m["plan.nnz"];
  m.erase("plan.nnz_in_squares");
  m.erase("plan.nnz");
  m["persist.artifact_mib"] = m["persist.artifact_bytes"] / (1 << 20);
  m["persist.artifact_vs_csr"] =
      m["persist.artifact_bytes"] / m["persist.csr_bytes"];
  m.erase("persist.artifact_bytes");
  m.erase("persist.csr_bytes");
  m["simd.strict_vs_default"] = m["simd.strict_ms"] / m["simd.default_ms"];
  m["simd.blocked_vs_default"] = m["simd.blocked_ms"] / m["simd.default_ms"];
  m.erase("simd.strict_ms");
  m.erase("simd.blocked_ms");
  m.erase("simd.default_ms");

  // Fork-join cost of the pool the threaded executor uses.
  {
    bt::ThreadPool pool(fx.cfg.nproc);
    std::vector<double> us;
    for (int r = 0; r < 400; ++r)
      us.push_back(timed(fx.tracer, "pool.run", [&] {
                     pool.run(fx.cfg.nproc, [](int) {});
                   }) * 1e6);
    m["pool.run_us"] = median(us);
  }

  // The service's panel solve at the mean width it formed, timed alone.
  {
    const ServiceFixture& s = fx.svc;
    const blocktri::service::ServiceStats st = s.svc->stats();
    const auto w = static_cast<index_t>(std::clamp<double>(
        std::round(st.coalesce_ratio), 1.0, static_cast<double>(kPanel)));
    const std::size_t n = s.rhs[0].size();
    std::vector<double> B(n * w), X(n * w), Xref(n * w);
    for (index_t c = 0; c < w; ++c) {
      std::copy(s.rhs[c].begin(), s.rhs[c].end(), B.begin() + c * n);
      std::copy(s.ref[c].begin(), s.ref[c].end(), Xref.begin() + c * n);
    }
    const Solver* solver = s.svc->solver(s.id);
    m["service.panel_solve_ms"] =
        median_ms(fx.tracer, "service.panel_solve", solve_reps, [&] {
          solver->solve_many(B.data(), X.data(), w);
        });
    fx.ops.check(bitwise_equal(X.data(), Xref.data(), X.size()),
                 "service panel solve");
    const bt::WorkspacePoolStats ws = solver->workspace_stats();
    m["service.coalesce_ratio"] = st.coalesce_ratio;
    m["service.max_panel_width"] = static_cast<double>(st.max_panel_width);
    m["service.panels"] = static_cast<double>(st.panels);
    m["service.deadline_misses"] = static_cast<double>(st.deadline_misses);
    m["workspace.created"] = static_cast<double>(ws.created);
    m["workspace.lease_waits"] = static_cast<double>(ws.lease_waits);
  }

  // Shard coordinator telemetry, per epoch.
  {
    double epochs = 0, wait = 0, ready = 0, deferred = 0, analyses = 0;
    for (const Pattern& p : fx.pats) {
      const bt::shard::CoordinatorStats cs = p.shard->stats();
      epochs += static_cast<double>(cs.epochs);
      wait += cs.wait_ms;
      ready += static_cast<double>(cs.halo_ready);
      deferred += static_cast<double>(cs.halo_deferred);
      analyses += static_cast<double>(cs.worker_level_analyses);
    }
    fx.ops.check(analyses == 0, "shard workers performed zero re-analysis");
    m["shard.wait_ms"] = wait / std::max(1.0, epochs);
    m["shard.halo_ready"] = ready / std::max(1.0, epochs);
    m["shard.halo_deferred"] = deferred / std::max(1.0, epochs);
    m["shard.worker_level_analyses"] = analyses;
  }

  probe_memory(fx, m);
}

}  // namespace perfbench
