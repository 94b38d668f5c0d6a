// perfbench — the repository benchmark driver.
//
//   perfbench --workload cold_start|warm_solve|service_open --seed N
//             --seconds S --trace 0|1 --rate R [--tiny]
//             [--run-dir D] [--out-dir D] [--git-sha X] [--src-sha X]
//
// Every workload sets up the same solvers from inputs generated from the
// seed, then repeats its own fixed cycle of work units until the seconds are
// spent (see perfbench/NOTES.md). Every cycle ends with a threads = 1 solve
// burst and a cold round (create + persistence), which feed the end-to-end
// metrics; before them run the workload's own units (threaded solves,
// panels, shards, or service traffic), whose figures go to the header as
// ungated figures. --trace 1 instead runs the cycles twice (untraced, then
// traced), runs the per-layer probes, writes a Chrome trace and a self-time
// table, and reports the per-layer metrics including the tracing overhead
// of every end-to-end metric.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// The exit code is non-zero when any operation failed its oracle.
#include <limits.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/simd.hpp"
#include "gen/generators.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

namespace bt = blocktri;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mib", "MiB"},
    {"create_plus_100_s", "s"}, {"cache_hit_s", "s"},
    {"artifact_load_s", "s"},   {"refresh_s", "s"},
    {"solve_ms", "ms"},         {"solve_p90_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sparse.check_ms", "ms"},
    {"sparse.permute_ms", "ms"},
    {"sparse.convert_ms", "ms"},
    {"analysis.levels_ms", "ms"},
    {"analysis.level_analyses", "count"},
    {"analysis.level_analyses_warm", "count"},
    {"plan.plan_ms", "ms"},
    {"plan.steps", "count"},
    {"plan.waves", "count"},
    {"plan.tri_blocks", "count"},
    {"plan.squares", "count"},
    {"plan.nnz_in_squares_frac", "ratio"},
    {"order.colors", "count"},
    {"create.unattributed_ms", "ms"},
    {"adaptive.tri.completely-parallel", "count"},
    {"adaptive.tri.level-set", "count"},
    {"adaptive.tri.sync-free", "count"},
    {"adaptive.tri.cusparse-like", "count"},
    {"adaptive.square.scalar-csr", "count"},
    {"adaptive.square.vector-csr", "count"},
    {"adaptive.square.scalar-dcsr", "count"},
    {"adaptive.square.vector-dcsr", "count"},
    {"persist.save_ms", "ms"},
    {"persist.decode_ms", "ms"},
    {"persist.rehydrate_ms", "ms"},
    {"persist.artifact_mib", "MiB"},
    {"persist.artifact_vs_csr", "ratio"},
    {"persist.cache_hits", "count"},
    {"persist.cache_misses", "count"},
    {"solve.tri.completely-parallel_ms", "ms"},
    {"solve.tri.level-set_ms", "ms"},
    {"solve.tri.sync-free_ms", "ms"},
    {"solve.tri.cusparse-like_ms", "ms"},
    {"solve.square.scalar-csr_ms", "ms"},
    {"solve.square.vector-csr_ms", "ms"},
    {"solve.square.scalar-dcsr_ms", "ms"},
    {"solve.square.vector-dcsr_ms", "ms"},
    {"solve.overhead_ms", "ms"},
    {"solve.flops", "count"},
    {"solve.bytes", "bytes"},
    {"solve.levels_executed", "count"},
    {"solve.levels_merged", "count"},
    {"solve.gbps_computed", "GB/s"},
    {"mem.stream_gbps", "GB/s"},
    {"mem.llc_mib", "MiB"},
    {"mem.triad_mib", "MiB"},
    {"simd.strict_vs_default", "ratio"},
    {"simd.blocked_vs_default", "ratio"},
    {"pool.run_us", "us"},
    {"pool.solve_t4_ms", "ms"},
    {"pool.ms_per_wave", "ms"},
    {"panel.t1_rhs_ms", "ms"},
    {"panel.tn_rhs_ms", "ms"},
    {"workspace.created", "count"},
    {"workspace.lease_waits", "count"},
    {"shard.rhs_ms", "ms"},
    {"shard.epoch_vs_inprocess", "ratio"},
    {"shard.wait_ms", "ms"},
    {"shard.halo_ready", "count"},
    {"shard.halo_deferred", "count"},
    {"shard.worker_level_analyses", "count"},
    {"service.coalesce_ratio", "ratio"},
    {"service.max_panel_width", "count"},
    {"service.panels", "count"},
    {"service.deadline_misses", "count"},
    {"service.panel_solve_ms", "ms"},
    {"service.queue_ms", "ms"},
    {"service.capacity_rps", "1/s"},
    {"service.latency_p50_ms", "ms"},
    {"service.generator_late_ms", "ms"},
    {"service.latency_p99_ms", "ms"},
    {"wire.socket_p50_ms", "ms"},
    {"wire.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

/// Figures of the workloads' own units that are too noisy on a shared host
/// to gate on (NOTES.md, "Busy hosts"): the untraced run writes the ones its
/// cycle measured into the header, the traced run reports them per layer.
const std::vector<MetricDef> kUngated = {
    {"solve_t4_ms", "ms"},    {"panel_rhs_ms", "ms"},
    {"shard_rhs_ms", "ms"},   {"capacity_rps", "1/s"},
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"socket_p50_ms", "ms"},
};

/// The fixed cycle of work units a workload repeats, round-robin, until its
/// seconds are spent; the unit durations it was sized by are in NOTES.md.
/// The last two units feed the end-to-end metrics and so are in every cycle;
/// cold rounds go last because the hundreds of MiB they allocate and free
/// slow the units that follow. Empty for an unknown workload.
std::vector<std::string> cycle_for(const std::string& workload) {
  if (workload == "cold_start") return {"warm_t1", "cold"};
  if (workload == "warm_solve")
    return {"warm_t1", "warm_tn", "warm_panel", "warm_shard", "warm_t1",
            "cold"};
  if (workload == "service_open")
    return {"service_closed", "service_open", "service_socket", "warm_t1",
            "cold"};
  return {};
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_start|warm_solve|service_open --seed N --seconds S "
               "--trace 0|1 --rate R [--tiny] [--run-dir D] [--out-dir D]\n",
               why);
  std::exit(2);
}

std::string abs_path(const std::string& p) {
  char buf[PATH_MAX];
  return realpath(p.c_str(), buf) != nullptr ? std::string(buf) : p;
}

Pattern make_pattern(const Config& cfg, std::string name, Csr<double> L,
                     bt::BlockScheme scheme, std::uint64_t salt) {
  Pattern p;
  p.name = std::move(name);
  p.L = std::move(L);
  p.L2 = p.L;
  for (std::size_t i = 0; i < p.L2.val.size(); ++i)
    p.L2.val[i] *= 1.0 + 1e-3 * static_cast<double>(i % 101);
  p.opt.scheme = scheme;
  p.opt.planner.stop_rows = std::max<index_t>(512, p.L.nrows / 64);
  p.opt.planner.nseg = 8;
  p.opt.collect_stats = true;  // only the checked solve of the probes reads it
  for (index_t j = 0; j < kPanel; ++j)
    p.rhs.push_back(bt::gen::random_rhs<double>(
        p.L.nrows, cfg.seed * 7919 + salt * 101 + static_cast<std::uint64_t>(j)));
  return p;
}

/// Generates the inputs, then sets up `rounds` times: cold-creates every
/// pattern and registers the service matrix on a fresh service, keeping the
/// last round's solvers. Returns the per-round set-up seconds. The references
/// and derived solvers are built afterwards, untimed.
std::vector<double> set_up(Fixture& fx, int rounds, int traced_from) {
  const Config& cfg = fx.cfg;
  const std::uint64_t s = cfg.seed;
  if (cfg.tiny) {
    fx.pats.push_back(make_pattern(cfg, "banded", bt::gen::banded(6000, 16, 6.0, s),
                                   bt::BlockScheme::kRecursive, 1));
    fx.pats.push_back(make_pattern(
        cfg, "rndlevels", bt::gen::random_levels(6000, 200, 4.0, 1.0, s + 1),
        bt::BlockScheme::kRecursive, 2));
    fx.pats.push_back(make_pattern(
        cfg, "lap3d",
        bt::gen::random_topological_shuffle(bt::gen::laplace3d(14, 14, 14, s + 2),
                                            s + 3),
        bt::BlockScheme::kHbmc, 3));
    fx.svc.L = bt::gen::random_levels(3000, 190, 2.0, 1.0, s + 4);
  } else {
    fx.pats.push_back(make_pattern(cfg, "banded",
                                   bt::gen::banded(200000, 48, 16.0, s),
                                   bt::BlockScheme::kRecursive, 1));
    fx.pats.push_back(make_pattern(
        cfg, "rndlevels",
        bt::gen::random_levels(200000, 4000, 4.0, 1.0, s + 1),
        bt::BlockScheme::kRecursive, 2));
    fx.pats.push_back(make_pattern(
        cfg, "lap3d",
        bt::gen::random_topological_shuffle(bt::gen::laplace3d(50, 50, 50, s + 2),
                                            s + 3),
        bt::BlockScheme::kHbmc, 3));
    fx.svc.L = bt::gen::random_levels(60000, 3750, 2.0, 1.0, s + 4);
  }
  ServiceFixture& sv = fx.svc;
  sv.opt.planner.stop_rows = std::max<index_t>(512, sv.L.nrows / 64);
  sv.opt.planner.nseg = 8;
  for (index_t j = 0; j < kPanel; ++j)
    sv.rhs.push_back(bt::gen::random_rhs<double>(
        sv.L.nrows, s * 7919 + 4 * 101 + static_cast<std::uint64_t>(j)));

  std::vector<double> per_round;
  for (int r = 0; r < rounds; ++r) {
    fx.tracer.set_enabled(r >= traced_from);
    const bool last = r == rounds - 1;
    double t = 0.0;
    for (Pattern& p : fx.pats) {
      std::unique_ptr<Solver> solver;
      bt::Status st;
      t += timed(fx.tracer, "core.create",
                 [&] { st = Solver::create(p.L, p.opt, &solver); });
      if (!fx.ops.check(st.ok(), p.name + ": set-up create"))
        throw std::runtime_error(st.to_string());
      if (last) p.t1 = std::move(solver);
    }
    auto svc = std::make_unique<bt::service::SolveService>();
    std::uint64_t id = 0;
    bt::Status st;
    t += timed(fx.tracer, "service.register_matrix",
               [&] { st = svc->register_matrix(sv.L, sv.opt, &id); });
    if (!fx.ops.check(st.ok(), "service register_matrix"))
      throw std::runtime_error(st.to_string());
    if (last) {
      sv.svc = std::move(svc);
      sv.id = id;
    }
    per_round.push_back(t);
  }
  fx.tracer.set_enabled(false);

  // References and the derived warm solvers (not part of set-up time).
  const std::string shard_dir = abs_path(cfg.run_dir);
  for (Pattern& p : fx.pats) {
    {
      // The refresh_values oracle: a cold build of the new values.
      std::unique_ptr<Solver> s2;
      const bt::Status st = Solver::create(p.L2, p.opt, &s2);
      if (!fx.ops.check(st.ok(), p.name + ": create with new values"))
        throw std::runtime_error(st.to_string());
      p.ref2 = s2->solve(p.rhs[0]);
    }
    const std::size_t n = static_cast<std::size_t>(p.L.nrows);
    p.B.resize(n * kPanel);
    p.Xref.resize(n * kPanel);
    for (index_t j = 0; j < kPanel; ++j) {
      p.ref.push_back(p.t1->solve(p.rhs[j]));
      std::copy(p.rhs[j].begin(), p.rhs[j].end(), p.B.begin() + j * n);
      std::copy(p.ref[j].begin(), p.ref[j].end(), p.Xref.begin() + j * n);
    }
    auto art = std::make_shared<const bt::PlanArtifact<double>>(
        p.t1->capture_artifact());
    Solver::Options tn = p.opt;
    tn.threads = cfg.nproc;
    if (!fx.ops.check(Solver::create_from_artifact(art, tn, &p.tn).ok(),
                      p.name + ": threads=nproc solver"))
      throw std::runtime_error("threads=nproc solver");
    for (const auto& t : p.tn->tri_info())
      p.tn_reorders |= t.kind == bt::TriKernelKind::kSyncFree;
    (void)p.tn->solve(p.rhs[0]);  // first-call workspace growth
    Solver::Options so = p.opt;
    so.shard.processes = 2;
    so.shard.max_panel = kPanel;
    so.shard.artifact_dir = shard_dir;
    const bt::Status st =
        bt::shard::ShardCoordinator<double>::create(*p.t1, so, &p.shard);
    if (!fx.ops.check(st.ok(), p.name + ": shard coordinator"))
      throw std::runtime_error(st.to_string());
  }
  const Solver* ss = sv.svc->solver(sv.id);
  for (index_t j = 0; j < kPanel; ++j) sv.ref.push_back(ss->solve(sv.rhs[j]));
  return per_round;
}

struct PassResult {
  ColdSamples cold;
  WarmSamples warm;
  ServiceSamples service;
  MetricMap e2e;
};

/// Sum over patterns of each pattern's q-quantile, times `scale`.
double sum_of(const Samples& m, double q, double scale) {
  double s = 0.0;
  for (const auto& [name, v] : m) s += quantile(v, q) * scale;
  return s;
}

/// A warm unit: one untimed round to refill the caches the previous unit
/// evicted (every solver copy here is tens of MiB), then timed rounds for
/// `burst_s`.
template <class Round>
std::function<void()> burst(double burst_s, WarmSamples* out, Round round) {
  return [=, next = 0]() mutable {
    WarmSamples discard;
    round(next++, &discard);
    const auto t0 = Clock::now();
    do round(next++, out);
    while (seconds_since(t0) < burst_s);
  };
}

/// Runs the workload's cycle until `seconds` have passed, and at least twice
/// so that every metric has two samples of each kind. The traced run also
/// runs once each kind of unit the cycle lacks, since it reports every
/// per-layer metric.
PassResult run_pass(Fixture& fx, double seconds, double setup_s) {
  // A warm burst holds several rounds even of the slowest kind (one untimed
  // round, then timed rounds); an open-loop segment at 300 requests/s holds
  // ~450 requests.
  const bool tiny = fx.cfg.tiny;
  const double burst_s = tiny ? 0.05 : 1.0;
  const double closed_s = tiny ? 0.1 : 0.75;
  const double open_s = tiny ? 0.2 : 1.5;
  PassResult r;

  // The socket server and its connections start with the first service unit.
  std::unique_ptr<ServiceLoad> load;
  auto service = [&]() -> ServiceLoad& {
    if (!load) load = std::make_unique<ServiceLoad>(fx);
    return *load;
  };
  const std::map<std::string, std::function<void()>> units = {
      {"warm_t1",
       burst(burst_s, &r.warm,
             [&fx](int i, WarmSamples* o) { warm_t1_round(fx, i, o); })},
      {"warm_tn",
       burst(burst_s, &r.warm,
             [&fx](int i, WarmSamples* o) { warm_tn_round(fx, i, o); })},
      {"warm_panel",
       burst(burst_s, &r.warm,
             [&fx](int, WarmSamples* o) { warm_panel_round(fx, o); })},
      {"warm_shard",
       burst(burst_s, &r.warm,
             [&fx](int, WarmSamples* o) { warm_shard_round(fx, o); })},
      {"service_closed", [&] { service().closed(closed_s); }},
      {"service_open", [&] { service().open(open_s); }},
      {"service_socket", [&] { service().socket(open_s); }},
      // A round runs every pattern once, so every pattern has the same
      // number of samples.
      {"cold", [&] {
         for (Pattern& p : fx.pats) cold_pipeline(fx, p, &r.cold);
       }},
  };
  auto run_unit = [&](const std::string& name) {
    ScopedSpan span(fx.tracer, ("unit." + name).c_str());
    units.at(name)();
  };

  const std::vector<std::string> cycle = cycle_for(fx.cfg.workload);
  const auto t0 = Clock::now();
  for (int c = 0; c < 2 || seconds_since(t0) < seconds; ++c)
    for (const std::string& u : cycle) run_unit(u);
  if (fx.cfg.trace)
    for (const auto& [name, run] : units)
      if (std::find(cycle.begin(), cycle.end(), name) == cycle.end())
        run_unit(name);
  if (load) {
    r.service = load->samples();
    load.reset();
  }

  for (const Pattern& p : fx.pats)
    std::fprintf(stderr,
                 "perfbench: %-9s p50 ms: t1 %.3f  tn %.3f  panel/rhs %.3f  "
                 "shard/rhs %.3f  create %.1f (%zu)\n",
                 p.name.c_str(), median(r.warm.t1[p.name]) * 1e3,
                 median(r.warm.tn[p.name]) * 1e3,
                 median(r.warm.panel[p.name]) * 1e3 / kPanel,
                 median(r.warm.shard[p.name]) * 1e3 / kPanel,
                 median(r.cold.create[p.name]) * 1e3,
                 r.cold.create[p.name].size());
  MetricMap& m = r.e2e;
  m["setup_s"] = setup_s;
  m["peak_rss_mib"] = peak_rss_mib();
  m["create_plus_100_s"] = sum_of(r.cold.create_plus_100, 0.5, 1.0);
  m["cache_hit_s"] = sum_of(r.cold.hit, 0.5, 1.0);
  m["artifact_load_s"] = sum_of(r.cold.load, 0.5, 1.0);
  m["refresh_s"] = sum_of(r.cold.refresh, 0.5, 1.0);
  m["solve_ms"] = sum_of(r.warm.t1, 0.5, 1e3);
  // p90: a run holds ~100-300 solves per pattern, so p90 is the highest
  // percentile with at least ten samples beyond it.
  m["solve_p90_ms"] = sum_of(r.warm.t1, 0.9, 1e3);
  // The ungated figures (kUngated); 0 where the cycle has no such unit.
  m["solve_t4_ms"] = sum_of(r.warm.tn, 0.5, 1e3);
  m["panel_rhs_ms"] = sum_of(r.warm.panel, 0.5, 1e3 / kPanel);
  m["shard_rhs_ms"] = sum_of(r.warm.shard, 0.5, 1e3 / kPanel);
  m["capacity_rps"] = median(r.service.closed_rps);
  m["latency_p50_ms"] = median(r.service.open_ms);
  m["latency_p99_ms"] = quantile(r.service.open_ms, 0.99);
  m["socket_p50_ms"] = median(r.service.socket_ms);
  return r;
}

/// `steal_s`: CPU seconds the hypervisor ran other guests on this guest's
/// CPUs since the run began (/proc/stat), a sign of a noisy shared host.
/// `ungated`: the kUngated figures the untraced run measured, as JSON.
std::string header_json(const Fixture& fx, const std::string& git_sha,
                        const std::string& src_sha, double steal_s,
                        const std::string& ungated) {
  const Config& c = fx.cfg;
  std::string pats = "[";
  for (std::size_t i = 0; i < fx.pats.size(); ++i) {
    const Pattern& p = fx.pats[i];
    pats += (i ? ", " : "") +
            JsonObject()
                .str("name", p.name)
                .str("scheme", bt::to_string(p.opt.scheme))
                .num("n", p.L.nrows)
                .num("nnz", static_cast<double>(p.L.nnz()))
                .str("threaded_check", p.tn_reorders ? "residual" : "bitwise")
                .render();
  }
  pats += ", " + JsonObject()
                     .str("name", "service")
                     .str("scheme", bt::to_string(fx.svc.opt.scheme))
                     .num("n", fx.svc.L.nrows)
                     .num("nnz", static_cast<double>(fx.svc.L.nnz()))
                     .render() +
          "]";
  return JsonObject()
      .str("git_sha", git_sha)
      .str("src_sha", src_sha)
      .num("nproc", c.nproc)
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .str("vector_isa", bt::simd::vector_isa_name())
      .str("simd_path", bt::simd::to_string(bt::simd::active_path()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .str("workload", c.workload)
      .num("seed", static_cast<double>(c.seed))
      .num("seconds", c.seconds)
      .num("trace", c.trace ? 1 : 0)
      .num("tiny", c.tiny ? 1 : 0)
      .num("rate_rps", c.rate)
      .num("cpu_steal_s", steal_s)
      .add("patterns", pats)
      .add("ungated", ungated)
      .render();
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const MetricMap& m) {
  JsonObject o;
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    o.add(d.name, JsonObject()
                      .num("value", it == m.end() ? 0.0 : it->second)
                      .str("unit", d.unit)
                      .render());
  }
  return o.render();
}

std::string self_time_table(const Tracer& tr) {
  std::string out = "span                                 count    total_ms     self_ms\n";
  for (const auto& [name, st] : tr.self_times()) {
    char line[160];
    std::snprintf(line, sizeof line, "%-34s %8llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(st.count),
                  st.total_ms, st.self_ms);
    out += line;
  }
  return out;
}

int run(int argc, char** argv) {
  Fixture fx;
  Config& cfg = fx.cfg;
  cfg.run_dir = ".bench_build/run";
  cfg.out_dir = ".bench_build/results";
  std::string git_sha = "unknown", src_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = val();
    else if (a == "--seed") cfg.seed = std::stoull(val()), have_seed = true;
    else if (a == "--seconds") cfg.seconds = std::stod(val()), have_seconds = true;
    else if (a == "--trace") cfg.trace = val() == "1", have_trace = true;
    else if (a == "--rate") cfg.rate = std::stod(val());
    else if (a == "--tiny") cfg.tiny = true;
    else if (a == "--run-dir") cfg.run_dir = val();
    else if (a == "--out-dir") cfg.out_dir = val();
    else if (a == "--git-sha") git_sha = val();
    else if (a == "--src-sha") src_sha = val();
    else usage(("unknown argument " + a).c_str());
  }
  if (cycle_for(cfg.workload).empty()) usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace || cfg.rate == 0.0)
    usage("--seed, --seconds, --trace and --rate are required");
  if (!(cfg.seconds > 0.0) || !(cfg.rate > 0.0)) usage("bad --seconds/--rate");
  cfg.nproc = usable_cpus();
  ::mkdir(cfg.run_dir.c_str(), 0755);
  ::mkdir(cfg.out_dir.c_str(), 0755);

  const double steal0 = cpu_steal_seconds();
  const auto t_setup = Clock::now();
  // The traced run sets up twice as often: two untraced rounds for the
  // overhead baseline, then two traced ones.
  const int nrounds = cfg.trace ? 4 : 3;
  const std::vector<double> rounds =
      set_up(fx, nrounds, cfg.trace ? 2 : nrounds);
  std::fprintf(stderr, "perfbench: %s seed=%llu set-up %.1f s\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               seconds_since(t_setup));

  MetricMap out;
  std::vector<MetricDef> defs = kEndToEnd;
  std::string ungated = "{}";
  if (!cfg.trace) {
    out = run_pass(fx, cfg.seconds, median(rounds)).e2e;
    std::vector<MetricDef> measured;
    for (const MetricDef& d : kUngated)
      if (out.at(d.name) > 0.0) measured.push_back(d);
    ungated = metrics_json(measured, out);
  } else {
    defs = kPerLayer;
    const double untraced_setup = median({rounds[0], rounds[1]});
    const double traced_setup = median({rounds[2], rounds[3]});
    const PassResult u = run_pass(fx, cfg.seconds / 2, untraced_setup);
    fx.tracer.set_enabled(true);
    const PassResult t = run_pass(fx, cfg.seconds / 2, traced_setup);
    // Tracing overhead of every end-to-end metric, listed after the layers.
    for (const MetricDef& d : kEndToEnd) {
      out["overhead." + d.name] = t.e2e.at(d.name) - u.e2e.at(d.name);
      defs.push_back({"overhead." + d.name, d.unit});
    }

    std::map<std::string, double> t1_ms, create_ms;
    for (const auto& [name, v] : t.warm.t1) t1_ms[name] = median(v) * 1e3;
    for (const auto& [name, v] : t.cold.create)
      create_ms[name] = median(v) * 1e3;
    run_layer_probes(fx, t1_ms, create_ms, &out);

    out["analysis.level_analyses"] = sum_of(t.cold.level_analyses, 0.5, 1.0);
    out["analysis.level_analyses_warm"] =
        static_cast<double>(t.cold.warm_level_analyses);
    out["persist.cache_hits"] = static_cast<double>(t.cold.cache_hits);
    out["persist.cache_misses"] = static_cast<double>(t.cold.cache_misses);
    const double solve_ms = t.e2e.at("solve_ms");
    out["solve.gbps_computed"] = out["solve.bytes"] / (solve_ms * 1e-3) / 1e9;
    out["pool.ms_per_wave"] =
        (t.e2e.at("solve_t4_ms") - solve_ms) / std::max(1.0, out["plan.waves"]);
    out["shard.epoch_vs_inprocess"] =
        t.e2e.at("shard_rhs_ms") / out["panel.t1_rhs_ms"];
    out["service.queue_ms"] =
        t.e2e.at("latency_p50_ms") - out["service.panel_solve_ms"];
    out["service.generator_late_ms"] = median(t.service.late_ms);
    // End-to-end numbers too noisy for a regression bound on a shared host,
    // taken from the untraced pass.
    out["service.capacity_rps"] = u.e2e.at("capacity_rps");
    out["service.latency_p50_ms"] = u.e2e.at("latency_p50_ms");
    out["shard.rhs_ms"] = u.e2e.at("shard_rhs_ms");
    out["pool.solve_t4_ms"] = u.e2e.at("solve_t4_ms");
    out["panel.tn_rhs_ms"] = u.e2e.at("panel_rhs_ms");
    out["wire.socket_p50_ms"] = u.e2e.at("socket_p50_ms");
    out["service.latency_p99_ms"] = u.e2e.at("latency_p99_ms");
    out["wire.overhead_ms"] =
        t.e2e.at("socket_p50_ms") - t.e2e.at("latency_p50_ms");
    out["trace.spans"] = static_cast<double>(fx.tracer.size());
    fx.tracer.set_enabled(false);

    const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed);
    const std::string table = self_time_table(fx.tracer);
    const std::string header =
        header_json(fx, git_sha, src_sha, cpu_steal_seconds() - steal0,
                    ungated);
    fx.ops.check(fx.tracer.write_chrome(stem + ".trace.json", header),
                 "write Chrome trace");
    if (FILE* f = std::fopen((stem + ".selftime.txt").c_str(), "w")) {
      std::fputs(table.c_str(), f);
      std::fclose(f);
    }
    std::fprintf(stderr, "%s", table.c_str());
    std::fprintf(stderr, "perfbench: trace written to %s.trace.json\n",
                 stem.c_str());
  }

  // Stop the shard workers and the service before reporting.
  for (Pattern& p : fx.pats) p.shard.reset();
  fx.svc.svc.reset();

  const std::string header =
      header_json(fx, git_sha, src_sha, cpu_steal_seconds() - steal0,
                  ungated);
  const bool correct = fx.ops.failed() == 0;
  const std::string metrics = metrics_json(defs, out);
  for (const MetricDef& d : defs)
    std::printf("%-36s %16.6f %s\n", d.name.c_str(),
                out.count(d.name) ? out.at(d.name) : 0.0, d.unit.c_str());
  const std::string result =
      JsonObject()
          .add("correct", correct ? "true" : "false")
          .num("attempted", static_cast<double>(fx.ops.attempted()))
          .num("failed", static_cast<double>(fx.ops.failed()))
          .add("metrics", metrics)
          .render();
  const std::string path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" +
                           (cfg.trace ? "1" : "0") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"header\": %s,\n\"result\": %s}\n", header.c_str(),
                 result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", JsonObject().add("header", header).render().c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
