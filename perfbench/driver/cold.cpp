// cold unit: the preprocessing and persistence path of one pattern, at
// threads = 1:
//   cold create → 100 warm solves → save_artifact → create_from_file
//   → create on a PlanCache hit → refresh_values(new values) → verify
#include <cstdio>
#include <exception>

#include "analysis/levels.hpp"
#include "bench.hpp"
#include "persist/plan_cache.hpp"

namespace perfbench {

namespace {

/// One solve on `s`, checked bitwise against `want`.
void verify_solve(Fixture& fx, const Solver& s, const std::vector<double>& b,
                  const std::vector<double>& want, const std::string& what) {
  std::vector<double> x(b.size());
  s.solve(b.data(), x.data());
  fx.ops.check(bitwise_equal(x.data(), want.data(), x.size()), what);
}

}  // namespace

void cold_pipeline(Fixture& fx, Pattern& p, ColdSamples* out) {
  using blocktri::level_analysis_count;
  using blocktri::Status;
  Tracer& tr = fx.tracer;
  ScopedSpan pattern_span(tr, "cold.pipeline");
  const std::string path = fx.cfg.run_dir + "/cold_" + p.name + ".btpa";
  try {
    Status st;
    std::unique_ptr<Solver> c;
    const auto la0 = level_analysis_count();
    const double tc =
        timed(tr, "core.create", [&] { st = Solver::create(p.L, p.opt, &c); });
    const auto analyses = level_analysis_count() - la0;
    if (!fx.ops.check(st.ok(), p.name + ": cold create")) return;

    std::vector<double> x(p.L.nrows);
    double solves = 0.0;
    for (int j = 0; j < kWarmSolvesPerCreate; ++j) {
      const std::size_t slot = static_cast<std::size_t>(j) % kPanel;
      solves += timed(tr, "core.solve",
                      [&] { c->solve(p.rhs[slot].data(), x.data()); });
      fx.ops.check(bitwise_equal(x.data(), p.ref[slot].data(), x.size()),
                   p.name + ": warm solve after cold create");
    }

    timed(tr, "persist.save_artifact", [&] { st = c->save_artifact(path); });
    if (!fx.ops.check(st.ok(), p.name + ": save_artifact")) return;

    blocktri::PlanCache<double> cache;
    const auto la1 = level_analysis_count();
    std::unique_ptr<Solver> loaded;
    const double tl = timed(tr, "persist.create_from_file", [&] {
      st = Solver::create_from_file(path, p.L, p.opt, &loaded, &cache);
    });
    std::remove(path.c_str());
    if (!fx.ops.check(st.ok(), p.name + ": create_from_file")) return;
    verify_solve(fx, *loaded, p.rhs[0], p.ref[0],
                 p.name + ": solve after artifact load");
    loaded.reset();

    std::unique_ptr<Solver> cached;
    const double th = timed(tr, "persist.cache_hit", [&] {
      st = Solver::create(p.L, p.opt, &cached, &cache);
    });
    if (!fx.ops.check(st.ok() && cache.stats().hits >= 1,
                      p.name + ": create on a PlanCache hit"))
      return;
    verify_solve(fx, *cached, p.rhs[0], p.ref[0],
                 p.name + ": solve after cache hit");
    cached.reset();

    const double tr_s = timed(tr, "core.refresh_values",
                              [&] { st = c->refresh_values(p.L2); });
    if (!fx.ops.check(st.ok(), p.name + ": refresh_values")) return;
    verify_solve(fx, *c, p.rhs[0], p.ref2,
                 p.name + ": solve after refresh_values");

    const auto warm = level_analysis_count() - la1;
    out->warm_level_analyses += warm;
    fx.ops.check(warm == 0, p.name + ": zero re-analysis when warm");
    const blocktri::PlanCacheStats cs = cache.stats();
    out->cache_hits += cs.hits;
    out->cache_misses += cs.misses;

    out->create[p.name].push_back(tc);
    out->create_plus_100[p.name].push_back(tc + solves);
    out->load[p.name].push_back(tl);
    out->hit[p.name].push_back(th);
    out->refresh[p.name].push_back(tr_s);
    out->level_analyses[p.name].push_back(static_cast<double>(analyses));
  } catch (const std::exception& e) {
    fx.ops.check(false, p.name + ": cold pipeline threw: " + e.what());
    std::remove(path.c_str());
  }
}

}  // namespace perfbench
