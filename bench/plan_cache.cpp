// Plan persistence benchmark: what does reuse of an analyzed BlockPlan buy?
//
// Table 5 of the paper prices preprocessing at many single-solve
// equivalents; ISSUE 4's persistence subsystem lets a service pay it once.
// For each partition scheme this bench measures the three ways to obtain a
// ready solver for a pattern that has been analyzed before:
//
//   cold_ms      create() from scratch — full planning + level analyses
//   load_ms      create_from_file(): deserialize + rehydrate + refresh
//   hit_ms       create(..., &cache) on a warm PlanCache hit
//   refresh_ms   refresh_values() on a live solver (new factorization,
//                same pattern — the timestep-loop case)
//
// and reports warm/cold ratios of (create + one solve), the quantity a
// request-serving loop sees, plus the captured artifact's size relative to
// the input CSR (artifact_vs_csr). Acceptance (ISSUE 4): on the recursive
// scheme the warm create+solve must come in under 0.5x the cold
// create+solve. One min-of-N figure per record swings across that bar
// between runs on a shared host, so the gate reads the median hit/cold of
// kGatePairs alternated (cold, hit) pairs instead; every pair and the
// quartiles are printed and recorded.
//
//   ./bench/plan_cache [--n=120000] [--min-ms=40] [--out=BENCH_cache.json]
//                      [--tiny]
//
// --tiny is the CI smoke mode: small matrix, short timings, still
// exercising save/load/cache-hit/refresh on every scheme and the JSON
// writer.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"
#include "harness.hpp"

using namespace blocktri;

namespace {

/// Alternated (cold, hit) pairs per record behind the acceptance gate.
constexpr int kGatePairs = 7;

/// The q-quantile of sorted `v`, interpolating between neighbours.
double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Record {
  std::string matrix;
  std::string scheme;
  double cold_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double hit_ms = 0.0;
  double refresh_ms = 0.0;
  double solve_ms = 0.0;
  std::size_t artifact_bytes = 0;
  double artifact_vs_csr = 0.0;  // artifact_bytes / input CSR bytes
  double load_vs_cold = 0.0;  // (load + solve) / (cold + solve)
  double hit_vs_cold = 0.0;   // (hit + solve) / (cold + solve)
  // hit/cold of each alternated (cold, hit) pair, in run order, and their
  // quartiles; the gate reads the median.
  std::vector<double> pair_hit_vs_cold;
  double pair_q1 = 0.0, pair_median = 0.0, pair_q3 = 0.0;
  // Resilience counters from the warm path's PlanCache (ISSUE 6): all zero
  // on a healthy run — nonzero values flag quarantined patterns, artifact
  // loads that needed transient-I/O retries, or workspace-lease contention.
  PlanCacheStats cache_stats;
};

void emit(std::vector<Record>* out, Record r) {
  const double cold_total = r.cold_ms + r.solve_ms;
  r.load_vs_cold = cold_total > 0.0 ? (r.load_ms + r.solve_ms) / cold_total
                                    : 0.0;
  r.hit_vs_cold = cold_total > 0.0 ? (r.hit_ms + r.solve_ms) / cold_total
                                   : 0.0;
  std::fprintf(stderr,
               "  %-10s %-10s cold %8.2f ms  save %7.2f  load %7.2f  "
               "hit %7.2f  refresh %7.2f  solve %7.2f  load/cold %5.3fx  "
               "hit/cold %5.3fx  (%zu KiB, %.2fx the CSR)\n",
               r.matrix.c_str(), r.scheme.c_str(), r.cold_ms, r.save_ms,
               r.load_ms, r.hit_ms, r.refresh_ms, r.solve_ms, r.load_vs_cold,
               r.hit_vs_cold, r.artifact_bytes >> 10, r.artifact_vs_csr);
  const PlanCacheStats& cs = r.cache_stats;
  std::fprintf(stderr,
               "  %-10s %-10s cache hits %llu  misses %llu  quarantined %llu  "
               "retry_successes %llu  lease_waits %llu  tombstones %zu\n",
               r.matrix.c_str(), r.scheme.c_str(),
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.quarantined),
               static_cast<unsigned long long>(cs.retry_successes),
               static_cast<unsigned long long>(cs.lease_waits),
               cs.tombstones);
  out->push_back(r);
}

void write_json(const std::string& path, const std::vector<Record>& recs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"plan_cache\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::string pairs;
    for (const double v : r.pair_hit_vs_cold) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.4f", pairs.empty() ? "" : ", ", v);
      pairs += buf;
    }
    std::fprintf(
        f,
        "    {\"matrix\": \"%s\", \"scheme\": \"%s\", \"cold_ms\": %.6f, "
        "\"save_ms\": %.6f, \"load_ms\": %.6f, \"hit_ms\": %.6f, "
        "\"refresh_ms\": %.6f, \"solve_ms\": %.6f, \"artifact_bytes\": %zu, "
        "\"artifact_vs_csr\": %.4f, "
        "\"load_vs_cold\": %.4f, \"hit_vs_cold\": %.4f, "
        "\"pair_hit_vs_cold\": [%s], \"pair_hit_vs_cold_q1\": %.4f, "
        "\"pair_hit_vs_cold_median\": %.4f, \"pair_hit_vs_cold_q3\": %.4f, "
        "\"cache_quarantined\": %llu, \"cache_retry_successes\": %llu, "
        "\"cache_lease_waits\": %llu, \"cache_tombstones\": %zu}%s\n",
        r.matrix.c_str(), r.scheme.c_str(), r.cold_ms, r.save_ms, r.load_ms,
        r.hit_ms, r.refresh_ms, r.solve_ms, r.artifact_bytes,
        r.artifact_vs_csr, r.load_vs_cold, r.hit_vs_cold, pairs.c_str(),
        r.pair_q1, r.pair_median, r.pair_q3,
        static_cast<unsigned long long>(r.cache_stats.quarantined),
        static_cast<unsigned long long>(r.cache_stats.retry_successes),
        static_cast<unsigned long long>(r.cache_stats.lease_waits),
        r.cache_stats.tombstones, i + 1 == recs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const double min_ms = cli.get_double("min-ms", tiny ? 2.0 : 40.0);
  const auto n =
      static_cast<index_t>(cli.get_int("n", tiny ? 10000 : 120000));
  const std::string out_path = cli.get("out", "BENCH_cache.json");
  bench::TimingOptions topt;
  topt.min_ms = min_ms;
  topt.repeats = tiny ? 3 : 5;
  const auto time_ms = [&](auto&& fn) { return bench::time_ms(fn, topt); };
  bench::TimingOptions one = topt;  // one sample of a gate pair
  one.warmup = 0;
  one.repeats = 1;
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }
  std::fprintf(stderr, "plan_cache: hardware_concurrency=%u\n",
               std::thread::hardware_concurrency());

  struct MatCase {
    const char* name;
    Csr<double> L;
  };
  std::vector<MatCase> mats;
  mats.push_back({"banded", gen::banded(n, 48, 16.0, 11)});
  mats.push_back({"rndlevels", gen::random_levels(n, n / 50, 4.0, 1.0, 8)});

  struct SchemeCase {
    const char* name;
    BlockScheme scheme;
  };
  const SchemeCase schemes[] = {
      {"recursive", BlockScheme::kRecursive},
      {"column", BlockScheme::kColumn},
      {"row", BlockScheme::kRow},
  };

  std::vector<Record> recs;
  for (const MatCase& mc : mats) {
    const Csr<double>& L = mc.L;
    const auto b = gen::random_rhs<double>(L.nrows, 7);
    const std::size_t csr_bytes = L.row_ptr.size() * sizeof(offset_t) +
                                  L.col_idx.size() * sizeof(index_t) +
                                  L.val.size() * sizeof(double);

    // New numeric values on the fixed pattern, for the refresh case.
    Csr<double> L2 = L;
    for (std::size_t i = 0; i < L2.val.size(); ++i)
      L2.val[i] *= 1.0 + 1e-3 * static_cast<double>(i % 101);

    for (const SchemeCase& sc : schemes) {
      BlockSolver<double>::Options opt;
      opt.scheme = sc.scheme;
      opt.planner.stop_rows = std::max<index_t>(512, n / 64);
      opt.planner.nseg = 8;

      Record r;
      r.matrix = mc.name;
      r.scheme = sc.name;

      std::unique_ptr<BlockSolver<double>> solver;
      r.cold_ms = time_ms([&] {
        solver.reset();
        if (!BlockSolver<double>::create(L, opt, &solver).ok()) std::exit(1);
      });

      const std::string path = out_path + "." + mc.name + "." + sc.name +
                               ".btpa";
      r.save_ms = time_ms([&] {
        if (!solver->save_artifact(path).ok()) std::exit(1);
      });
      r.artifact_bytes = artifact_bytes(solver->capture_artifact());
      r.artifact_vs_csr = static_cast<double>(r.artifact_bytes) /
                          static_cast<double>(csr_bytes);

      std::unique_ptr<BlockSolver<double>> warm;
      r.load_ms = time_ms([&] {
        warm.reset();
        if (!BlockSolver<double>::create_from_file(path, L, opt, &warm).ok())
          std::exit(1);
      });

      PlanCache<double> cache;
      std::unique_ptr<BlockSolver<double>> tmp;
      if (!BlockSolver<double>::create(L, opt, &tmp, &cache).ok())
        std::exit(1);  // seed the cache (one miss)
      r.hit_ms = time_ms([&] {
        tmp.reset();
        if (!BlockSolver<double>::create(L, opt, &tmp, &cache).ok())
          std::exit(1);
      });
      if (cache.stats().hits == 0) {
        std::fprintf(stderr, "cache never hit — bug\n");
        return 1;
      }
      // Fold the warm solver's lease telemetry into the cache, then snapshot
      // the whole resilience surface for the record.
      cache.note_lease_waits(tmp->workspace_stats().lease_waits);
      r.cache_stats = cache.stats();

      r.refresh_ms = time_ms([&] {
        if (!solver->refresh_values(L2).ok()) std::exit(1);
      });

      std::vector<double> x;
      r.solve_ms = time_ms([&] { x = warm->solve(b); });

      // The gate's pairs: one cold create, then one cache hit, back to back,
      // so host load that drifts between runs weighs on both sides.
      for (int p = 0; p < kGatePairs; ++p) {
        const double cold = bench::time_ms(
            [&] {
              solver.reset();
              if (!BlockSolver<double>::create(L, opt, &solver).ok())
                std::exit(1);
            },
            one);
        const double hit = bench::time_ms(
            [&] {
              tmp.reset();
              if (!BlockSolver<double>::create(L, opt, &tmp, &cache).ok())
                std::exit(1);
            },
            one);
        const double ratio = (hit + r.solve_ms) / (cold + r.solve_ms);
        r.pair_hit_vs_cold.push_back(ratio);
        std::fprintf(stderr,
                     "  %-10s %-10s pair %d: cold %8.2f ms  hit %7.2f ms  "
                     "hit/cold %5.3fx\n",
                     mc.name, sc.name, p + 1, cold, hit, ratio);
      }
      std::vector<double> sorted = r.pair_hit_vs_cold;
      std::sort(sorted.begin(), sorted.end());
      r.pair_q1 = quantile(sorted, 0.25);
      r.pair_median = quantile(sorted, 0.5);
      r.pair_q3 = quantile(sorted, 0.75);
      std::fprintf(stderr,
                   "  %-10s %-10s pair hit/cold q1 %5.3fx  median %5.3fx  "
                   "q3 %5.3fx\n",
                   mc.name, sc.name, r.pair_q1, r.pair_median, r.pair_q3);
      emit(&recs, r);
      std::remove(path.c_str());
    }
  }

  write_json(out_path, recs);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());

  // Acceptance gate (ISSUE 4): warm create+solve < 0.5x cold create+solve
  // on the recursive scheme, read as the median of the alternated pairs.
  // Only enforced at full size — in --tiny smoke runs cold analysis is too
  // cheap for the ratio to be meaningful.
  if (tiny) return 0;
  int failed = 0;
  for (const Record& r : recs)
    if (r.scheme == "recursive" && !(r.pair_median < 0.5)) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAIL: %s recursive median hit/cold = %.3f "
                   ">= 0.5 (q1 %.3f, q3 %.3f, %d pairs)\n",
                   r.matrix.c_str(), r.pair_median, r.pair_q1, r.pair_q3,
                   kGatePairs);
      ++failed;
    }
  return failed == 0 ? 0 : 1;
}
