// The sharded multi-process solve against the in-process panel it wraps.
//
// A shard pool splits each panel by columns: worker i of P solves columns
// [k·i/P, k·(i+1)/P) with its own solver's solve_many over the whole plan,
// which it rehydrated from the coordinator's saved artifact. Columns need
// no exchange, so on one host an epoch costs the slowest worker's share of
// the panel plus the coordinator's copies and one control round trip. The
// bench times warm epochs on perfbench's three patterns — banded and
// rndlevels under the recursive scheme, a shuffled 3-D Laplacian under HBMC,
// all at k = 16 — against the in-process threads = 1 solve_many of the same
// panel, alternating the two. It reads each worker's memory after its
// epochs: the peak RSS (VmHWM, which counts the pages the fork shares with
// this process) and the private pages (smaps_rollup Private_*, the worker's
// own plan copy and workspaces). The JSON records hardware_concurrency.
// Gates, in every mode including --tiny:
//
//   * bitwise equality — every sharded epoch's panel is memcmp-identical to
//     the in-process solve_many, at every shard count,
//   * warm start — workers rehydrate with ZERO level-set re-analysis
//     (worker_level_analyses stays 0 across spawns and epochs).
//
//   ./bench/shard_scaling [--k=16] [--iters=9] [--shards=2,4]
//                         [--out=BENCH_shard.json] [--tiny]
//
// --tiny is the CI smoke mode: perfbench's tiny matrices, two shards, two
// iterations; the gates still hold.
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

struct Pattern {
  std::string name;
  Csr<double> L;
  BlockScheme scheme = BlockScheme::kRecursive;
};

struct Record {
  int shards = 0;
  double epoch_ms = 0.0;        // median warm sharded epoch
  double vs_inprocess = 0.0;    // epoch_ms / the in-process median
  bool bitwise_equal = false;
  std::uint64_t level_analyses = 0;  // worker re-analyses (must be 0)
  double worker_peak_rss_mib = 0.0;  // the largest worker's VmHWM
  double worker_private_mib = 0.0;   // the largest worker's private pages
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// The sum of the `/proc/<pid>/<file>` fields whose names start with
/// `prefix`, in MiB (0 when unreadable).
double proc_mib(pid_t pid, const char* file, const std::string& prefix) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
  std::string line;
  double kib = 0.0;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0)
      kib += std::stod(line.substr(line.find(':') + 1));
  return kib / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const auto k = static_cast<index_t>(cli.get_int("k", 16));
  const int iters = cli.get_int("iters", tiny ? 2 : 9);
  const std::string shards_arg = cli.get("shards", tiny ? "2" : "2,4");
  const std::string out_path = cli.get("out", "BENCH_shard.json");
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }

  std::vector<int> shard_counts;
  for (std::size_t pos = 0; pos < shards_arg.size();) {
    const std::size_t comma = shards_arg.find(',', pos);
    shard_counts.push_back(
        std::atoi(shards_arg.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  std::fprintf(stderr, "shard_scaling: k=%lld iters=%d shards=%s\n",
               static_cast<long long>(k), iters, shards_arg.c_str());

  // perfbench's patterns at seed 1, full size or its --tiny size.
  std::vector<Pattern> patterns;
  if (tiny) {
    patterns.push_back({"banded", gen::banded(6000, 16, 6.0, 1)});
    patterns.push_back(
        {"rndlevels", gen::random_levels(6000, 200, 4.0, 1.0, 2)});
    patterns.push_back({"lap3d",
                        gen::random_topological_shuffle(
                            gen::laplace3d(14, 14, 14, 3), 4),
                        BlockScheme::kHbmc});
  } else {
    patterns.push_back({"banded", gen::banded(200000, 48, 16.0, 1)});
    patterns.push_back(
        {"rndlevels", gen::random_levels(200000, 4000, 4.0, 1.0, 2)});
    patterns.push_back({"lap3d",
                        gen::random_topological_shuffle(
                            gen::laplace3d(50, 50, 50, 3), 4),
                        BlockScheme::kHbmc});
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"shard_scaling\",\n");
  std::fprintf(f, "  \"k\": %lld,\n  \"iters\": %d,\n",
               static_cast<long long>(k), iters);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"patterns\": [\n");

  bool pass = true;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const Pattern& pat = patterns[pi];
    const index_t n = pat.L.nrows;
    BlockSolver<double>::Options opt;
    opt.scheme = pat.scheme;
    opt.planner.stop_rows = std::max<index_t>(512, n / 64);
    opt.planner.nseg = 8;
    opt.shard.max_panel = k;
    std::unique_ptr<BlockSolver<double>> solver;
    if (Status st = BlockSolver<double>::create(pat.L, opt, &solver);
        !st.ok()) {
      std::fprintf(stderr, "%s: create failed: %s\n", pat.name.c_str(),
                   st.to_string().c_str());
      return 1;
    }
    const std::vector<double> B = gen::random_rhs<double>(n * k, 7);
    std::vector<double> want(B.size()), got(B.size());
    const auto inprocess = [&] {
      Stopwatch sw;
      if (!solver->solve_many(B.data(), want.data(), k, SolveControls{}).ok())
        return -1.0;
      return sw.milliseconds();
    };
    if (inprocess() < 0.0) return 1;  // warm-up

    std::vector<double> base_ms;
    std::vector<Record> recs;
    for (const int p : shard_counts) {
      BlockSolver<double>::Options sopt = opt;
      sopt.shard.processes = p;
      std::unique_ptr<shard::ShardCoordinator<double>> coord;
      if (Status st =
              shard::ShardCoordinator<double>::create(*solver, sopt, &coord);
          !st.ok()) {
        std::fprintf(stderr, "%s: coordinator(%d) failed: %s\n",
                     pat.name.c_str(), p, st.to_string().c_str());
        return 1;
      }
      Record r;
      r.shards = coord->shard_count();
      r.bitwise_equal = true;
      std::vector<double> epoch_ms;
      for (int it = 0; it < iters + 1; ++it) {  // +1: an untimed warm-up pair
        const double base = inprocess();
        if (base < 0.0) return 1;
        Stopwatch sw;
        if (Status st = coord->solve_many(B.data(), got.data(), k); !st.ok()) {
          std::fprintf(stderr, "%s: epoch failed: %s\n", pat.name.c_str(),
                       st.to_string().c_str());
          return 1;
        }
        const double epoch = sw.milliseconds();
        if (std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)) != 0)
          r.bitwise_equal = false;
        if (it == 0) continue;
        base_ms.push_back(base);
        epoch_ms.push_back(epoch);
      }
      r.epoch_ms = median(epoch_ms);
      r.level_analyses = coord->stats().worker_level_analyses;
      for (const pid_t pid : coord->worker_pids()) {
        if (pid <= 0) continue;
        r.worker_peak_rss_mib = std::max(r.worker_peak_rss_mib,
                                         proc_mib(pid, "status", "VmHWM:"));
        r.worker_private_mib =
            std::max(r.worker_private_mib,
                     proc_mib(pid, "smaps_rollup", "Private_"));
      }
      recs.push_back(r);
    }
    const double base = median(base_ms);
    std::fprintf(stderr, "%s: n=%lld nnz=%lld in-process %.3f ms\n",
                 pat.name.c_str(), static_cast<long long>(n),
                 static_cast<long long>(pat.L.nnz()), base);
    for (Record& r : recs) {
      r.vs_inprocess = r.epoch_ms / base;
      std::fprintf(stderr,
                   "  P=%d  epoch %8.3f ms  %.2fx in-process  bitwise %s  "
                   "analyses %llu  worker peak RSS %.1f MiB, private "
                   "%.1f MiB\n",
                   r.shards, r.epoch_ms, r.vs_inprocess,
                   r.bitwise_equal ? "yes" : "NO",
                   static_cast<unsigned long long>(r.level_analyses),
                   r.worker_peak_rss_mib, r.worker_private_mib);
      if (!r.bitwise_equal) {
        std::fprintf(stderr, "FAIL: %s P=%d not bitwise equal\n",
                     pat.name.c_str(), r.shards);
        pass = false;
      }
      if (r.level_analyses != 0) {
        std::fprintf(stderr, "FAIL: %s P=%d reran %llu level analyses\n",
                     pat.name.c_str(), r.shards,
                     static_cast<unsigned long long>(r.level_analyses));
        pass = false;
      }
    }

    std::fprintf(f,
                 "    {\"name\": \"%s\", \"scheme\": \"%s\", \"n\": %lld, "
                 "\"nnz\": %lld, \"inprocess_ms\": %.3f, \"records\": [\n",
                 pat.name.c_str(), to_string(pat.scheme).c_str(),
                 static_cast<long long>(n),
                 static_cast<long long>(pat.L.nnz()), base);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      std::fprintf(f,
                   "      {\"shards\": %d, \"epoch_ms\": %.3f, "
                   "\"vs_inprocess\": %.3f, \"bitwise_equal\": %s, "
                   "\"worker_level_analyses\": %llu, "
                   "\"worker_peak_rss_mib\": %.1f, "
                   "\"worker_private_mib\": %.1f}%s\n",
                   r.shards, r.epoch_ms, r.vs_inprocess,
                   r.bitwise_equal ? "true" : "false",
                   static_cast<unsigned long long>(r.level_analyses),
                   r.worker_peak_rss_mib, r.worker_private_mib,
                   i + 1 == recs.size() ? "" : ",");
    }
    std::fprintf(f, "    ]}%s\n", pi + 1 == patterns.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}
