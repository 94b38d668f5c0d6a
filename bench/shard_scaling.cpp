// Scaling of the sharded multi-process solve (ISSUE 9).
//
// The shard pool exists for machines with more than one device (or NUMA
// domain) per solve. On one shared-memory host the workers share its cores
// (the JSON records hardware_concurrency), so the honest measurement here is
// *overhead*, not speedup: a sharded epoch pays the coordinator's
// scatter/gather, the control-pipe round trip and the watermark protocol on
// top of the same arithmetic. What the bench gates is the part that must
// hold on any machine:
//
//   * bitwise equality — every sharded epoch's panel is memcmp-identical to
//     the single-process solve_many, at every shard count,
//   * warm start — workers rehydrate their slices through the persisted
//     format-v3 artifacts with ZERO level-set re-analysis
//     (worker_level_analyses stays 0 across spawns and epochs),
//   * overlap — boundary squares flow through the halo_ready/halo_deferred
//     two-pass executor, not a global barrier.
//
// The multi-device projection uses the sim machine models (sim/machine.hpp):
// per-epoch halo bytes and unhidden watermark edges measured on the real
// shared-memory transport are priced on modelled dual/quad-GPU interconnects
// against the modelled single-device solve.
//
//   ./bench/shard_scaling [--n=40000] [--k=8] [--iters=6] [--shards=2,4,8]
//                         [--out=BENCH_shard.json] [--tiny]
//
// --tiny is the CI smoke mode: small matrix, two shards, one iteration;
// correctness gates still enforced.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

struct Record {
  int shards = 0;
  double epoch_ms = 0.0;       // warm sharded epoch (best of iters)
  double overhead_x = 0.0;     // epoch_ms / base_ms — honest on one host
  bool bitwise_equal = false;
  std::uint64_t level_analyses = 0;  // worker re-analyses (must be 0)
  std::uint64_t halo_ready = 0;
  std::uint64_t halo_deferred = 0;
  double wait_ms = 0.0;
  double halo_kib_per_epoch = 0.0;   // boundary panel traffic, measured
};

struct Modeled {
  std::string machine;
  int devices = 0;
  double modeled_speedup = 0.0;
};

/// Per-epoch boundary traffic of a shard pool: for every square step that
/// waits on an upstream watermark, the foreign slice of its column range
/// crosses the boundary once per epoch (k panel columns wide).
double halo_bytes_per_epoch(const PlanArtifact<double>& art,
                            const std::vector<index_t>& bounds, index_t k) {
  double bytes = 0.0;
  const int count = static_cast<int>(bounds.size()) - 1;
  for (int i = 0; i < count; ++i) {
    const PlanArtifact<double> slice =
        shard::slice_shard_artifact(art, bounds, i, art.options);
    for (const auto& wave : shard::build_local_schedule(slice))
      for (const shard::LocalStep& ls : wave) {
        if (ls.waits.empty()) continue;
        const auto& ref =
            slice.squares[static_cast<std::size_t>(ls.step.index)].ref;
        const index_t lo = std::max(ref.c0, slice.shard_row_begin);
        const index_t hi = std::min(ref.c1, slice.shard_row_end);
        const index_t local = std::max<index_t>(0, hi - lo);
        const index_t foreign = (ref.c1 - ref.c0) - local;
        bytes += static_cast<double>(foreign) * static_cast<double>(k) *
                 sizeof(double);
      }
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const auto n = static_cast<index_t>(cli.get_int("n", tiny ? 4000 : 40000));
  const auto k = static_cast<index_t>(cli.get_int("k", 8));
  const int iters = cli.get_int("iters", tiny ? 2 : 6);
  const std::string shards_arg = cli.get("shards", tiny ? "2" : "2,4,8");
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

  std::fprintf(stderr, "shard_scaling: n=%lld k=%lld iters=%d shards=%s\n",
               static_cast<long long>(n), static_cast<long long>(k), iters,
               shards_arg.c_str());

  // Banded structure: every shard boundary carries real halo traffic, so the
  // watermark protocol is exercised on every epoch.
  const Csr<double> L = gen::banded(n, 32, 8.0, 11);
  BlockSolver<double>::Options opt;
  opt.scheme = BlockScheme::kRecursive;
  opt.planner.stop_rows =
      std::min<index_t>(1024, std::max<index_t>(256, n / 64));
  opt.planner.nseg = 8;
  opt.shard.max_panel = k;

  std::unique_ptr<BlockSolver<double>> solver;
  if (Status st = BlockSolver<double>::create(L, opt, &solver); !st.ok()) {
    std::fprintf(stderr, "create failed: %s\n", st.to_string().c_str());
    return 1;
  }
  const PlanArtifact<double> art = solver->capture_artifact();

  const std::vector<double> B = gen::random_rhs<double>(n * k, 7);
  std::vector<double> want(B.size()), got(B.size());

  // Single-process baseline, warm (best of iters).
  double base_ms = 1e300;
  for (int it = 0; it < iters + 1; ++it) {  // +1: first solve warms the pool
    Stopwatch sw;
    if (!solver->solve_many(B.data(), want.data(), k, SolveControls{}).ok())
      return 1;
    if (it > 0) base_ms = std::min(base_ms, sw.milliseconds());
  }

  std::vector<Record> recs;
  std::vector<Modeled> modeled;
  for (int p : shard_counts) {
    BlockSolver<double>::Options sopt = opt;
    sopt.shard.processes = p;
    std::unique_ptr<shard::ShardCoordinator<double>> coord;
    if (Status st = shard::ShardCoordinator<double>::create(*solver, sopt,
                                                            &coord);
        !st.ok()) {
      std::fprintf(stderr, "coordinator(%d) failed: %s\n", p,
                   st.to_string().c_str());
      return 1;
    }

    Record r;
    r.shards = coord->shard_count();
    r.epoch_ms = 1e300;
    r.bitwise_equal = true;
    for (int it = 0; it < iters; ++it) {
      Stopwatch sw;
      if (Status st = coord->solve_many(B.data(), got.data(), k); !st.ok()) {
        std::fprintf(stderr, "epoch failed: %s\n", st.to_string().c_str());
        return 1;
      }
      r.epoch_ms = std::min(r.epoch_ms, sw.milliseconds());
      if (std::memcmp(got.data(), want.data(),
                      got.size() * sizeof(double)) != 0)
        r.bitwise_equal = false;
    }
    const shard::CoordinatorStats s = coord->stats();
    r.overhead_x = r.epoch_ms / base_ms;
    r.level_analyses = s.worker_level_analyses;
    r.halo_ready = s.halo_ready;
    r.halo_deferred = s.halo_deferred;
    r.wait_ms = s.wait_ms;
    r.halo_kib_per_epoch =
        halo_bytes_per_epoch(art, coord->bounds(), k) / 1024.0;
    recs.push_back(r);

    std::fprintf(stderr,
                 "  P=%d  epoch %8.3f ms  overhead %.2fx  bitwise %s  "
                 "analyses %llu  halo ready/deferred %llu/%llu  "
                 "halo %.1f KiB\n",
                 r.shards, r.epoch_ms, r.overhead_x,
                 r.bitwise_equal ? "yes" : "NO",
                 static_cast<unsigned long long>(r.level_analyses),
                 static_cast<unsigned long long>(r.halo_ready),
                 static_cast<unsigned long long>(r.halo_deferred),
                 r.halo_kib_per_epoch);

  }

  // Modeled projection uses the measured epochs per shard count. The modelled
  // single-device time is taken as the measured base solve (the model prices
  // only the *relative* exchange cost; EXPERIMENTS.md compares shape).
  for (const Record& r : recs) {
    for (const sim::MultiGpuSpec& m :
         {sim::dual_titan_rtx(), sim::quad_titan_rtx(),
          sim::dual_titan_x()}) {
      if (m.devices != r.shards) continue;
      const double stalled =
          static_cast<double>(r.halo_deferred) / static_cast<double>(iters);
      const double epoch_ns = sim::modeled_shard_epoch_ns(
          m, base_ms * 1e6, r.halo_kib_per_epoch * 1024.0, stalled);
      Modeled mr;
      mr.machine = m.device.name + " x" + std::to_string(m.devices) + " (" +
                   m.link.name + ")";
      mr.devices = m.devices;
      mr.modeled_speedup = base_ms * 1e6 / epoch_ns;
      modeled.push_back(mr);
      std::fprintf(stderr, "  modeled %-42s speedup %.2fx\n",
                   mr.machine.c_str(), mr.modeled_speedup);
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"shard_scaling\",\n");
  std::fprintf(f, "  \"n\": %lld,\n  \"k\": %lld,\n",
               static_cast<long long>(n), static_cast<long long>(k));
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"base_ms\": %.3f,\n", base_ms);
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(
        f,
        "    {\"shards\": %d, \"epoch_ms\": %.3f, \"overhead_x\": %.3f, "
        "\"bitwise_equal\": %s, \"worker_level_analyses\": %llu, "
        "\"halo_ready\": %llu, \"halo_deferred\": %llu, \"wait_ms\": %.3f, "
        "\"halo_kib_per_epoch\": %.1f}%s\n",
        r.shards, r.epoch_ms, r.overhead_x,
        r.bitwise_equal ? "true" : "false",
        static_cast<unsigned long long>(r.level_analyses),
        static_cast<unsigned long long>(r.halo_ready),
        static_cast<unsigned long long>(r.halo_deferred), r.wait_ms,
        r.halo_kib_per_epoch, i + 1 == recs.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"modeled\": [\n");
  for (std::size_t i = 0; i < modeled.size(); ++i)
    std::fprintf(f,
                 "    {\"machine\": \"%s\", \"devices\": %d, "
                 "\"modeled_speedup\": %.2f}%s\n",
                 modeled[i].machine.c_str(), modeled[i].devices,
                 modeled[i].modeled_speedup,
                 i + 1 == modeled.size() ? "" : ",");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());

  // Gates: bitwise equality and the zero-re-analysis warm start are
  // correctness, enforced in every mode including --tiny.
  for (const Record& r : recs) {
    if (!r.bitwise_equal) {
      std::fprintf(stderr, "FAIL: P=%d not bitwise equal\n", r.shards);
      return 1;
    }
    if (r.level_analyses != 0) {
      std::fprintf(stderr, "FAIL: P=%d reran %llu level analyses\n",
                   r.shards,
                   static_cast<unsigned long long>(r.level_analyses));
      return 1;
    }
  }
  return 0;
}
