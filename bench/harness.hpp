// Shared helpers for the table/figure benchmark binaries.
//
// Conventions (EXPERIMENTS.md):
//   * Dataset scale: the synthetic suite reproduces the paper's matrices at
//     roughly 1/16 of their sizes, so every harness measures on the
//     sim::scale_for_dataset(gpu, kDatasetScale) device, which restores the
//     full-size overhead-to-work ratios (see sim/machine.hpp).
//   * Warm measurements: like the paper's 200-run averages, each timing is
//     taken with a cache warmed by one prior solve.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "blocktri.hpp"

namespace blocktri::bench {

inline constexpr double kDatasetScale = 16.0;

/// Wall-clock timing policy for host-side measurements (plan build, artifact
/// save/load, refresh). The default is warmup + min-of-N: `warmup` discarded
/// runs, then `repeats` timed samples of which the minimum is reported —
/// the estimator least sensitive to scheduler noise for deterministic work.
/// When `min_ms > 0` each sample is itself an average over as many runs as
/// fit in `min_ms`, which keeps sub-millisecond operations above the clock
/// granularity without giving up the min-of-N outlier rejection.
struct TimingOptions {
  int warmup = 1;
  int repeats = 5;
  double min_ms = 0.0;
};

template <class Fn>
double time_ms(Fn&& fn, const TimingOptions& opts = {}) {
  for (int i = 0; i < opts.warmup; ++i) fn();
  double best = std::numeric_limits<double>::infinity();
  const int samples = std::max(1, opts.repeats);
  for (int i = 0; i < samples; ++i) {
    Stopwatch sw;
    int reps = 0;
    do {
      fn();
      ++reps;
    } while (sw.milliseconds() < opts.min_ms);
    best = std::min(best, sw.milliseconds() / reps);
  }
  return best;
}

/// Simulated time/GFlops for one method on one matrix (warm cache).
struct MethodResult {
  double ms = 0.0;
  double gflops = 0.0;
  int kernel_launches = 0;
  sim::SolveReport report;
};

template <class T>
MethodResult measure_block(const BlockSolver<T>& solver,
                           const std::vector<T>& b, const sim::GpuSpec& gpu,
                           BlockSolveBreakdown* breakdown = nullptr) {
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport warm;
  solver.solve_simulated(b, gpu, &cache, &warm);
  sim::SolveReport rep;
  solver.solve_simulated(b, gpu, &cache, &rep, breakdown);
  return {rep.ms(), rep.gflops(), rep.kernel_launches, rep};
}

/// Models a baseline solver (DiagonalSolver / LevelSetSolver /
/// SyncFreeSolver / CusparseLikeSolver) over the whole matrix `L`: the
/// model's replay of its one kernel on a fresh cache, warmed by one pass.
/// The model reads structure only, so `b` does not enter the figures.
template <class Solver, class T>
MethodResult measure_baseline(const Solver& solver, const Csr<T>& L,
                              [[maybe_unused]] const std::vector<T>& b,
                              const sim::GpuSpec& gpu) {
  model::Step step;
  step.tri = model::tri_view(solver);
  step.tri_kind = model::kind_of(solver);
  const sim::SolveReport rep = model::replay_warm(
      {&step, 1}, L.nrows, gpu, sizeof(T) == 8, static_cast<int>(sizeof(T)));
  return {rep.ms(), rep.gflops(), rep.kernel_launches, rep};
}

/// BlockSolver options used throughout the benchmark harnesses: the paper's
/// depth rule plus the thresholds fitted to this simulator by the Fig. 5
/// calibration (see core/adaptive.hpp).
template <class T>
typename BlockSolver<T>::Options bench_block_options(index_t stop_rows) {
  typename BlockSolver<T>::Options opt;
  opt.planner.stop_rows = stop_rows;
  opt.thresholds = simulator_fitted_thresholds();
  return opt;
}

/// All three methods of Table 3 on one matrix.
struct ThreeWay {
  MethodResult cusparse;
  MethodResult syncfree;
  MethodResult block;
};

template <class T>
ThreeWay run_three_methods(const Csr<T>& L, const sim::GpuSpec& gpu,
                           index_t stop_rows) {
  const auto b = gen::random_rhs<T>(L.nrows, 7);
  ThreeWay out;
  {
    CusparseLikeSolver<T> s(L);
    out.cusparse = measure_baseline(s, L, b, gpu);
  }
  {
    SyncFreeSolver<T> s(L);
    out.syncfree = measure_baseline(s, L, b, gpu);
  }
  {
    BlockSolver<T> s(L, bench_block_options<T>(stop_rows));
    out.block = measure_block(s, b, gpu);
  }
  return out;
}

/// Geometric mean helper for "average speedup" summaries.
class GeoMean {
 public:
  void add(double v) {
    if (v > 0.0) {
      log_sum_ += std::log(v);
      ++count_;
    }
  }
  double value() const {
    return count_ == 0 ? 0.0 : std::exp(log_sum_ / count_);
  }
  int count() const { return count_; }

 private:
  double log_sum_ = 0.0;
  int count_ = 0;
};

}  // namespace blocktri::bench
