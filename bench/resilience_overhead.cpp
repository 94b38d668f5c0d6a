// Cost of the resilience machinery on the hot path.
//
// The session layer threads an ExecControl through every executor: unarmed
// solves pay one relaxed atomic load per checkpoint, armed solves add a
// steady_clock read per step/wave, per level-set group and per 8 192 rows
// of a triangle's flat pass. This bench prices both against the
// pre-session baseline the warm path must not regress, the warm recursive
// solve with no controls attached (the unarmed fast path every existing
// caller pays):
//
//   deadline   the same solve with a far-future deadline armed (clock
//              reads at every poll point, none of them ever trip)
//   cancel     the same solve with a cancel token armed (atomic flag
//              reads, no clock)
//
// Acceptance: each armed variant costs <= 2% over the warm recursive solve
// at full size. Each of --rounds pairs times the baseline and one armed
// variant with their solves interleaved one by one, alternating which goes
// first, and the overhead is the median of the pairs' ratios minus one:
// host drift hits both sides of a pair alike and cancels out of its ratio,
// so the gate measures the machinery rather than scheduler noise (medians
// of separately timed variants failed and passed the same build in
// consecutive runs). Every figure written is paired: the quartiles of the
// pairs' ratios minus one, and for scale the baseline's per-call time in
// the median pair. Medians of each variant's own times drift apart with
// the host and could contradict the paired overhead.
//
//   ./bench/resilience_overhead [--n=120000] [--min-ms=40] [--rounds=15]
//                               [--out=BENCH_resilience.json] [--tiny]
//
// --tiny is the CI smoke mode: small matrix, short timings, gate reported
// but not enforced (too little work for a stable ratio).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

/// One (baseline, armed) pair: the two variants' solves interleaved one by
/// one, alternating which goes first, until each side has run `min_ms` (at
/// least twice, after one untimed warmup each); `plain_first` picks the
/// first. Returns {baseline, armed} ms per call.
template <class Plain, class Armed>
std::pair<double, double> time_pair(double min_ms, bool plain_first,
                                    Plain&& plain, Armed&& armed) {
  plain();
  armed();
  double tp = 0.0, ta = 0.0;
  int reps = 0;
  do {
    for (int half = 0; half < 2; ++half) {
      Stopwatch sw;
      if ((half == 0) == plain_first) {
        plain();
        tp += sw.milliseconds();
      } else {
        armed();
        ta += sw.milliseconds();
      }
    }
    plain_first = !plain_first;
    ++reps;
  } while (tp < min_ms || ta < min_ms || reps < 2);
  return {tp / reps, ta / reps};
}

/// The q-quantile of sorted `v`, interpolating between neighbours.
double quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// One armed variant against the baseline: the quartiles of the pairs'
/// ratios minus one (the gate reads the median, the middle pair's ratio),
/// and the baseline's per-call time in the middle pair.
struct Overhead {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  double baseline_ms = 0.0;
};

struct Record {
  std::string matrix;
  index_t n = 0;
  Overhead deadline, cancel;
};

void write_json(const std::string& path, const std::vector<Record>& recs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"resilience_overhead\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(
        f,
        "    {\"matrix\": \"%s\", \"n\": %lld, "
        "\"deadline_overhead\": %.6f, \"deadline_overhead_q1\": %.6f, "
        "\"deadline_overhead_q3\": %.6f, \"deadline_baseline_ms\": %.6f, "
        "\"cancel_overhead\": %.6f, \"cancel_overhead_q1\": %.6f, "
        "\"cancel_overhead_q3\": %.6f, \"cancel_baseline_ms\": %.6f}%s\n",
        r.matrix.c_str(), static_cast<long long>(r.n), r.deadline.median,
        r.deadline.q1, r.deadline.q3, r.deadline.baseline_ms, r.cancel.median,
        r.cancel.q1, r.cancel.q3, r.cancel.baseline_ms,
        i + 1 == recs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const double min_ms = cli.get_double("min-ms", tiny ? 2.0 : 40.0);
  const int rounds = cli.get_int("rounds", tiny ? 3 : 15);
  const auto n =
      static_cast<index_t>(cli.get_int("n", tiny ? 10000 : 120000));
  const std::string out_path = cli.get("out", "BENCH_resilience.json");
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }
  std::fprintf(stderr, "resilience_overhead: hardware_concurrency=%u\n",
               std::thread::hardware_concurrency());

  struct MatCase {
    const char* name;
    Csr<double> L;
  };
  std::vector<MatCase> mats;
  mats.push_back({"banded", gen::banded(n, 48, 16.0, 11)});
  mats.push_back({"rndlevels", gen::random_levels(n, n / 50, 4.0, 1.0, 8)});

  std::vector<Record> recs;
  for (const MatCase& mc : mats) {
    const Csr<double>& L = mc.L;
    BlockSolver<double>::Options opt;
    opt.scheme = BlockScheme::kRecursive;
    opt.planner.stop_rows = std::max<index_t>(512, n / 64);
    opt.planner.nseg = 8;

    std::unique_ptr<BlockSolver<double>> solver;
    if (!BlockSolver<double>::create(L, opt, &solver).ok()) return 1;

    const auto b = gen::random_rhs<double>(L.nrows, 7);
    std::vector<double> x(b.size());

    // A deadline the solve can never hit, and a token nobody fires: the
    // machinery is fully armed but every check passes.
    SolveControls with_deadline;
    with_deadline.deadline = Deadline::after_ms(1e9);
    CancelToken token;
    SolveControls with_cancel;
    with_cancel.cancel = &token;

    // (baseline, armed) pairs; the median of the pairs' ratios is the
    // overhead.
    const auto pairs = [&](const SolveControls& controls) {
      const auto plain = [&] { solver->solve(b.data(), x.data()); };
      const auto armed = [&] {
        if (!solver->solve(b.data(), x.data(), controls).ok()) std::exit(1);
      };
      // {armed / baseline, baseline ms} of each pair.
      std::vector<std::pair<double, double>> ratios;
      for (int p = 0; p < rounds; ++p) {
        const auto [tb, ta] = time_pair(min_ms, p % 2 == 0, plain, armed);
        ratios.emplace_back(ta / tb, tb);
      }
      std::sort(ratios.begin(), ratios.end());
      std::vector<double> overheads;
      for (const auto& [ratio, ms] : ratios) overheads.push_back(ratio - 1.0);
      Overhead o;
      o.q1 = quantile(overheads, 0.25);
      o.median = overheads[overheads.size() / 2];
      o.q3 = quantile(overheads, 0.75);
      o.baseline_ms = ratios[ratios.size() / 2].second;
      return o;
    };
    Record r;
    r.matrix = mc.name;
    r.n = L.nrows;
    r.deadline = pairs(with_deadline);
    r.cancel = pairs(with_cancel);
    std::fprintf(stderr,
                 "  %-10s n=%lld  deadline %+6.2f%% (q1 %+6.2f%%, q3 "
                 "%+6.2f%%)  cancel %+6.2f%% (q1 %+6.2f%%, q3 %+6.2f%%)  "
                 "baseline %.3f ms\n",
                 r.matrix.c_str(), static_cast<long long>(r.n),
                 100.0 * r.deadline.median, 100.0 * r.deadline.q1,
                 100.0 * r.deadline.q3, 100.0 * r.cancel.median,
                 100.0 * r.cancel.q1, 100.0 * r.cancel.q3,
                 r.deadline.baseline_ms);
    recs.push_back(r);
  }

  write_json(out_path, recs);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());

  // Acceptance gate: an armed deadline or cancel token costs <= 2% on the
  // warm recursive solve. Only enforced at full size — tiny solves finish
  // in microseconds and the ratio is all noise.
  if (tiny) return 0;
  int failed = 0;
  for (const Record& r : recs)
    for (const auto& [what, overhead] :
         {std::pair{"deadline", r.deadline.median},
          std::pair{"cancel", r.cancel.median}})
      if (!(overhead <= 0.02)) {
        std::fprintf(stderr, "ACCEPTANCE FAIL: %s %s overhead %.2f%% > 2%%\n",
                     r.matrix.c_str(), what, 100.0 * overhead);
        ++failed;
      }
  return failed == 0 ? 0 : 1;
}
