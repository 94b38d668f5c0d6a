// Cost of the resilience machinery on the hot path (ISSUE 6).
//
// The session layer threads an ExecControl through every executor: unarmed
// solves pay one relaxed atomic load per checkpoint, armed solves add a
// steady_clock read per step/wave (and chunked polling inside flat kernels).
// This bench prices both against the pre-session baseline the warm path
// must not regress:
//
//   baseline_ms   warm recursive solve, no controls attached (unarmed
//                 fast path — what every existing caller pays)
//   deadline_ms   same solve with a far-future deadline armed (clock reads
//                 at every poll point, none of them ever trip)
//   cancel_ms     same solve with a cancel token armed (atomic flag reads,
//                 no clock)
//
// Acceptance (ISSUE 6): deadline_ms / baseline_ms - 1 <= 2% on the warm
// recursive solve at full size. Timings interleave the variants and keep
// the median of several rounds, so the gate measures the machinery rather
// than scheduler noise.
//
//   ./bench/resilience_overhead [--n=120000] [--min-ms=40] [--rounds=5]
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
#include <vector>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

template <class Fn>
double time_ms(double min_ms, Fn&& fn) {
  fn();  // warmup
  Stopwatch sw;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (sw.milliseconds() < min_ms || reps < 2);
  return sw.milliseconds() / reps;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Record {
  std::string matrix;
  index_t n = 0;
  double baseline_ms = 0.0;
  double deadline_ms = 0.0;
  double cancel_ms = 0.0;
  double deadline_overhead = 0.0;  // deadline_ms / baseline_ms - 1
  double cancel_overhead = 0.0;
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
        "    {\"matrix\": \"%s\", \"n\": %lld, \"baseline_ms\": %.6f, "
        "\"deadline_ms\": %.6f, \"cancel_ms\": %.6f, "
        "\"deadline_overhead\": %.6f, \"cancel_overhead\": %.6f}%s\n",
        r.matrix.c_str(), static_cast<long long>(r.n), r.baseline_ms,
        r.deadline_ms, r.cancel_ms, r.deadline_overhead, r.cancel_overhead,
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
  const int rounds = cli.get_int("rounds", tiny ? 3 : 5);
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

    // Interleave the three variants each round so slow drift (thermal,
    // scheduler) hits them equally; keep the per-variant median.
    std::vector<double> base_ms, dl_ms, cn_ms;
    for (int r = 0; r < rounds; ++r) {
      base_ms.push_back(time_ms(
          min_ms, [&] { solver->solve(b.data(), x.data()); }));
      dl_ms.push_back(time_ms(min_ms, [&] {
        if (!solver->solve(b.data(), x.data(), with_deadline).ok())
          std::exit(1);
      }));
      cn_ms.push_back(time_ms(min_ms, [&] {
        if (!solver->solve(b.data(), x.data(), with_cancel).ok())
          std::exit(1);
      }));
    }

    Record r;
    r.matrix = mc.name;
    r.n = L.nrows;
    r.baseline_ms = median(base_ms);
    r.deadline_ms = median(dl_ms);
    r.cancel_ms = median(cn_ms);
    r.deadline_overhead = r.deadline_ms / r.baseline_ms - 1.0;
    r.cancel_overhead = r.cancel_ms / r.baseline_ms - 1.0;
    std::fprintf(stderr,
                 "  %-10s n=%lld  baseline %8.3f ms  deadline %8.3f ms "
                 "(%+6.2f%%)  cancel %8.3f ms (%+6.2f%%)\n",
                 r.matrix.c_str(), static_cast<long long>(r.n), r.baseline_ms,
                 r.deadline_ms, 100.0 * r.deadline_overhead, r.cancel_ms,
                 100.0 * r.cancel_overhead);
    recs.push_back(r);
  }

  write_json(out_path, recs);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());

  // Acceptance gate (ISSUE 6): an armed deadline costs <= 2% on the warm
  // recursive solve. Only enforced at full size — tiny solves finish in
  // microseconds and the ratio is all noise.
  if (tiny) return 0;
  for (const Record& r : recs)
    if (!(r.deadline_overhead <= 0.02)) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAIL: %s deadline overhead %.2f%% > 2%%\n",
                   r.matrix.c_str(), 100.0 * r.deadline_overhead);
      return 1;
    }
  return 0;
}
