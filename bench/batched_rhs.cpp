// Batched multi-RHS (SpTRSM) benchmark: wall-clock comparison of
// solve_many(B, k) against k independent solve() calls, sweeping the panel
// width k across the three partition schemes and the standalone batched
// kernels. The headline metric is the amortised per-RHS cost:
//
//   per_rhs_single  = pre_ms + single_ms        (analysis paid per RHS — the
//                                                workflow without plan reuse)
//   per_rhs_batched = (pre_ms + batched_ms) / k (analysis paid once for the
//                                                whole panel)
//   per_rhs_ratio   = per_rhs_batched / per_rhs_single
//
// plus the analysis-free kernel_ratio = (batched_ms / k) / single_ms, which
// isolates the structure-streaming win of the batched kernels themselves.
//
//   ./bench/batched_rhs [--ks=1,4,16,64] [--out=BENCH_batched.json]
//                       [--min-ms=40] [--n=120000] [--tiny]
//
// --tiny is the CI smoke mode: small matrix, k up to 4, few repetitions,
// still exercising every scheme, every batched kernel and the JSON writer.
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

std::vector<index_t> parse_k_list(const std::string& s) {
  std::vector<index_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(static_cast<index_t>(
        std::atoi(s.substr(pos, comma - pos).c_str())));
    pos = comma + 1;
  }
  for (const index_t k : out) {
    if (k < 1) {
      std::fprintf(stderr, "bad --ks list '%s'\n", s.c_str());
      std::exit(1);
    }
  }
  return out;
}

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

struct Record {
  std::string matrix;
  std::string target;  // scheme or kernel name
  index_t k = 1;
  double pre_ms = 0.0;      // one-time analysis / construction
  double single_ms = 0.0;   // one solve() / one single-RHS kernel call
  double batched_ms = 0.0;  // one solve_many / batched kernel call, all k
  double per_rhs_single = 0.0;
  double per_rhs_batched = 0.0;
  double per_rhs_ratio = 0.0;
  double kernel_ratio = 0.0;
};

void emit(std::vector<Record>* out, Record r) {
  r.per_rhs_single = r.pre_ms + r.single_ms;
  r.per_rhs_batched = (r.pre_ms + r.batched_ms) / static_cast<double>(r.k);
  r.per_rhs_ratio =
      r.per_rhs_single > 0.0 ? r.per_rhs_batched / r.per_rhs_single : 0.0;
  r.kernel_ratio =
      r.single_ms > 0.0
          ? (r.batched_ms / static_cast<double>(r.k)) / r.single_ms
          : 0.0;
  std::fprintf(stderr,
               "  %-14s %-22s k=%-3d pre %8.3f ms  single %8.4f ms  "
               "batched %9.4f ms  per-RHS %6.3fx  kernel %6.3fx\n",
               r.matrix.c_str(), r.target.c_str(), r.k, r.pre_ms, r.single_ms,
               r.batched_ms, r.per_rhs_ratio, r.kernel_ratio);
  out->push_back(r);
}

void write_json(const std::string& path, const std::vector<Record>& recs,
                const std::vector<index_t>& ks) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"batched_rhs\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"ks\": [");
  for (std::size_t i = 0; i < ks.size(); ++i)
    std::fprintf(f, "%s%d", i == 0 ? "" : ", ", ks[i]);
  std::fprintf(f, "],\n  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(
        f,
        "    {\"matrix\": \"%s\", \"target\": \"%s\", \"k\": %d, "
        "\"pre_ms\": %.6f, \"single_ms\": %.6f, \"batched_ms\": %.6f, "
        "\"per_rhs_single\": %.6f, \"per_rhs_batched\": %.6f, "
        "\"per_rhs_ratio\": %.4f, \"kernel_ratio\": %.4f}%s\n",
        r.matrix.c_str(), r.target.c_str(), r.k, r.pre_ms, r.single_ms,
        r.batched_ms, r.per_rhs_single, r.per_rhs_batched, r.per_rhs_ratio,
        r.kernel_ratio, i + 1 == recs.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool tiny = cli.get_bool("tiny", false);
  const auto ks = parse_k_list(cli.get("ks", tiny ? "1,4" : "1,4,16,64"));
  const double min_ms = cli.get_double("min-ms", tiny ? 2.0 : 40.0);
  const auto n =
      static_cast<index_t>(cli.get_int("n", tiny ? 10000 : 120000));
  const std::string out_path = cli.get("out", "BENCH_batched.json");
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }
  if (std::getenv("BLOCKTRI_THREADS") != nullptr) {
    std::fprintf(stderr, "unset BLOCKTRI_THREADS before running — it pins "
                         "the BlockSolver points to one thread count\n");
    return 1;
  }
  std::fprintf(stderr, "batched_rhs: hardware_concurrency=%u\n",
               std::thread::hardware_concurrency());

  const Csr<double> L = gen::banded(n, 48, 16.0, 11);
  const index_t kmax = *std::max_element(ks.begin(), ks.end());
  const auto B =
      gen::random_rhs<double>(static_cast<index_t>(L.nrows * kmax), 7);
  std::vector<double> x(static_cast<std::size_t>(L.nrows));
  std::vector<double> X(B.size());
  std::vector<Record> recs;

  // --- Standalone batched kernels (analysis = kernel construction) --------
  // The panels are row-interleaved (row stride k), the layout every solver
  // path hands the kernels.
  {
    Stopwatch pre;
    const LevelSetSolver<double> ls(L);
    const double pre_ls = pre.milliseconds();
    pre.reset();
    const SyncFreeSolver<double> sf(L);
    const double pre_sf = pre.milliseconds();
    pre.reset();
    const CusparseLikeSolver<double> cl(L);
    const double pre_cl = pre.milliseconds();
    std::vector<double> diag(static_cast<std::size_t>(L.nrows));
    for (index_t i = 0; i < L.nrows; ++i)
      diag[static_cast<std::size_t>(i)] =
          L.val[static_cast<std::size_t>(
              L.row_ptr[static_cast<std::size_t>(i) + 1] - 1)];
    const DiagonalSolver<double> dg(diag);
    const Dcsr<double> D = csr_to_dcsr(L);

    for (const index_t k : ks) {
      Record r;
      r.matrix = "banded";
      r.k = k;

      r.target = "sptrsv_levelset";
      r.pre_ms = pre_ls;
      r.single_ms =
          time_ms(min_ms, [&] { ls.solve(B.data(), x.data()); });
      r.batched_ms =
          time_ms(min_ms, [&] { ls.solve_many(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "sptrsv_syncfree";
      r.pre_ms = pre_sf;
      r.single_ms =
          time_ms(min_ms, [&] { sf.solve(B.data(), x.data()); });
      r.batched_ms =
          time_ms(min_ms, [&] { sf.solve_many(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "sptrsv_cusparse_like";
      r.pre_ms = pre_cl;
      r.single_ms =
          time_ms(min_ms, [&] { cl.solve(B.data(), x.data()); });
      r.batched_ms =
          time_ms(min_ms, [&] { cl.solve_many(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "sptrsv_diagonal";
      r.pre_ms = 0.0;
      r.single_ms =
          time_ms(min_ms, [&] { dg.solve(B.data(), x.data()); });
      r.batched_ms =
          time_ms(min_ms, [&] { dg.solve_many(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "spmv_csr";
      r.single_ms = time_ms(min_ms, [&] {
        spmv_update(L, B.data(), x.data());
      });
      r.batched_ms = time_ms(min_ms, [&] {
        spmv_update_many(L, B.data(), X.data(), k, k, k);
      });
      emit(&recs, r);

      r.target = "spmv_rows";
      r.single_ms = time_ms(min_ms, [&] {
        spmv_update(D, B.data(), x.data());
      });
      r.batched_ms = time_ms(min_ms, [&] {
        spmv_update_many(D, B.data(), X.data(), k, k, k);
      });
      emit(&recs, r);
    }
  }

  // --- Full BlockSolver across the three schemes --------------------------
  struct SchemeCase {
    const char* name;
    BlockScheme scheme;
  };
  const SchemeCase schemes[] = {
      {"recursive", BlockScheme::kRecursive},
      {"column", BlockScheme::kColumn},
      {"row", BlockScheme::kRow},
  };
  const std::vector<double> b1(B.begin(), B.begin() + L.nrows);
  for (const SchemeCase& sc : schemes) {
    BlockSolver<double>::Options opt;
    opt.scheme = sc.scheme;
    opt.planner.stop_rows = std::max<index_t>(512, n / 16);
    opt.planner.nseg = 8;
    Stopwatch pre;
    const BlockSolver<double> solver(L, opt);
    const double pre_ms = pre.milliseconds();

    const double single_ms =
        time_ms(min_ms, [&] { x = solver.solve(b1); });
    for (const index_t k : ks) {
      const std::vector<double> Bk(B.begin(), B.begin() + L.nrows * k);
      Record r;
      r.matrix = "banded";
      r.target = std::string("blocksolver_") + sc.name;
      r.k = k;
      r.pre_ms = pre_ms;
      r.single_ms = single_ms;
      r.batched_ms = time_ms(min_ms, [&] { X = solver.solve_many(Bk, k); });
      emit(&recs, r);
    }
  }

  write_json(out_path, recs, ks);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());
  return 0;
}
