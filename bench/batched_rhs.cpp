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
// Each record is timed as seven alternated pairs of one batched call and k
// single calls, one column each, after one warm-up pair, so host load that
// drifts during the run weighs on both sides: single_ms and batched_ms are
// the medians of the pairs' per-call times, and kernel_ratio is the median
// of the pairs' ratios.
//
//   ./bench/batched_rhs [--ks=1,4,16,64] [--out=BENCH_batched.json]
//                       [--n=120000] [--tiny]
//
// --tiny is the CI smoke mode: small matrix, k up to 4,
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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
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

/// Alternated (batched, k singles) pairs per record.
constexpr int kPairs = 7;

/// Times kPairs alternated (batched(), single(0) … single(k − 1)) pairs
/// after one warm-up pair into r's single_ms, batched_ms and kernel_ratio.
template <class Single, class Batched>
void time_pairs(Record* r, Single&& single, Batched&& batched) {
  std::vector<double> singles, batches, ratios;
  for (int p = -1; p < kPairs; ++p) {
    Stopwatch sw;
    batched();
    const double batched_ms = sw.milliseconds();
    sw.reset();
    for (index_t c = 0; c < r->k; ++c) single(c);
    const double single_ms = sw.milliseconds() / static_cast<double>(r->k);
    if (p < 0) continue;
    singles.push_back(single_ms);
    batches.push_back(batched_ms);
    ratios.push_back(batched_ms / static_cast<double>(r->k) / single_ms);
  }
  r->single_ms = median(singles);
  r->batched_ms = median(batches);
  r->kernel_ratio = median(ratios);
}

void emit(std::vector<Record>* out, Record r) {
  r.per_rhs_single = r.pre_ms + r.single_ms;
  r.per_rhs_batched = (r.pre_ms + r.batched_ms) / static_cast<double>(r.k);
  r.per_rhs_ratio =
      r.per_rhs_single > 0.0 ? r.per_rhs_batched / r.per_rhs_single : 0.0;
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
  // Single calls solve column c of B, n entries from column c − 1.
  const auto col = [&](index_t c) {
    return B.data() +
           static_cast<std::size_t>(c) * static_cast<std::size_t>(L.nrows);
  };

  // --- Standalone batched kernels (analysis = kernel construction) --------
  // The batched calls read B as a row-interleaved panel (row stride k), the
  // layout every solver path hands the kernels.
  {
    Stopwatch pre;
    const TriSolver<double> ls(TriKernelKind::kLevelSet, L);
    const double pre_ls = pre.milliseconds();
    pre.reset();
    const TriSolver<double> sf(TriKernelKind::kSyncFree, L);
    const double pre_sf = pre.milliseconds();
    pre.reset();
    const TriSolver<double> cl(TriKernelKind::kCusparseLike, L);
    const double pre_cl = pre.milliseconds();
    Csr<double> pivots;  // L's diagonal alone: the diagonal kernel's rows
    pivots.nrows = pivots.ncols = L.nrows;
    pivots.row_ptr.push_back(0);
    for (index_t i = 0; i < L.nrows; ++i) {
      pivots.col_idx.push_back(i);
      pivots.val.push_back(L.val[static_cast<std::size_t>(
          L.row_ptr[static_cast<std::size_t>(i) + 1] - 1)]);
      pivots.row_ptr.push_back(i + 1);
    }
    const TriSolver<double> dg(TriKernelKind::kCompletelyParallel,
                               std::move(pivots));
    const Dcsr<double> D = csr_to_dcsr(L);

    for (const index_t k : ks) {
      Record r;
      r.matrix = "banded";
      r.k = k;

      r.target = "sptrsv_levelset";
      r.pre_ms = pre_ls;
      time_pairs(
          &r, [&](index_t c) { ls.solve(col(c), x.data()); },
          [&] { ls.solve(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "sptrsv_syncfree";
      r.pre_ms = pre_sf;
      time_pairs(
          &r, [&](index_t c) { sf.solve(col(c), x.data()); },
          [&] { sf.solve(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "sptrsv_cusparse_like";
      r.pre_ms = pre_cl;
      time_pairs(
          &r, [&](index_t c) { cl.solve(col(c), x.data()); },
          [&] { cl.solve(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "sptrsv_diagonal";
      r.pre_ms = 0.0;
      time_pairs(
          &r, [&](index_t c) { dg.solve(col(c), x.data()); },
          [&] { dg.solve(B.data(), X.data(), k, k); });
      emit(&recs, r);

      r.target = "spmv_csr";
      time_pairs(
          &r, [&](index_t c) { spmv_update(L, col(c), x.data()); },
          [&] { spmv_update_many(L, B.data(), X.data(), k, k, k); });
      emit(&recs, r);

      r.target = "spmv_rows";
      time_pairs(
          &r, [&](index_t c) { spmv_update(D, col(c), x.data()); },
          [&] { spmv_update_many(D, B.data(), X.data(), k, k, k); });
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
  for (const SchemeCase& sc : schemes) {
    BlockSolver<double>::Options opt;
    opt.scheme = sc.scheme;
    opt.planner.stop_rows = std::max<index_t>(512, n / 16);
    opt.planner.nseg = 8;
    Stopwatch pre;
    const BlockSolver<double> solver(L, opt);
    const double pre_ms = pre.milliseconds();

    for (const index_t k : ks) {
      Record r;
      r.matrix = "banded";
      r.target = std::string("blocksolver_") + sc.name;
      r.k = k;
      r.pre_ms = pre_ms;
      // B's first k columns, column-major, as solve_many takes them.
      time_pairs(
          &r, [&](index_t c) { solver.solve(col(c), x.data()); },
          [&] { solver.solve_many(B.data(), X.data(), k); });
      emit(&recs, r);
    }
  }

  write_json(out_path, recs, ks);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());
  return 0;
}
