// SIMD speedup benchmark: what does the vectorised hot path buy over the
// pre-SIMD sequential loops?
//
// Measures, single-threaded, for each matrix case:
//
//   spmv_csr / spmv_dcsr    one host SpMV update sweep (y -= L·x), the
//                           square-block kernel of the blocked solve
//   spmv_csr_many           the batched (k-RHS) SpMV update
//   solve                   end-to-end recursive warm BlockSolver solve via
//                           the raw-pointer zero-allocation path
//   solve_many              the batched end-to-end counterpart
//
// under three lowerings: strict (BLOCKTRI_STRICT_SCALAR's sequential order,
// the pre-SIMD baseline), blocked (canonical 4-lane order, scalar
// instructions) and vector (AVX2/NEON). Speedups are vector vs strict — the
// committed scalar baseline of the PR that introduced this layer.
//
//   ./bench/simd_speedup [--n=200000] [--k=16] [--min-ms=40]
//                        [--out=BENCH_simd.json] [--tiny]
//
// Acceptance (skipped with --tiny, where timings are noise): the best SpMV
// micro-kernel speedup must reach 1.5x and the best end-to-end recursive
// warm-solve speedup 1.3x.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"
#include "common/simd.hpp"

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

struct Record {
  std::string matrix;
  std::string kernel;
  double strict_ms = 0.0;
  double blocked_ms = 0.0;
  double vector_ms = 0.0;
  double vec_vs_strict = 0.0;
  double vec_vs_blocked = 0.0;
};

void emit(std::vector<Record>* out, Record r) {
  r.vec_vs_strict = r.vector_ms > 0.0 ? r.strict_ms / r.vector_ms : 0.0;
  r.vec_vs_blocked = r.vector_ms > 0.0 ? r.blocked_ms / r.vector_ms : 0.0;
  std::fprintf(stderr,
               "  %-10s %-14s strict %9.3f ms  blocked %9.3f ms  vector "
               "%9.3f ms  vec/strict %5.2fx  vec/blocked %5.2fx\n",
               r.matrix.c_str(), r.kernel.c_str(), r.strict_ms, r.blocked_ms,
               r.vector_ms, r.vec_vs_strict, r.vec_vs_blocked);
  out->push_back(r);
}

/// Times `fn` under each of the three lowerings.
template <class Fn>
Record sweep(const char* matrix, const char* kernel, double min_ms, Fn&& fn) {
  Record r;
  r.matrix = matrix;
  r.kernel = kernel;
  simd::force_path(simd::Path::kStrictScalar);
  r.strict_ms = time_ms(min_ms, fn);
  simd::force_path(simd::Path::kBlockedScalar);
  r.blocked_ms = time_ms(min_ms, fn);
  simd::force_path(simd::Path::kVector);
  r.vector_ms = time_ms(min_ms, fn);
  simd::clear_forced_path();
  return r;
}

void write_json(const std::string& path, const std::vector<Record>& recs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"simd_speedup\",\n");
  std::fprintf(f, "  \"vector_isa\": \"%s\",\n", simd::vector_isa_name());
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(
        f,
        "    {\"matrix\": \"%s\", \"kernel\": \"%s\", \"strict_ms\": %.6f, "
        "\"blocked_ms\": %.6f, \"vector_ms\": %.6f, \"vec_vs_strict\": %.4f, "
        "\"vec_vs_blocked\": %.4f}%s\n",
        r.matrix.c_str(), r.kernel.c_str(), r.strict_ms, r.blocked_ms,
        r.vector_ms, r.vec_vs_strict, r.vec_vs_blocked,
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
  const auto n = static_cast<index_t>(cli.get_int("n", tiny ? 10000 : 200000));
  const auto k = static_cast<index_t>(cli.get_int("k", 16));
  const std::string out_path = cli.get("out", "BENCH_simd.json");
  if (const auto bad = cli.unused(); !bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 1;
  }
  std::fprintf(stderr, "simd_speedup: vector_isa=%s\n",
               simd::vector_isa_name());
  if (!simd::vector_isa_available())
    std::fprintf(stderr,
                 "  (no vector ISA: the vector path lowers to blocked-scalar; "
                 "speedups measure the canonical-order rewrite only)\n");

  struct MatCase {
    const char* name;
    Csr<double> L;
  };
  std::vector<MatCase> mats;
  // Three regimes: a streaming banded case (wide-ish scattered rows), a
  // level-structured case whose short rows exercise the unrolled fast paths,
  // and a dense-block case (long contiguous rows, cache-resident x) — the
  // shape of the dense panels the blocked solve manufactures, and where the
  // strict baseline is bound by its one sequential FP-add chain.
  const auto nd = static_cast<index_t>(tiny ? 400 : 3000);
  mats.push_back({"banded", gen::banded(n, 48, 16.0, 11)});
  mats.push_back({"kkt", gen::kkt_structure(n, 17, 4.0, 42)});
  mats.push_back({"dense", gen::dense_lower(nd, 1.0, 13)});

  std::vector<Record> recs;
  for (const MatCase& mc : mats) {
    const Csr<double>& L = mc.L;
    const Dcsr<double> D = csr_to_dcsr(L);
    const auto x = gen::random_rhs<double>(L.ncols, 1);
    auto y = gen::random_rhs<double>(L.nrows, 2);

    emit(&recs, sweep(mc.name, "spmv_csr", min_ms, [&] {
           spmv_scalar_csr(L, x.data(), y.data(), nullptr);
         }));
    emit(&recs, sweep(mc.name, "spmv_dcsr", min_ms, [&] {
           spmv_scalar_dcsr(D, x.data(), y.data(), nullptr);
         }));

    // Row-interleaved panels (row stride k), the layout every solver path
    // hands the batched kernels.
    std::vector<double> Xp, Yp;
    for (index_t c = 0; c < k; ++c) {
      const auto xc = gen::random_rhs<double>(L.ncols, 100 + static_cast<int>(c));
      const auto yc = gen::random_rhs<double>(L.nrows, 200 + static_cast<int>(c));
      Xp.insert(Xp.end(), xc.begin(), xc.end());
      Yp.insert(Yp.end(), yc.begin(), yc.end());
    }
    emit(&recs, sweep(mc.name, "spmv_csr_many", min_ms, [&] {
           spmv_scalar_csr_many(L, Xp.data(), Yp.data(), k, k, k, nullptr);
         }));

    // End-to-end recursive warm solve through the zero-allocation raw path.
    BlockSolver<double>::Options opt;
    opt.planner.stop_rows = std::max<index_t>(512, L.nrows / 64);
    const BlockSolver<double> solver(L, opt);
    const auto b = gen::random_rhs<double>(L.nrows, 7);
    std::vector<double> xs(b.size());
    emit(&recs, sweep(mc.name, "solve", min_ms,
                      [&] { solver.solve(b.data(), xs.data()); }));

    std::vector<double> B, X;
    for (index_t c = 0; c < k; ++c) {
      const auto bc = gen::random_rhs<double>(L.nrows, 300 + static_cast<int>(c));
      B.insert(B.end(), bc.begin(), bc.end());
    }
    X.resize(B.size());
    emit(&recs, sweep(mc.name, "solve_many", min_ms,
                      [&] { solver.solve_many(B.data(), X.data(), k); }));
  }

  write_json(out_path, recs);
  std::fprintf(stderr, "wrote %s (%zu records)\n", out_path.c_str(),
               recs.size());

  // Acceptance gates (full size only; --tiny timings are smoke-test noise):
  // the vector path must beat the pre-SIMD baseline by 1.5x on an SpMV
  // micro-kernel and by 1.3x on an end-to-end recursive warm solve.
  if (tiny) return 0;
  double best_spmv = 0.0, best_solve = 0.0;
  for (const Record& r : recs) {
    if (r.kernel.rfind("spmv", 0) == 0)
      best_spmv = std::max(best_spmv, r.vec_vs_strict);
    if (r.kernel == "solve")
      best_solve = std::max(best_solve, r.vec_vs_strict);
  }
  if (!(best_spmv >= 1.5)) {
    std::fprintf(stderr, "ACCEPTANCE FAIL: best spmv vec/strict = %.3f < 1.5\n",
                 best_spmv);
    return 1;
  }
  if (!(best_solve >= 1.3)) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAIL: best solve vec/strict = %.3f < 1.3\n",
                 best_solve);
    return 1;
  }
  std::fprintf(stderr, "acceptance: spmv %.2fx (>=1.5), solve %.2fx (>=1.3)\n",
               best_spmv, best_solve);
  return 0;
}
