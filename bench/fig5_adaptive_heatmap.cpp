// Figure 5 reproduction: the offline calibration that produced the adaptive
// selector's thresholds. Following §3.4's methodology, we generate
// sub-matrices spanning the (nnz/row, nlevels) plane, time all four SpTRSV
// kernels on each, and report the fastest kernel per cell (Fig. 5a); then
// the (nnz/row, emptyratio) plane with the four SpMV kernels (Fig. 5b).
//
// Legend (SpTRSV): L = level-set, S = sync-free, C = cuSPARSE-like,
//                  P = completely-parallel.
// Legend (SpMV):   s = scalar-CSR, d = scalar-DCSR, v = vector-CSR,
//                  w = vector-DCSR.
//
//   ./bench/fig5_adaptive_heatmap [--n=40000] [--scale=16]
#include <cstdio>

#include "harness.hpp"
#include "sparse/convert.hpp"

using namespace blocktri;
using namespace blocktri::bench;

namespace {

/// Models one SpTRSV kernel on a triangular block (warm cache).
double tri_kernel_ms(TriKernelKind kind, const Csr<double>& L,
                     const sim::GpuSpec& gpu) {
  if (kind == TriKernelKind::kCompletelyParallel &&
      L.nnz() != static_cast<offset_t>(L.nrows))
    return -1.0;  // not applicable
  const model::TriStructure structure = model::tri_structure(L);
  model::Step step;
  step.tri = structure.view();
  step.tri_kind = kind;
  return model::replay_warm({&step, 1}, L.nrows, gpu, true, 8).ms();
}

/// Models one SpMV kernel on a square block (warm cache), launch excluded.
double spmv_kernel_ms(SpmvKernelKind kind, const Csr<double>& a,
                      const sim::GpuSpec& gpu) {
  const model::SquareView view = model::square_view(kind, a);
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  double ms = 0.0;
  for (int round = 0; round < 2; ++round) {  // round 0 warms the cache
    sim::KernelSim ks(gpu, &cache, true);
    model::spmv(kind, view, ks, 8, 0, 1u << 26);
    ms = ks.finish().ns * 1e-6;
  }
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<index_t>(cli.get_int("n", 40000));
  const double scale = cli.get_double("scale", kDatasetScale);
  const sim::GpuSpec gpu = sim::scale_for_dataset(sim::titan_rtx(), scale);

  // ---- Fig. 5a: SpTRSV kernels over (nnz/row, nlevels). ----
  const double nnz_rows[8] = {1, 2, 4, 8, 15, 24, 48, 96};
  const index_t nlevels_axis[9] = {1,    5,    20,   100,  500,
                                   2000, 8000, 20000, 39000};
  std::printf("Figure 5(a) — fastest SpTRSV kernel per (off-diag nnz/row, "
              "nlevels) cell,\n%s, sub-matrices of n=%d:\n"
              "  P=completely-parallel L=level-set S=sync-free "
              "C=cuSPARSE-like\n\n", gpu.name.c_str(), n);
  std::printf("%10s", "nnz/row:");
  for (const double nr : nnz_rows) std::printf("%7.0f", nr);
  std::printf("\n");
  for (const index_t nl : nlevels_axis) {
    std::printf("nlev %-6d", nl);
    for (const double nr : nnz_rows) {
      const Csr<double> L =
          nl == 1 ? gen::diagonal(n, 11)
                  : gen::random_levels(n, std::min<index_t>(nl, n - 1),
                                       std::max(0.0, nr - 1.0), 1.0, 11);
      char best = '?';
      double best_ms = -1.0;
      const struct {
        TriKernelKind kind;
        char code;
      } kernels[4] = {{TriKernelKind::kCompletelyParallel, 'P'},
                      {TriKernelKind::kLevelSet, 'L'},
                      {TriKernelKind::kSyncFree, 'S'},
                      {TriKernelKind::kCusparseLike, 'C'}};
      for (const auto& k : kernels) {
        const double ms = tri_kernel_ms(k.kind, L, gpu);
        if (ms >= 0.0 && (best_ms < 0.0 || ms < best_ms)) {
          best_ms = ms;
          best = k.code;
        }
      }
      std::printf("%7c", best);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nPaper thresholds (Alg. 7): level-set when nnz/row<=15 and "
              "nlevels<=20 (or nnz/row==1, nlevels<=100);\ncuSPARSE when "
              "nlevels>20000; sync-free otherwise.\n\n");

  // ---- Fig. 5b: SpMV kernels over (nnz/row, emptyratio). ----
  const double empty_axis[7] = {0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 0.97};
  std::printf("Figure 5(b) — fastest SpMV kernel per (nnz/row, emptyratio) "
              "cell:\n  s=scalar-CSR d=scalar-DCSR v=vector-CSR "
              "w=vector-DCSR\n\n");
  std::printf("%12s", "nnz/row:");
  for (const double nr : nnz_rows) std::printf("%7.0f", nr);
  std::printf("\n");
  Rng rng(99);
  for (const double er : empty_axis) {
    std::printf("empty %.2f  ", er);
    for (const double nr : nnz_rows) {
      // Rectangular block with the requested emptyratio and nnz/row over
      // the NON-empty rows (how blocks come out of the partitioner).
      Coo<double> coo;
      coo.nrows = n;
      coo.ncols = n;
      Rng local(rng.next_u64());
      for (index_t i = 0; i < n; ++i) {
        if (local.uniform() < er) continue;
        // Row lengths vary around the target mean (real blocks are not
        // uniform): geometric tail, so the scalar kernel's divergence shows.
        const auto deg = std::max<index_t>(
            1, static_cast<index_t>(local.geometric(1.0 / (nr + 1.0))));
        for (index_t k = 0; k < deg; ++k) {
          coo.row.push_back(i);
          coo.col.push_back(
              static_cast<index_t>(local.uniform_int(0, n - 1)));
          coo.val.push_back(1.0);
        }
      }
      const Csr<double> a = coo_to_csr(coo);
      char best = '?';
      double best_ms = -1.0;
      const struct {
        SpmvKernelKind kind;
        char code;
      } kernels[4] = {{SpmvKernelKind::kScalarCsr, 's'},
                      {SpmvKernelKind::kScalarDcsr, 'd'},
                      {SpmvKernelKind::kVectorCsr, 'v'},
                      {SpmvKernelKind::kVectorDcsr, 'w'}};
      for (const auto& k : kernels) {
        const double ms = spmv_kernel_ms(k.kind, a, gpu);
        if (best_ms < 0.0 || ms < best_ms) {
          best_ms = ms;
          best = k.code;
        }
      }
      std::printf("%7c", best);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\nPaper thresholds (Alg. 7): scalar kernels when nnz/row<=12 "
              "(DCSR beyond 50%% empty);\nvector kernels otherwise (DCSR "
              "beyond 15%% empty).\n");
  return 0;
}
