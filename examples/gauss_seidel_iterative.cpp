// Iterative-solver scenario — the paper's §1 motivation: preconditioned
// iterative methods call SpTRSV once (or twice) per iteration, so a method
// with moderate preprocessing cost and a fast solve phase wins end to end.
//
// This example solves the 2D Poisson problem A u = f (5-point Laplacian)
// with Gauss-Seidel iteration:
//
//     (D + L_A) u_{k+1} = f - U_A u_k
//
// where the forward substitution (D + L_A)^{-1} is carried out by the
// library's recursive block SpTRSV, preprocessed once and reused across all
// iterations. The simulated-GPU cost accounting shows how the preprocessing
// amortises (compare Table 5 of the paper).
//
//   ./examples/gauss_seidel_iterative [--nx=300] [--ny=300] [--tol=1e-8]
#include <cmath>
#include <cstdio>

#include "blocktri.hpp"

using namespace blocktri;

namespace {

/// 5-point reaction-diffusion operator on an nx*ny grid: 4 + shift on the
/// diagonal, -1 to each neighbour. The reaction term makes the matrix
/// strictly diagonally dominant, so Gauss-Seidel contracts geometrically
/// (plain Poisson would need O(n) sweeps — not what this example is about).
Csr<double> laplacian2d(index_t nx, index_t ny, double shift) {
  Coo<double> coo;
  coo.nrows = coo.ncols = nx * ny;
  auto put = [&coo](index_t r, index_t c, double v) {
    coo.row.push_back(r);
    coo.col.push_back(c);
    coo.val.push_back(v);
  };
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx; ++ix) {
      const index_t i = iy * nx + ix;
      put(i, i, 4.0 + shift);
      if (ix > 0) put(i, i - 1, -1.0);
      if (ix + 1 < nx) put(i, i + 1, -1.0);
      if (iy > 0) put(i, i - nx, -1.0);
      if (iy + 1 < ny) put(i, i + nx, -1.0);
    }
  }
  return coo_to_csr(coo);
}

/// Strict upper triangle of A (the U_A part of the splitting).
Csr<double> strict_upper(const Csr<double>& a) {
  Coo<double> coo;
  coo.nrows = a.nrows;
  coo.ncols = a.ncols;
  for (index_t i = 0; i < a.nrows; ++i)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = a.col_idx[static_cast<std::size_t>(k)];
      if (j > i) {
        coo.row.push_back(i);
        coo.col.push_back(j);
        coo.val.push_back(a.val[static_cast<std::size_t>(k)]);
      }
    }
  return coo_to_csr(coo);
}

double residual_norm(const Csr<double>& a, const std::vector<double>& u,
                     const std::vector<double>& f) {
  const auto au = spmv_apply(a, u);
  double norm = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double r = f[i] - au[i];
    norm += r * r;
  }
  return std::sqrt(norm);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto nx = static_cast<index_t>(cli.get_int("nx", 300));
  const auto ny = static_cast<index_t>(cli.get_int("ny", 300));
  const double tol = cli.get_double("tol", 1e-10);
  const double shift = cli.get_double("shift", 1.0);
  const int max_iters = static_cast<int>(cli.get_int("max_iters", 500));

  const Csr<double> A = laplacian2d(nx, ny, shift);
  const index_t n = A.nrows;
  std::printf("2D Poisson, %d x %d grid (n = %d, nnz = %s)\n", nx, ny, n,
              fmt_count(A.nnz()).c_str());

  // Splitting A = (D + L_A) + U_A.
  const Csr<double> DL = lower_triangular_with_diag(A);
  const Csr<double> U = strict_upper(A);

  // Preprocess the forward-substitution operator ONCE.
  const sim::GpuSpec base = sim::titan_rtx();
  const double scale = 16.0;  // dataset-scale convention, see DESIGN.md §2
  BlockSolver<double>::Options opt;
  opt.planner.stop_rows =
      static_cast<index_t>(sim::paper_stop_rows(base, scale));
  Stopwatch pre;
  const BlockSolver<double> fwd(DL, opt);
  const double pre_ms = pre.milliseconds();

  // Manufactured solution: u* = 1, f = A u*.
  const std::vector<double> u_star(static_cast<std::size_t>(n), 1.0);
  const std::vector<double> f = spmv_apply(A, u_star);

  const sim::GpuSpec gpu = sim::scale_for_dataset(base, scale);
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport sim_total;

  std::vector<double> u(static_cast<std::size_t>(n), 0.0);
  std::vector<double> rhs(static_cast<std::size_t>(n));
  const double f_norm = residual_norm(A, u, f);
  int iters = 0;
  double rel = 1.0;
  for (; iters < max_iters && rel > tol; ++iters) {
    // rhs = f - U u  (strict upper sweep), then forward substitution.
    rhs = f;
    spmv_update(U, u.data(), rhs.data());
    u = fwd.solve_simulated(rhs, gpu, &cache, &sim_total);
    rel = residual_norm(A, u, f) / f_norm;
  }

  std::printf("Gauss-Seidel converged to rel. residual %.2e in %d iterations\n",
              rel, iters);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i)
    err = std::max(err, std::fabs(u[static_cast<std::size_t>(i)] - 1.0));
  std::printf("max |u - u*| = %.2e\n", err);

  const double model_pre_ms = fwd.preprocess_stats().model_ms;
  std::printf("\nCost accounting (simulated %s):\n", gpu.name.c_str());
  std::printf("  preprocessing (host wall): %.0f ms; host model: %.2f ms\n",
              pre_ms, model_pre_ms);
  std::printf("  %d SpTRSV calls: %.2f ms simulated (%.4f ms each, %.2f GFlops)\n",
              iters, sim_total.ms(), sim_total.ms() / iters,
              sim_total.gflops());
  std::printf("  preprocessing / single-solve ratio: %.1fx (paper reports "
              "9.16x on average)\n",
              model_pre_ms / (sim_total.ms() / iters));
  return 0;
}
