// The output oracle: bitwise comparison where the library promises identity,
// a normwise residual where it allows reordered sums, and the ledger of
// attempted and failed operations.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.hpp"

namespace perfbench {

bool Ops::check(bool good, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (!good && failed_.fetch_add(1, std::memory_order_relaxed) < 10)
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  return good;
}

bool bitwise_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

double relative_residual(const Csr<double>& L, const double* x,
                         const double* b) {
  double rmax = 0.0, lnorm = 0.0, xmax = 0.0, bmax = 0.0;
  for (index_t i = 0; i < L.nrows; ++i) {
    double ax = 0.0, row = 0.0;
    for (auto k = L.row_ptr[static_cast<std::size_t>(i)];
         k < L.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const double v = L.val[static_cast<std::size_t>(k)];
      ax += v * x[L.col_idx[static_cast<std::size_t>(k)]];
      row += std::fabs(v);
    }
    rmax = std::max(rmax, std::fabs(ax - b[i]));
    lnorm = std::max(lnorm, row);
    xmax = std::max(xmax, std::fabs(x[i]));
    bmax = std::max(bmax, std::fabs(b[i]));
  }
  const double denom = lnorm * xmax + bmax;
  return denom > 0.0 ? rmax / denom : rmax;
}

double residual_tolerance(index_t n) {
  return 100.0 * static_cast<double>(n) *
         std::numeric_limits<double>::epsilon();
}

}  // namespace perfbench
