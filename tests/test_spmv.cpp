// SpMV tests: the host update of the format each of the four kinds stores
// (CSR, or listed rows for DCSR) must agree with the dense oracle on the
// update form y -= A x, and the kinds' GPU models (model/kernels.hpp) must
// reflect their design points (divergence for scalar, empty-row skipping for
// DCSR).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "model/replay.hpp"
#include "sparse/convert.hpp"
#include "sparse/dense.hpp"
#include "spmv/kernels.hpp"

namespace blocktri {
namespace {

using blocktri::testing::VectorsNear;

Csr<double> random_rect(index_t nrows, index_t ncols, offset_t nnz,
                        std::uint64_t seed) {
  Rng rng(seed);
  Coo<double> a;
  a.nrows = nrows;
  a.ncols = ncols;
  for (offset_t k = 0; k < nnz; ++k) {
    a.row.push_back(static_cast<index_t>(rng.uniform_int(0, nrows - 1)));
    a.col.push_back(static_cast<index_t>(rng.uniform_int(0, ncols - 1)));
    a.val.push_back(rng.uniform(-1, 1));
  }
  return coo_to_csr(a);
}

template <class T>
std::vector<T> oracle_update(const Csr<T>& a, const std::vector<T>& x,
                             const std::vector<T>& y0) {
  const auto d = to_dense(a);
  const auto ax = dense_matvec(d, a.nrows, a.ncols, x);
  std::vector<T> y = y0;
  for (index_t i = 0; i < a.nrows; ++i) y[static_cast<std::size_t>(i)] -= ax[static_cast<std::size_t>(i)];
  return y;
}

/// The host update of the format `kind` stores: every row for the CSR
/// kinds, the listed (non-empty) rows for DCSR.
void host_update(SpmvKernelKind kind, const Csr<double>& a, const double* x,
                 double* y) {
  if (is_dcsr(kind)) {
    spmv_update(csr_to_dcsr(a), x, y);
  } else {
    spmv_update(a, x, y);
  }
}

/// The GPU model of `kind` over `a`, into `ks` (x at address 0).
void model_update(SpmvKernelKind kind, const Csr<double>& a,
                  sim::KernelSim& ks, std::uint64_t y_base) {
  model::spmv(kind, model::square_view(kind, a), ks, 8, 0, y_base);
}

class SpmvKernels : public ::testing::TestWithParam<SpmvKernelKind> {};

TEST_P(SpmvKernels, MatchesDenseOracle) {
  const auto a = random_rect(70, 45, 300, 3);
  const auto x = gen::random_rhs<double>(45, 4);
  const auto y0 = gen::random_rhs<double>(70, 5);
  auto y = y0;
  host_update(GetParam(), a, x.data(), y.data());
  EXPECT_TRUE(VectorsNear(y, oracle_update(a, x, y0), 1e-12));
}

TEST_P(SpmvKernels, HandlesEmptyRowsAndAllEmpty) {
  // Block with 90% empty rows.
  Coo<double> coo;
  coo.nrows = 100;
  coo.ncols = 20;
  coo.row = {7, 7, 55, 99};
  coo.col = {3, 11, 0, 19};
  coo.val = {1.0, -2.0, 0.5, 3.0};
  const auto a = coo_to_csr(coo);
  const auto x = gen::random_rhs<double>(20, 6);
  const auto y0 = gen::random_rhs<double>(100, 7);
  auto y = y0;
  host_update(GetParam(), a, x.data(), y.data());
  EXPECT_TRUE(VectorsNear(y, oracle_update(a, x, y0), 1e-12));

  // Completely empty block: y unchanged.
  Csr<double> empty;
  empty.nrows = 10;
  empty.ncols = 10;
  empty.row_ptr.assign(11, 0);
  auto y2 = y0;
  y2.resize(10);
  const auto y2_before = y2;
  host_update(GetParam(), empty, x.data(), y2.data());
  EXPECT_EQ(y2, y2_before);
}

TEST_P(SpmvKernels, LongSingleRow) {
  // One row of 1000 entries: exercises the >32-lane grouping paths.
  Coo<double> coo;
  coo.nrows = 1;
  coo.ncols = 1000;
  for (index_t j = 0; j < 1000; ++j) {
    coo.row.push_back(0);
    coo.col.push_back(j);
    coo.val.push_back(0.001 * j);
  }
  const auto a = coo_to_csr(coo);
  const auto x = gen::random_rhs<double>(1000, 8);
  std::vector<double> y = {10.0};
  host_update(GetParam(), a, x.data(), y.data());
  double want = 10.0;
  for (index_t j = 0; j < 1000; ++j)
    want -= 0.001 * j * x[static_cast<std::size_t>(j)];
  EXPECT_NEAR(y[0], want, 1e-9);
}

TEST_P(SpmvKernels, SimProducesPositiveCost) {
  const auto a = random_rect(200, 100, 1500, 9);
  const auto gpu = sim::titan_rtx();
  sim::KernelSim ks(gpu, nullptr, true);
  model_update(GetParam(), a, ks, 1u << 20);
  const auto rep = ks.finish();
  EXPECT_GT(rep.ns, 0.0);
  EXPECT_EQ(rep.flops, 2 * a.nnz());
  EXPECT_GT(rep.bytes, 0);
  EXPECT_GT(rep.tasks, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SpmvKernels,
    ::testing::Values(SpmvKernelKind::kScalarCsr, SpmvKernelKind::kVectorCsr,
                      SpmvKernelKind::kScalarDcsr,
                      SpmvKernelKind::kVectorDcsr),
    [](const ::testing::TestParamInfo<SpmvKernelKind>& info) {
      std::string n = to_string(info.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(SpmvCost, ScalarSuffersDivergenceOnSkewedRows) {
  // 32 rows: 31 rows with 1 nnz, one row with 320 nnz. The scalar kernel's
  // warp runs 320 iterations; the vector kernel assigns a warp per row.
  Coo<double> coo;
  coo.nrows = 32;
  coo.ncols = 400;
  Rng rng(12);
  for (index_t i = 0; i < 31; ++i) {
    coo.row.push_back(i);
    coo.col.push_back(static_cast<index_t>(rng.uniform_int(0, 399)));
    coo.val.push_back(1.0);
  }
  for (index_t k = 0; k < 320; ++k) {
    coo.row.push_back(31);
    coo.col.push_back(static_cast<index_t>(rng.uniform_int(0, 399)));
    coo.val.push_back(1.0);
  }
  const auto a = coo_to_csr(coo);
  const auto gpu = sim::titan_rtx();

  auto time_kind = [&](SpmvKernelKind kind) {
    sim::KernelSim ks(gpu, nullptr, true);
    model_update(kind, a, ks, 1u << 20);
    return ks.finish().latency_ns;
  };
  // The scalar warp serialises ~max_row_len iterations; vector splits the
  // long row into ceil(len/32) groups and runs the short rows in parallel
  // warps. Expect a large gap.
  EXPECT_GT(time_kind(SpmvKernelKind::kScalarCsr),
            3.0 * time_kind(SpmvKernelKind::kVectorCsr));
}

TEST(SpmvCost, DcsrSkipsEmptyRows) {
  // 10000 rows, only 16 non-empty: DCSR should be far cheaper than CSR for
  // the scalar kernel (which otherwise burns a warp slot per 32 empty rows).
  Coo<double> coo;
  coo.nrows = 10000;
  coo.ncols = 64;
  Rng rng(15);
  for (int k = 0; k < 16; ++k) {
    coo.row.push_back(static_cast<index_t>(rng.uniform_int(0, 9999)));
    coo.col.push_back(static_cast<index_t>(rng.uniform_int(0, 63)));
    coo.val.push_back(1.0);
  }
  const auto a = coo_to_csr(coo);
  const auto gpu = sim::titan_rtx();

  auto cost = [&](SpmvKernelKind kind) {
    sim::KernelSim ks(gpu, nullptr, true);
    model_update(kind, a, ks, 1u << 24);
    return ks.finish();
  };
  const auto csr = cost(SpmvKernelKind::kScalarCsr);
  const auto dcsr = cost(SpmvKernelKind::kScalarDcsr);
  EXPECT_LT(dcsr.tasks, csr.tasks / 10);
  EXPECT_LT(dcsr.ns, csr.ns);
}

TEST(Spmv, ApplyMatchesOracle) {
  const auto a = random_rect(30, 30, 200, 18);
  const auto x = gen::random_rhs<double>(30, 19);
  const auto y = spmv_apply(a, x);
  const auto want = dense_matvec(to_dense(a), 30, 30, x);
  EXPECT_TRUE(VectorsNear(y, want, 1e-12));
}

TEST(Spmv, FloatKernelsAgreeWithDouble) {
  const auto ad = random_rect(50, 40, 400, 20);
  const auto af = gen::convert_values<float>(ad);
  const auto xd = gen::random_rhs<double>(40, 21);
  const auto xf = gen::random_rhs<float>(40, 21);
  auto yd = gen::random_rhs<double>(50, 22);
  auto yf = gen::random_rhs<float>(50, 22);
  spmv_update(ad, xd.data(), yd.data());
  spmv_update(af, xf.data(), yf.data());
  for (std::size_t i = 0; i < yd.size(); ++i)
    EXPECT_NEAR(static_cast<double>(yf[i]), yd[i], 2e-4);
}

TEST(Spmv, KindNames) {
  EXPECT_EQ(to_string(SpmvKernelKind::kScalarCsr), "scalar-CSR");
  EXPECT_EQ(to_string(SpmvKernelKind::kVectorDcsr), "vector-DCSR");
}

}  // namespace
}  // namespace blocktri
