// Deterministic fault-injection harness. Every test mutates a valid matrix
// or .mtx byte stream and asserts the pipeline yields a typed Status (with
// location info) or a residual-verified solve — never a crash, never a
// silently wrong x. The ladder tests force per-block kernel failures via
// Options::FaultInjection and assert the degradation is visible in the
// SolveReport.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/features.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "sparse/convert.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/sanitize.hpp"
#include "sparse/triangular.hpp"
#include "sptrsv/serial.hpp"

namespace blocktri {
namespace {

using blocktri::testing::default_tol;
using blocktri::testing::VectorsNear;

// A small but structurally non-trivial lower triangle, serialised to .mtx.
Csr<double> fixture_matrix() { return gen::banded(60, 5, 2.0, 42); }

std::string fixture_mtx() {
  std::ostringstream os;
  write_matrix_market(os, fixture_matrix());
  return os.str();
}

Status parse(const std::string& text, Coo<double>* out) {
  std::istringstream is(text);
  return try_read_matrix_market(is, out);
}

// Full hardened pipeline: parse -> sanitize -> build -> checked solve.
// Returns the first non-ok status, or Ok with the verified solution in *x.
Status pipeline(const std::string& text, std::vector<double>* x) {
  Coo<double> coo;
  if (Status st = parse(text, &coo); !st.ok()) return st;
  SanitizePolicy policy;
  policy.strip_upper = true;
  policy.fill_missing_diagonal = true;
  Csr<double> L;
  if (Status st = sanitize(coo, policy, &L, nullptr); !st.ok()) return st;
  std::unique_ptr<BlockSolver<double>> solver;
  typename BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 16;
  if (Status st = BlockSolver<double>::create(L, opt, &solver); !st.ok())
    return st;
  const auto b = gen::random_rhs<double>(L.nrows, 7);
  SolveResult<double> res = solver->solve_checked(b);
  if (!res.ok()) return res.status;
  EXPECT_TRUE(res.report.residual_checked);
  EXPECT_LE(res.report.residual, res.report.tolerance);
  *x = std::move(res.x);
  return Status::Ok();
}

// ---- Corruption modes 1-9: .mtx byte-stream mutations -> typed errors ----

TEST(FaultInjection, MtxTruncatedEntryStream) {
  std::string text = fixture_mtx();
  // Cut the last third of the entry lines.
  text.resize(text.rfind('\n', text.size() * 2 / 3) + 1);
  Coo<double> out;
  const Status st = parse(text, &out);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_GT(st.location(), 2);
  EXPECT_NE(st.message().find("truncated"), std::string::npos);
}

TEST(FaultInjection, MtxMissingSizeLine) {
  Coo<double> out;
  const Status st =
      parse("%%MatrixMarket matrix coordinate real general\n% only comments\n",
            &out);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("size line"), std::string::npos);
}

TEST(FaultInjection, MtxCorruptBanner) {
  std::string text = fixture_mtx();
  text[3] = 'X';  // %%MXtrixMarket...
  Coo<double> out;
  const Status st = parse(text, &out);
  EXPECT_EQ(st.code(), StatusCode::kBadFormat);
  EXPECT_EQ(st.location(), 1);
}

TEST(FaultInjection, MtxMangledSizeLine) {
  Coo<double> out;
  const Status st = parse(
      "%%MatrixMarket matrix coordinate real general\n4 x 7\n", &out);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.location(), 2);
}

TEST(FaultInjection, MtxOutOfBoundsIndex) {
  Coo<double> out;
  const Status st = parse(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
      "1 1 1.0\n9 1 1.0\n",
      &out);
  EXPECT_EQ(st.code(), StatusCode::kOutOfBounds);
  EXPECT_EQ(st.location(), 4);
}

TEST(FaultInjection, MtxMissingValueField) {
  Coo<double> out;
  const Status st = parse(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2\n",
      &out);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.location(), 4);
}

TEST(FaultInjection, MtxNonNumericValue) {
  Coo<double> out;
  const Status st = parse(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 fast\n",
      &out);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.location(), 3);
}

TEST(FaultInjection, MtxInjectedNanValue) {
  Coo<double> out;
  const Status st = parse(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
      "1 1 1.0\n2 2 nan\n",
      &out);
  EXPECT_EQ(st.code(), StatusCode::kNonFinite);
  EXPECT_EQ(st.location(), 4);
}

TEST(FaultInjection, MtxInjectedInfValue) {
  Coo<double> out;
  const Status st = parse(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -inf\n",
      &out);
  EXPECT_EQ(st.code(), StatusCode::kNonFinite);
  EXPECT_EQ(st.location(), 3);
}

// Mode 10: byte-level truncation sweep. Every prefix of a valid file must
// either parse (short prefixes of the entry section can still satisfy a
// smaller nnz? no — nnz is fixed, so all proper prefixes fail) or produce a
// typed error. The assertion is "typed status, never a crash or hang".
TEST(FaultInjection, MtxTruncationSweepNeverCrashes) {
  const std::string text = fixture_mtx();
  for (std::size_t cut = 0; cut < text.size(); cut += 37) {
    Coo<double> out;
    const Status st = parse(text.substr(0, cut), &out);
    EXPECT_FALSE(st.ok()) << "prefix of " << cut << " bytes parsed as valid";
    EXPECT_NE(st.code(), StatusCode::kInternal);
  }
  Coo<double> out;
  EXPECT_TRUE(parse(text, &out).ok());
}

// ---- Modes 11-12: repairable stream defects -> verified-correct solve ----

TEST(FaultInjection, MtxShuffledEntriesSolveVerified) {
  // Reverse the entry lines: out-of-order input must still produce a
  // residual-verified solve through the sanitize pass.
  const std::string text = fixture_mtx();
  std::istringstream is(text);
  std::string header, sizes, line;
  std::getline(is, header);
  std::getline(is, sizes);
  std::vector<std::string> entries;
  while (std::getline(is, line)) entries.push_back(line);
  std::ostringstream os;
  os << header << '\n' << sizes << '\n';
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    os << *it << '\n';

  std::vector<double> x, x_ref;
  ASSERT_TRUE(pipeline(os.str(), &x).ok());
  ASSERT_TRUE(pipeline(text, &x_ref).ok());
  EXPECT_TRUE(VectorsNear(x, x_ref, default_tol<double>()));
}

TEST(FaultInjection, MtxDuplicatedEntriesSolveVerified) {
  // Split one entry's value across two duplicate lines; the coalescing
  // sanitize pass must restore the original matrix exactly.
  const auto L = fixture_matrix();
  auto coo = csr_to_coo(L);
  const double v = coo.val[10];
  coo.val[10] = v / 3.0;
  coo.row.push_back(coo.row[10]);
  coo.col.push_back(coo.col[10]);
  coo.val.push_back(2.0 * v / 3.0);

  SanitizePolicy policy;
  Csr<double> repaired;
  SanitizeReport rep;
  ASSERT_TRUE(sanitize(coo, policy, &repaired, &rep).ok());
  EXPECT_EQ(rep.duplicates_coalesced, 1);

  BlockSolver<double> solver(repaired, {});
  const auto b = gen::random_rhs<double>(L.nrows, 11);
  const auto res = solver.solve_checked(b);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  EXPECT_TRUE(
      VectorsNear(res.x, sptrsv_serial(L, b), default_tol<double>()));
}

// ---- Modes 13-16: in-memory matrix corruption -> typed errors ----

TEST(FaultInjection, ZeroedPivotRejectedWithRow) {
  auto L = fixture_matrix();
  const index_t row = 17;
  L.val[static_cast<std::size_t>(L.row_ptr[row + 1] - 1)] = 0.0;
  std::unique_ptr<BlockSolver<double>> solver;
  const Status st = BlockSolver<double>::create(L, {}, &solver);
  EXPECT_EQ(st.code(), StatusCode::kZeroPivot);
  EXPECT_EQ(st.location(), row);
  EXPECT_EQ(solver, nullptr);
  // The throwing constructor carries the same typed status.
  try {
    BlockSolver<double> s(L, {});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kZeroPivot);
    EXPECT_EQ(e.status().location(), row);
  }
}

TEST(FaultInjection, RemovedDiagonalRejectedWithRow) {
  auto coo = csr_to_coo(fixture_matrix());
  Coo<double> mutated;
  mutated.nrows = coo.nrows;
  mutated.ncols = coo.ncols;
  const index_t row = 23;
  for (std::size_t k = 0; k < coo.val.size(); ++k) {
    if (coo.row[k] == row && coo.col[k] == row) continue;  // drop pivot
    mutated.row.push_back(coo.row[k]);
    mutated.col.push_back(coo.col[k]);
    mutated.val.push_back(coo.val[k]);
  }
  std::unique_ptr<BlockSolver<double>> solver;
  const Status st =
      BlockSolver<double>::create(coo_to_csr(mutated), {}, &solver);
  EXPECT_EQ(st.code(), StatusCode::kSingularRow);
  EXPECT_EQ(st.location(), row);
}

TEST(FaultInjection, InjectedUpperEntryRejected) {
  auto coo = csr_to_coo(fixture_matrix());
  coo.row.push_back(5);
  coo.col.push_back(40);
  coo.val.push_back(1.0);
  std::unique_ptr<BlockSolver<double>> solver;
  const Status st =
      BlockSolver<double>::create(coo_to_csr(coo), {}, &solver);
  EXPECT_EQ(st.code(), StatusCode::kNotTriangular);
  EXPECT_EQ(st.location(), 5);
}

TEST(FaultInjection, NanMatrixValueRejectedWithRow) {
  auto L = fixture_matrix();
  L.val[static_cast<std::size_t>(L.row_ptr[31])] =
      std::numeric_limits<double>::quiet_NaN();
  std::unique_ptr<BlockSolver<double>> solver;
  const Status st = BlockSolver<double>::create(L, {}, &solver);
  EXPECT_EQ(st.code(), StatusCode::kNonFinite);
  EXPECT_EQ(st.location(), 31);
}

// Hostile CSR arrays: every entry point validates the whole input before
// any stage indexes by it, so each corruption is a typed Status — with the
// offending row where there is one — under every scheme, and nothing throws.

/// Rows {0}, {0, 1}, {1, 2}, {0, 2, 3}: a valid 4 x 4 lower triangle.
Csr<double> small_lower() {
  Csr<double> a;
  a.nrows = a.ncols = 4;
  a.row_ptr = {0, 1, 3, 5, 8};
  a.col_idx = {0, 0, 1, 1, 2, 0, 2, 3};
  a.val = {4.0, 1.0, 4.0, 1.0, 4.0, 1.0, 1.0, 4.0};
  return a;
}

struct HostileCase {
  const char* name;
  void (*corrupt)(Csr<double>*);
  StatusCode code;
  std::int64_t row;  // -1: the arrays' shape, no row
};

const HostileCase kHostileCases[] = {
    {"upper entry before the diagonal",  // row 2 = {3, 2}
     [](Csr<double>* a) { a->col_idx[3] = 3; }, StatusCode::kNotTriangular,
     2},
    {"negative column",  // row 3 = {-1000000, 2, 3}
     [](Csr<double>* a) { a->col_idx[5] = -1000000; },
     StatusCode::kOutOfBounds, 3},
    {"second diagonal",  // row 3 = {3, 2, 3}
     [](Csr<double>* a) { a->col_idx[5] = 3; }, StatusCode::kBadFormat, 3},
    {"row_ptr shorter than n + 1",
     [](Csr<double>* a) { a->row_ptr.pop_back(); },
     StatusCode::kInvalidArgument, -1},
    {"row_ptr past col_idx", [](Csr<double>* a) { a->row_ptr.back() = 9; },
     StatusCode::kInvalidArgument, -1},
    {"val shorter than col_idx", [](Csr<double>* a) { a->val.pop_back(); },
     StatusCode::kInvalidArgument, -1},
    {"row_ptr decreasing", [](Csr<double>* a) { a->row_ptr[1] = 6; },
     StatusCode::kInvalidArgument, 1},
};

TEST(FaultInjection, HostileArraysTypedOnEveryEntryPoint) {
  for (const BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc}) {
    typename BlockSolver<double>::Options opt;
    opt.scheme = scheme;
    opt.planner.stop_rows = 1;
    opt.planner.nseg = 2;
    std::unique_ptr<BlockSolver<double>> valid;
    ASSERT_TRUE(BlockSolver<double>::create(small_lower(), opt, &valid).ok());
    const std::string path = ::testing::TempDir() + "blocktri_hostile_" +
                             to_string(scheme) + ".btpa";
    ASSERT_TRUE(valid->save_artifact(path).ok());
    for (const HostileCase& hc : kHostileCases) {
      SCOPED_TRACE(to_string(scheme) + ": " + hc.name);
      Csr<double> bad = small_lower();
      hc.corrupt(&bad);
      const auto expect_typed = [&](const Status& st) {
        EXPECT_EQ(st.code(), hc.code) << st.to_string();
        EXPECT_EQ(st.location(), hc.row);
      };
      std::unique_ptr<BlockSolver<double>> out;
      EXPECT_NO_THROW(expect_typed(BlockSolver<double>::create(bad, opt, &out)));
      EXPECT_EQ(out, nullptr);
      EXPECT_NO_THROW(expect_typed(
          BlockSolver<double>::create_from_file(path, bad, opt, &out)));
      EXPECT_EQ(out, nullptr);
      EXPECT_NO_THROW(expect_typed(valid->refresh_values(bad)));
    }
    std::remove(path.c_str());
  }
}

// check_lower_triangular(a, &hash) is the one pass every entry point runs:
// it must return the Status the separate check returns, message and row
// included, and on Ok the bits structure_hash computes — on every generator
// family and on every hostile array above.
TEST(FaultInjection, CheckAndHashMatchTheSeparatePasses) {
  const auto expect_parity = [](const Csr<double>& a, const std::string& what) {
    std::uint64_t hash = 0;
    const Status one = check_lower_triangular(a, &hash);
    const Status two = check_lower_triangular(a);
    EXPECT_EQ(one.code(), two.code()) << what;
    EXPECT_EQ(one.location(), two.location()) << what;
    EXPECT_EQ(one.to_string(), two.to_string()) << what;
    if (two.ok()) EXPECT_EQ(hash, structure_hash(a)) << what;
  };
  for (const blocktri::testing::TestMatrix& tm :
       blocktri::testing::test_matrices())
    expect_parity(tm.build(), tm.name);
  const Csr<double> levels = gen::random_levels(1500, 24, 3.0, 1.0, 8);
  expect_parity(gen::laplace3d(9, 8, 7, 3), "laplace3d");
  expect_parity(gen::power_law_levels(2000, 40, 0.9, 2.2, 64, 4.0, 1.5, 2,
                                      0.05, 2, 0.02, 5),
                "power_law_levels");
  expect_parity(gen::random_topological_shuffle(levels, 4), "shuffled");
  expect_parity(Csr<double>{}, "default-constructed");
  for (const HostileCase& hc : kHostileCases) {
    Csr<double> bad = small_lower();
    hc.corrupt(&bad);
    expect_parity(bad, hc.name);
  }
}

// ---- Modes 17-18: rhs corruption -> typed errors, no exception ----

TEST(FaultInjection, WrongRhsSizeTyped) {
  BlockSolver<double> solver(fixture_matrix(), {});
  const auto res = solver.solve_checked(std::vector<double>(13, 1.0));
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjection, NanRhsTypedWithIndex) {
  const auto L = fixture_matrix();
  BlockSolver<double> solver(L, {});
  auto b = gen::random_rhs<double>(L.nrows, 3);
  b[41] = std::numeric_limits<double>::infinity();
  const auto res = solver.solve_checked(b);
  EXPECT_EQ(res.status.code(), StatusCode::kNonFinite);
  EXPECT_EQ(res.status.location(), 41);
}

// ---- Modes 19-21: per-block kernel failure -> fallback ladder ----

template <class T>
typename BlockSolver<T>::Options ladder_options(int corrupt_attempts) {
  typename BlockSolver<T>::Options opt;
  opt.planner.stop_rows = 16;  // several triangular blocks
  opt.adaptive = false;        // pin the primary kernel for determinism
  opt.forced_tri = TriKernelKind::kSyncFree;
  opt.fault.tri_block = 0;
  opt.fault.corrupt_attempts = corrupt_attempts;
  return opt;
}

TEST(FaultInjection, FallbackLadderEngagesLevelSet) {
  const auto L = fixture_matrix();
  const auto b = gen::random_rhs<double>(L.nrows, 5);
  BlockSolver<double> solver(L, ladder_options<double>(1));
  const auto res = solver.solve_checked(b);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  // The degradation is visible in the report and the answer is still right.
  ASSERT_EQ(res.report.fallbacks.size(), 1u);
  EXPECT_EQ(res.report.fallbacks[0].block, 0);
  EXPECT_EQ(res.report.fallbacks[0].from, TriKernelKind::kSyncFree);
  EXPECT_EQ(res.report.fallbacks[0].to, FallbackEvent::Rung::kLevelSet);
  EXPECT_TRUE(VectorsNear(res.x, sptrsv_serial(L, b), default_tol<double>()));
}

TEST(FaultInjection, FallbackLadderDegradesToSerial) {
  const auto L = fixture_matrix();
  const auto b = gen::random_rhs<double>(L.nrows, 6);
  BlockSolver<double> solver(L, ladder_options<double>(2));
  const auto res = solver.solve_checked(b);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  ASSERT_EQ(res.report.fallbacks.size(), 2u);
  EXPECT_EQ(res.report.fallbacks[0].to, FallbackEvent::Rung::kLevelSet);
  EXPECT_EQ(res.report.fallbacks[1].to, FallbackEvent::Rung::kSerial);
  EXPECT_TRUE(res.report.residual_checked);
  EXPECT_TRUE(VectorsNear(res.x, sptrsv_serial(L, b), default_tol<double>()));
}

TEST(FaultInjection, LadderExhaustionIsTypedNotACrash) {
  const auto L = fixture_matrix();
  const auto b = gen::random_rhs<double>(L.nrows, 8);
  BlockSolver<double> solver(L, ladder_options<double>(3));
  const auto res = solver.solve_checked(b);
  EXPECT_EQ(res.status.code(), StatusCode::kNumericalBreakdown);
  EXPECT_NE(res.status.message().find("block 0"), std::string::npos);
  EXPECT_EQ(res.report.fallbacks.size(), 2u);  // both rungs were tried
}

// ---- End-to-end: the hardened pipeline on a clean stream ----

TEST(FaultInjection, CleanPipelineResidualVerified) {
  std::vector<double> x;
  ASSERT_TRUE(pipeline(fixture_mtx(), &x).ok());
  const auto L = fixture_matrix();
  EXPECT_TRUE(VectorsNear(x, sptrsv_serial(L, gen::random_rhs<double>(
                                                  L.nrows, 7)),
                          default_tol<double>()));
}

}  // namespace
}  // namespace blocktri
