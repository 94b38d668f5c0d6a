// Batched multi-RHS (SpTRSM) tests. The contract under test: solve_many(B, k)
// is BITWISE identical to k independent solve() calls on a threads = 1 solver
// — across every scheme, every forced triangular/SpMV kernel pair, both
// precisions and any thread count (every kernel, batched or single-RHS, is
// deterministic at any thread count). Plus the hardened panel path:
// solve_many_checked verifies every column and degrades a faulty column
// through the fallback ladder without touching its healthy neighbours.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "sptrsv/serial.hpp"

namespace blocktri {
namespace {

using blocktri::testing::default_tol;
using blocktri::testing::expect_same_report;
using blocktri::testing::test_matrices;
using blocktri::testing::VectorsNear;

template <class T>
typename BlockSolver<T>::Options opts(BlockScheme scheme,
                                      index_t stop_rows = 200,
                                      index_t nseg = 4) {
  typename BlockSolver<T>::Options o;
  o.scheme = scheme;
  o.planner.stop_rows = stop_rows;
  o.planner.nseg = nseg;
  return o;
}

template <class T>
std::vector<T> panel_column(const std::vector<T>& panel, index_t n,
                            index_t c) {
  const auto off = static_cast<std::ptrdiff_t>(c) * n;
  return std::vector<T>(panel.begin() + off, panel.begin() + off + n);
}

/// Bitwise equality (memcmp, so even -0.0 vs +0.0 or NaN payloads differ).
template <class T>
::testing::AssertionResult BitwiseEqual(const std::vector<T>& got,
                                        const std::vector<T>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size mismatch: " << got.size() << " vs " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0)
      return ::testing::AssertionFailure()
             << "entry " << i << ": got " << static_cast<double>(got[i])
             << ", want " << static_cast<double>(want[i])
             << " (not bitwise equal)";
  }
  return ::testing::AssertionSuccess();
}

/// Asserts solve_many on `solver` equals column-by-column solve() on `ref`
/// (a threads = 1 solver over the same matrix and plan options) bitwise.
template <class T>
void expect_batched_matches(const BlockSolver<T>& solver,
                            const BlockSolver<T>& ref, index_t k,
                            std::uint64_t seed, const std::string& tag) {
  const index_t n = ref.n();
  const auto B = gen::random_rhs<T>(n * k, seed);
  const auto X = solver.solve_many(B, k);
  ASSERT_EQ(X.size(), B.size()) << tag;
  for (index_t c = 0; c < k; ++c) {
    const auto want = ref.solve(panel_column(B, n, c));
    EXPECT_TRUE(BitwiseEqual(panel_column(X, n, c), want))
        << tag << ", column " << c << " of " << k;
  }
}

// --- Scheme x structural family sweep (adaptive selection) -----------------

class BatchedOnMatrix
    : public ::testing::TestWithParam<std::tuple<BlockScheme, int>> {};

TEST_P(BatchedOnMatrix, BitwiseDouble) {
  const auto [scheme, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto L = tm.build();
  const BlockSolver<double> solver(L, opts<double>(scheme));
  expect_batched_matches(solver, solver, 5, 301, tm.name);
}

TEST_P(BatchedOnMatrix, BitwiseFloat) {
  const auto [scheme, mat_idx] = GetParam();
  const auto tm = test_matrices()[static_cast<std::size_t>(mat_idx)];
  const auto Lf = gen::convert_values<float>(tm.build());
  const BlockSolver<float> solver(Lf, opts<float>(scheme));
  expect_batched_matches(solver, solver, 5, 302, tm.name);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedOnMatrix,
    ::testing::Combine(
        ::testing::Values(BlockScheme::kColumn, BlockScheme::kRow,
                          BlockScheme::kRecursive, BlockScheme::kHbmc),
        ::testing::Range(0, static_cast<int>(test_matrices().size()))),
    [](const ::testing::TestParamInfo<BatchedOnMatrix::ParamType>& info) {
      std::string s = to_string(std::get<0>(info.param));
      std::replace(s.begin(), s.end(), '-', '_');
      return s + "_" +
             test_matrices()[static_cast<std::size_t>(
                                 std::get<1>(info.param))].name;
    });

// --- Forced kernel pairs: every batched tri x SpMV family ------------------

TEST(Batched, ForcedKernelPairsBitwise) {
  const auto L = gen::kkt_structure(3000, 13, 3.0, 7);
  for (const auto tri :
       {TriKernelKind::kLevelSet, TriKernelKind::kSyncFree,
        TriKernelKind::kCusparseLike}) {
    for (const auto sq :
         {SpmvKernelKind::kScalarCsr, SpmvKernelKind::kVectorCsr,
          SpmvKernelKind::kScalarDcsr, SpmvKernelKind::kVectorDcsr}) {
      auto o = opts<double>(BlockScheme::kRecursive, 300);
      o.adaptive = false;
      o.forced_tri = tri;
      o.forced_square = sq;
      const BlockSolver<double> solver(L, o);
      expect_batched_matches(solver, solver, 3, 303,
                             to_string(tri) + "/" + to_string(sq));
    }
  }
}

TEST(Batched, ForcedKernelPairFloat) {
  const auto Lf = gen::convert_values<float>(gen::grid2d(40, 25, 5));
  auto o = opts<float>(BlockScheme::kRecursive, 150);
  o.adaptive = false;
  o.forced_tri = TriKernelKind::kCusparseLike;
  o.forced_square = SpmvKernelKind::kVectorDcsr;
  const BlockSolver<float> solver(Lf, o);
  expect_batched_matches(solver, solver, 4, 304, "float forced pair");
}

TEST(Batched, DiagonalKernelBitwise) {
  const auto L = gen::diagonal(257, 1);
  const BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive));
  // The adaptive selector must have picked the completely-parallel kernel —
  // otherwise this test is not covering the batched diagonal path.
  ASSERT_FALSE(solver.tri_info().empty());
  for (const auto& info : solver.tri_info())
    EXPECT_EQ(info.kind, TriKernelKind::kCompletelyParallel);
  expect_batched_matches(solver, solver, 4, 305, "diagonal");
}

// --- Thread sweep: k = 16 stays bitwise equal at any thread count ----------

TEST(Batched, ThreadSweepK16Bitwise) {
  const auto L = gen::grid2d(40, 25, 5);
  for (const auto scheme : {BlockScheme::kRecursive, BlockScheme::kColumn,
                            BlockScheme::kHbmc}) {
    const BlockSolver<double> ref(L, opts<double>(scheme, 150));
    for (const int t : {1, 2, 4}) {
      auto o = opts<double>(scheme, 150);
      o.threads = t;
      const BlockSolver<double> solver(L, o);
      expect_batched_matches(solver, ref, 16, 306,
                             to_string(scheme) + " threads=" +
                                 std::to_string(t));
    }
  }
}

TEST(Batched, ThreadSweepFloat) {
  const auto Lf = gen::convert_values<float>(gen::banded(800, 16, 3.0, 4));
  const BlockSolver<float> ref(Lf, opts<float>(BlockScheme::kRecursive, 150));
  for (const int t : {2, 4}) {
    auto o = opts<float>(BlockScheme::kRecursive, 150);
    o.threads = t;
    const BlockSolver<float> solver(Lf, o);
    expect_batched_matches(solver, ref, 16, 307,
                           "float threads=" + std::to_string(t));
  }
}

// --- Known answers: sync-free plans keep their bits ------------------------
//
// FNV-1a hashes of the solution bits, recorded from a build whose sync-free
// kernels pushed left-sums down CSC columns. The row kernels that replaced
// them do the same floating-point operations in the same order, so none of
// these may move. solve_many_checked must give the bits of the panel hash.
// The checked hashes (checked_fnv1a: x, then every report's residual and
// refinements) were recorded while the residual read a retained copy of the
// permuted matrix and the checked panel ran column-major. The answers are
// pinned under the canonical blocked order process-wide, so the pool's
// workers run it too (the vector lowering gives the same bits), whatever
// BLOCKTRI_STRICT_SCALAR says.

template <class T>
std::uint64_t bits_fnv1a(const std::vector<T>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// What the checked paths run besides the default options: a tolerance no
/// residual reaches (two refinement rounds, no whole-solve ladder), or a NaN
/// in the first attempt of leaf 0, which solve_checked and panel column 2
/// heal through the fallback ladder.
enum class Checked { kPlain, kRefine, kFaultColumn };

/// `want` holds the hashes of solve() and of the k = 1, 5 and 16 panels,
/// then checked_fnv1a of solve_checked and of solve_many_checked at k = 1, 5
/// and 16. Every hash must hold at threads = 1 and 4.
template <class T>
void expect_syncfree_answers(bool forced, Checked checked,
                             const std::vector<std::uint64_t>& want) {
  SCOPED_TRACE(forced ? "forced sync-free" : "adaptive");
  SCOPED_TRACE(static_cast<int>(checked));
  const blocktri::testing::PathGuard canonical(simd::Path::kBlockedScalar);
  const Csr<T> L = gen::convert_values<T>(
      forced ? gen::random_levels(3000, 40, 4.0, 1.0, 17)
             : gen::banded(3000, 24, 3.0, 19));
  const StatusCode code = checked == Checked::kRefine
                              ? StatusCode::kResidualTooLarge
                              : StatusCode::kOk;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    auto o = opts<T>(BlockScheme::kRecursive, 300);
    o.threads = threads;
    if (forced) {
      o.adaptive = false;
      o.forced_tri = TriKernelKind::kSyncFree;
    }
    if (checked == Checked::kRefine) {
      o.verify.tolerance = std::numeric_limits<double>::denorm_min();
      o.verify.max_refinements = 2;
      o.verify.fallback = false;
    } else if (checked == Checked::kFaultColumn) {
      o.fault.tri_block = 0;
      o.fault.corrupt_attempts = 1;
      o.fault.column = 2;
    }
    const BlockSolver<T> solver(L, o);
    // Every leaf must run sync-free, or the fixture pins some other kernel.
    for (const auto& info : solver.tri_info())
      ASSERT_EQ(info.kind, TriKernelKind::kSyncFree);
    const index_t n = L.nrows;
    const auto B = gen::random_rhs<T>(n * 16, 320);
    const std::vector<T> b = panel_column(B, n, 0);
    EXPECT_EQ(bits_fnv1a(solver.solve(b)), want[0]);
    const SolveResult<T> one = solver.solve_checked(b);
    EXPECT_EQ(one.status.code(), code) << one.status.to_string();
    EXPECT_EQ(blocktri::testing::checked_fnv1a(one.x, {one.report}), want[4]);
    const index_t ks[] = {1, 5, 16};
    for (std::size_t i = 0; i < 3; ++i) {
      const index_t k = ks[i];
      SCOPED_TRACE(k);
      const std::vector<T> Bk(B.begin(), B.begin() + n * k);
      EXPECT_EQ(bits_fnv1a(solver.solve_many(Bk, k)), want[i + 1]);
      const SolveManyResult<T> res = solver.solve_many_checked(Bk, k);
      EXPECT_EQ(res.status.code(), code) << res.status.to_string();
      if (checked == Checked::kPlain)
        EXPECT_EQ(bits_fnv1a(res.X), want[i + 1]);
      EXPECT_EQ(blocktri::testing::checked_fnv1a(res.X, res.reports),
                want[i + 5]);
    }
  }
}

TEST(Batched, SyncFreeKnownAnswers) {
  expect_syncfree_answers<double>(
      true, Checked::kPlain,
      {0xf210a5508311fb74ULL, 0xf210a5508311fb74ULL, 0xd9bbbfb5707975ddULL,
       0xe8fce43514a72e08ULL,
       0xd81766aee6166045ULL, 0xd81766aee6166045ULL,
       0x83a20d27009238feULL, 0xbc4771af7eaaaa2aULL});
  expect_syncfree_answers<double>(
      false, Checked::kPlain,
      {0xb4fbd7811f16aee9ULL, 0xb4fbd7811f16aee9ULL, 0x0f367b530e8f0cf7ULL,
       0x3e4350a654a6c056ULL,
       0xbd21901c21781be7ULL, 0xbd21901c21781be7ULL,
       0x15fba20ac9431639ULL, 0xf98763ed5d4813feULL});
  expect_syncfree_answers<float>(
      true, Checked::kPlain,
      {0x6df63755f859d27cULL, 0x6df63755f859d27cULL, 0xa7fe41a812b131a4ULL,
       0x4526824f255d765bULL,
       0xd26b1c1fed13ebabULL, 0xd26b1c1fed13ebabULL,
       0xb998e7ea9d860e28ULL, 0xb9a996bb11e5a763ULL});
  expect_syncfree_answers<float>(
      false, Checked::kPlain,
      {0x1ae0ab394b8942e6ULL, 0x1ae0ab394b8942e6ULL, 0x1f310fdce4b72f94ULL,
       0x8cb611378064e6e7ULL,
       0x87502d68774ca612ULL, 0x87502d68774ca612ULL,
       0xb4cd1fc9cca5a24dULL, 0xb094f781691e92d2ULL});
  expect_syncfree_answers<double>(
      true, Checked::kRefine,
      {0xf210a5508311fb74ULL, 0xf210a5508311fb74ULL, 0xd9bbbfb5707975ddULL,
       0xe8fce43514a72e08ULL,
       0x3c101691ca14a5ccULL, 0x3c101691ca14a5ccULL,
       0xac0fd103263496fdULL, 0x50767a0caa2e2ba8ULL});
  expect_syncfree_answers<float>(
      false, Checked::kRefine,
      {0x1ae0ab394b8942e6ULL, 0x1ae0ab394b8942e6ULL, 0x1f310fdce4b72f94ULL,
       0x8cb611378064e6e7ULL,
       0xd21888dca8bec616ULL, 0xd21888dca8bec616ULL,
       0x658fb8798e29cbbfULL, 0x91aad39b1d3a1727ULL});
  expect_syncfree_answers<double>(
      true, Checked::kFaultColumn,
      {0xf210a5508311fb74ULL, 0xf210a5508311fb74ULL, 0xd9bbbfb5707975ddULL,
       0xe8fce43514a72e08ULL,
       0x69a680df227f2479ULL, 0xd81766aee6166045ULL,
       0x58d610a83802f1a4ULL, 0x69cb5305f8601d84ULL});
  expect_syncfree_answers<float>(
      true, Checked::kFaultColumn,
      {0x6df63755f859d27cULL, 0x6df63755f859d27cULL, 0xa7fe41a812b131a4ULL,
       0x4526824f255d765bULL,
       0x6ad38290b9284a27ULL, 0xd26b1c1fed13ebabULL,
       0x9c5c198b63c87bb9ULL, 0x714ff9d4312eaaaeULL});
}

// --- Edge cases ------------------------------------------------------------

TEST(Batched, KZeroReturnsEmptyPanel) {
  const BlockSolver<double> solver(gen::diagonal(64, 2),
                                   opts<double>(BlockScheme::kColumn));
  EXPECT_TRUE(solver.solve_many({}, 0).empty());
}

// A k = 1 panel, contiguous or gathered, is solve() at threads = 1 — also
// on a threaded solver.
TEST(Batched, KOneMatchesSolve) {
  const auto L = gen::banded(800, 16, 3.0, 4);
  for (const auto scheme : {BlockScheme::kRow, BlockScheme::kHbmc}) {
    const BlockSolver<double> ref(L, opts<double>(scheme));
    const auto b = gen::random_rhs<double>(L.nrows, 308);
    const auto want = ref.solve(b);
    for (const int t : {1, 4}) {
      const std::string tag =
          to_string(scheme) + " k=1 threads=" + std::to_string(t);
      auto o = opts<double>(scheme);
      o.threads = t;
      const BlockSolver<double> solver(L, o);
      expect_batched_matches(solver, ref, 1, 308, tag);
      std::vector<double> x(b.size(), -1.0);
      const double* bs[] = {b.data()};
      double* xs[] = {x.data()};
      ASSERT_TRUE(solver.solve_many(bs, xs, 1, SolveControls{}).ok()) << tag;
      EXPECT_TRUE(BitwiseEqual(x, want)) << tag << ", gather form";
    }
  }
}

// solve_checked(b) is solve_many_checked(b, 1): the same status, x bits and
// report, clean and under each fault hook — a NaN in leaf 0's first one to
// three attempts (the third exhausts the per-block ladder), or a wrong but
// finite first whole attempt, refined or not.
TEST(Batched, CheckedKOneMatchesSolveChecked) {
  const auto L = gen::grid2d(30, 20, 9);
  const auto b = gen::random_rhs<double>(L.nrows, 314);
  struct Case {
    const char* name;
    int corrupt_attempts;  // forces sync-free leaves
    int corrupt_solve_attempts;
    int max_refinements;
  };
  const Case cases[] = {
      {"clean", 0, 0, 1},          {"corrupt_attempts=1", 1, 0, 1},
      {"corrupt_attempts=2", 2, 0, 1}, {"corrupt_attempts=3", 3, 0, 1},
      {"corrupt_solve_attempts=1", 0, 1, 1},
      {"corrupt_solve_attempts=1, no refinement", 0, 1, 0},
  };
  for (const auto scheme : {BlockScheme::kColumn, BlockScheme::kRow,
                            BlockScheme::kRecursive, BlockScheme::kHbmc}) {
    for (const int threads : {1, 4}) {
      for (const Case& cs : cases) {
        SCOPED_TRACE(to_string(scheme) + " threads=" +
                     std::to_string(threads) + " " + cs.name);
        auto o = opts<double>(scheme, 64);
        o.threads = threads;
        o.collect_stats = true;
        o.verify.max_refinements = cs.max_refinements;
        if (cs.corrupt_attempts > 0) {
          o.adaptive = false;
          o.forced_tri = TriKernelKind::kSyncFree;
          o.fault.tri_block = 0;
          o.fault.corrupt_attempts = cs.corrupt_attempts;
        }
        o.fault.corrupt_solve_attempts = cs.corrupt_solve_attempts;
        const BlockSolver<double> solver(L, o);
        const SolveResult<double> one = solver.solve_checked(b);
        const SolveManyResult<double> many = solver.solve_many_checked(b, 1);
        EXPECT_EQ(one.status.code(), many.status.code())
            << one.status.to_string() << " vs " << many.status.to_string();
        EXPECT_TRUE(BitwiseEqual(one.x, many.X));
        ASSERT_EQ(many.reports.size(), 1u);
        expect_same_report(one.report, many.reports[0]);
      }
    }
  }
}

TEST(Batched, WrongPanelSizeThrowsTyped) {
  const BlockSolver<double> solver(gen::diagonal(64, 2),
                                   opts<double>(BlockScheme::kColumn));
  EXPECT_THROW(solver.solve_many(std::vector<double>(63, 1.0), 1), Error);
  EXPECT_THROW(solver.solve_many(std::vector<double>(128, 1.0), 1), Error);
}

// --- Hardened panel path ---------------------------------------------------

// At threads = 4 and k = 16 the batched kernels of the checked panel split
// their rows and columns across the pool.
TEST(Batched, CheckedHealthyPanelVerifiesEveryColumn) {
  const auto L = gen::grid2d(30, 20, 9);
  for (const auto [threads, k] : {std::pair<int, index_t>{1, 3}, {4, 16}}) {
    SCOPED_TRACE(threads);
    auto o = opts<double>(BlockScheme::kRecursive, 150);
    o.threads = threads;
    const BlockSolver<double> solver(L, o);
    const auto B = gen::random_rhs<double>(L.nrows * k, 309);
    const auto res = solver.solve_many_checked(B, k);
    ASSERT_TRUE(res.ok()) << res.status.to_string();
    ASSERT_EQ(res.reports.size(), static_cast<std::size_t>(k));
    for (index_t c = 0; c < k; ++c) {
      const auto& rep = res.reports[static_cast<std::size_t>(c)];
      EXPECT_TRUE(rep.residual_checked);
      EXPECT_LE(rep.residual, rep.tolerance);
      EXPECT_TRUE(rep.fallbacks.empty());
      EXPECT_TRUE(VectorsNear(panel_column(res.X, L.nrows, c),
                              sptrsv_serial(L, panel_column(B, L.nrows, c)),
                              default_tol<double>()))
          << "column " << c;
    }
  }
}

TEST(Batched, CheckedNonFinitePanelEntryTyped) {
  const auto L = gen::banded(500, 8, 2.0, 3);
  const BlockSolver<double> solver(L, opts<double>(BlockScheme::kRecursive));
  auto B = gen::random_rhs<double>(L.nrows * 2, 310);
  B[static_cast<std::size_t>(L.nrows) + 17] =
      std::numeric_limits<double>::quiet_NaN();
  const auto res = solver.solve_many_checked(B, 2);
  EXPECT_EQ(res.status.code(), StatusCode::kNonFinite);
  EXPECT_EQ(res.status.location(),
            static_cast<std::int64_t>(L.nrows) + 17);
  EXPECT_NE(res.status.message().find("column 1"), std::string::npos);
}

template <class T>
typename BlockSolver<T>::Options ladder_options(int corrupt_attempts,
                                                index_t column) {
  typename BlockSolver<T>::Options o;
  o.planner.stop_rows = 64;   // several triangular blocks
  o.adaptive = false;         // pin the primary kernel for determinism
  o.forced_tri = TriKernelKind::kSyncFree;
  o.fault.tri_block = 0;
  o.fault.corrupt_attempts = corrupt_attempts;
  o.fault.column = column;
  return o;
}

TEST(Batched, CheckedFaultOnOneColumnDegradesAlone) {
  const auto L = gen::grid2d(30, 20, 9);
  const index_t k = 3;
  const auto B = gen::random_rhs<double>(L.nrows * k, 311);
  const BlockSolver<double> solver(L, ladder_options<double>(1, 1));
  const auto res = solver.solve_many_checked(B, k);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  ASSERT_EQ(res.reports.size(), static_cast<std::size_t>(k));
  // Only the poisoned column engaged the ladder.
  ASSERT_EQ(res.reports[1].fallbacks.size(), 1u);
  EXPECT_EQ(res.reports[1].fallbacks[0].block, 0);
  EXPECT_EQ(res.reports[1].fallbacks[0].from, TriKernelKind::kSyncFree);
  EXPECT_EQ(res.reports[1].fallbacks[0].to, FallbackEvent::Rung::kLevelSet);
  EXPECT_TRUE(res.reports[0].fallbacks.empty());
  EXPECT_TRUE(res.reports[2].fallbacks.empty());
  // Every column — the degraded one included — is still correct.
  for (index_t c = 0; c < k; ++c)
    EXPECT_TRUE(VectorsNear(panel_column(res.X, L.nrows, c),
                            sptrsv_serial(L, panel_column(B, L.nrows, c)),
                            default_tol<double>()))
        << "column " << c;
}

TEST(Batched, CheckedFaultDegradesToSerialRung) {
  const auto L = gen::grid2d(30, 20, 9);
  const index_t k = 2;
  const auto B = gen::random_rhs<double>(L.nrows * k, 312);
  const BlockSolver<double> solver(L, ladder_options<double>(2, 0));
  const auto res = solver.solve_many_checked(B, k);
  ASSERT_TRUE(res.ok()) << res.status.to_string();
  ASSERT_EQ(res.reports[0].fallbacks.size(), 2u);
  EXPECT_EQ(res.reports[0].fallbacks[0].to, FallbackEvent::Rung::kLevelSet);
  EXPECT_EQ(res.reports[0].fallbacks[1].to, FallbackEvent::Rung::kSerial);
  EXPECT_TRUE(res.reports[1].fallbacks.empty());
}

// The fault hooks poison panel column fault.column only when it lies in
// [0, k), and a refinement round only when it refines that column.
TEST(Batched, CheckedFaultHooksPoisonOnlyTheirColumn) {
  const auto L = gen::grid2d(30, 20, 9);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto b = gen::random_rhs<double>(L.nrows, 315);
    {
      // A wrong whole attempt aimed past a k = 1 panel: no retry.
      auto o = opts<double>(BlockScheme::kRecursive, 100);
      o.threads = threads;
      o.fault.column = 2;
      o.fault.corrupt_solve_attempts = 1;
      const auto res = BlockSolver<double>(L, o).solve_many_checked(b, 1);
      ASSERT_TRUE(res.ok()) << res.status.to_string();
      EXPECT_EQ(res.reports[0].attempts, 1);
      EXPECT_TRUE(res.reports[0].degrades.empty());
    }
    {
      // A NaN block aimed past a k = 1 panel: no ladder.
      auto o = ladder_options<double>(1, 2);
      o.planner.stop_rows = 100;
      o.threads = threads;
      const auto res = BlockSolver<double>(L, o).solve_many_checked(b, 1);
      ASSERT_TRUE(res.ok()) << res.status.to_string();
      EXPECT_TRUE(res.reports[0].fallbacks.empty());
    }
    {
      // Every column is refined; only column 1's rounds meet the NaN.
      auto o = ladder_options<double>(1, 1);
      o.planner.stop_rows = 100;
      o.threads = threads;
      o.verify.tolerance = std::numeric_limits<double>::denorm_min();
      o.verify.max_refinements = 1;
      const index_t k = 2;
      const auto B = gen::random_rhs<double>(L.nrows * k, 316);
      const auto res = BlockSolver<double>(L, o).solve_many_checked(B, k);
      EXPECT_EQ(res.status.code(), StatusCode::kResidualTooLarge);
      EXPECT_EQ(res.reports[0].refinements, 1);
      EXPECT_TRUE(res.reports[0].fallbacks.empty());
      EXPECT_EQ(res.reports[1].refinements, 1);
      // The attempt's rescue, then the refinement round's.
      EXPECT_EQ(res.reports[1].fallbacks.size(), 2u);
    }
  }
}

TEST(Batched, CheckedLadderExhaustionNamesTheColumn) {
  const auto L = gen::grid2d(30, 20, 9);
  const index_t k = 3;
  const auto B = gen::random_rhs<double>(L.nrows * k, 313);
  const BlockSolver<double> solver(L, ladder_options<double>(3, 2));
  const auto res = solver.solve_many_checked(B, k);
  EXPECT_EQ(res.status.code(), StatusCode::kNumericalBreakdown);
  EXPECT_EQ(res.status.location(), 2);
  EXPECT_NE(res.status.message().find("column 2"), std::string::npos);
  EXPECT_EQ(res.reports[2].fallbacks.size(), 2u);  // both rungs were tried
}

}  // namespace
}  // namespace blocktri
