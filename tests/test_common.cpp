// Unit tests for src/common: RNG, scans, sorting, permutations, tables, CLI,
// CRC32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>

#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/thread_pool.hpp"
#include "common/prefix.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "helpers.hpp"

namespace blocktri {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all 9 values hit in 2000 draws
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, PowerLawBoundsAndSkew) {
  Rng rng(13);
  std::int64_t ones = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.power_law(2.0, 1000);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 1000);
    if (v == 1) ++ones;
  }
  // A power law with alpha=2 puts roughly half its mass on k=1.
  EXPECT_GT(ones, 1500);
}

TEST(Rng, GeometricMean) {
  Rng rng(15);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += static_cast<double>(rng.geometric(0.25));
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.25);  // mean (1-p)/p = 3
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, SampleDistinctIsDistinctAndInRange) {
  Rng rng(19);
  const auto s = rng.sample_distinct(10, 29, 15);
  EXPECT_EQ(s.size(), 15u);
  std::set<std::int64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 15u);
  for (const auto v : s) {
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 29);
  }
}

TEST(Rng, SampleDistinctFullRange) {
  Rng rng(21);
  const auto s = rng.sample_distinct(0, 9, 10);
  std::set<std::int64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Prefix, ExclusiveScan) {
  std::vector<offset_t> v = {3, 1, 4, 1, 0};
  exclusive_scan_in_place(v);
  EXPECT_EQ(v, (std::vector<offset_t>{0, 3, 4, 8, 9}));
}

TEST(Prefix, ExclusiveScanEmpty) {
  std::vector<offset_t> v;
  exclusive_scan_in_place(v);
  EXPECT_TRUE(v.empty());
}

TEST(Prefix, CountingSortIsStable) {
  // Keys with ties; stability means original order within each key.
  const std::vector<index_t> keys = {2, 0, 1, 0, 2, 1, 0};
  const auto perm = stable_counting_sort_perm(keys, 3);
  EXPECT_EQ(perm, (std::vector<index_t>{1, 3, 6, 2, 5, 0, 4}));
}

TEST(Prefix, CountingSortRejectsOutOfRange) {
  const std::vector<index_t> keys = {0, 3};
  EXPECT_THROW(stable_counting_sort_perm(keys, 3), Error);
}

TEST(Prefix, InvertPermutationRoundTrip) {
  const std::vector<index_t> perm = {2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  EXPECT_EQ(inv, (std::vector<index_t>{1, 3, 0, 2}));
  EXPECT_EQ(invert_permutation(inv), perm);
}

TEST(Prefix, IsPermutationOfIota) {
  EXPECT_TRUE(is_permutation_of_iota({1, 0, 2}));
  EXPECT_FALSE(is_permutation_of_iota({1, 1, 2}));
  EXPECT_FALSE(is_permutation_of_iota({0, 3, 1}));
  EXPECT_TRUE(is_permutation_of_iota({}));
}

TEST(Table, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| long-name |"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Format, Fixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
}

TEST(Format, Count) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-1234), "-1,234");
}

TEST(Format, Compact) {
  EXPECT_EQ(fmt_compact(0.0), "0");
  EXPECT_NE(fmt_compact(1.23e-7).find("e"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--n=42", "--verbose", "input.mtx",
                        "--ratio=0.5"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.mtx");
  EXPECT_TRUE(cli.unused().empty());
}

TEST(Cli, DefaultsAndUnused) {
  const char* argv[] = {"prog", "--typo=1"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_int("n", 7), 7);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=12x"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), Error);
}

TEST(Check, ThrowsWithContext) {
  try {
    BLOCKTRI_CHECK_MSG(1 == 2, "context message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
    // Checks are rebased on Status: the carried code is kInternal.
    EXPECT_EQ(e.status().code(), StatusCode::kInternal);
  }
}

TEST(Status, DefaultIsOk) {
  const Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.location(), -1);
  EXPECT_EQ(st.to_string(), "ok");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(Status, ToStringCarriesCodeAndLocation) {
  const Status row_err(StatusCode::kZeroPivot, "diagonal of row 7 is zero", 7);
  EXPECT_FALSE(row_err.ok());
  EXPECT_EQ(row_err.to_string(),
            "[zero-pivot @ row 7] diagonal of row 7 is zero");
  const Status line_err(StatusCode::kParseError, "bad entry (line 12)", 12);
  EXPECT_EQ(line_err.to_string(), "[parse-error @ line 12] bad entry (line 12)");
  const Status no_loc(StatusCode::kResidualTooLarge, "residual 1e-3");
  EXPECT_EQ(no_loc.to_string(), "[residual-too-large] residual 1e-3");
  const Status byte_err(StatusCode::kBadFormat, "2 trailing bytes", 40,
                        LocationKind::kByte);
  EXPECT_EQ(byte_err.to_string(), "[bad-format @ byte 40] 2 trailing bytes");
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kBadFormat), "bad-format");
  EXPECT_STREQ(status_code_name(StatusCode::kNotTriangular), "not-triangular");
  EXPECT_STREQ(status_code_name(StatusCode::kSingularRow), "singular-row");
  EXPECT_STREQ(status_code_name(StatusCode::kNonFinite), "non-finite");
  EXPECT_STREQ(status_code_name(StatusCode::kNumericalBreakdown),
               "numerical-breakdown");
}

TEST(Status, ThrowIfErrorBridgesToException) {
  EXPECT_NO_THROW(throw_if_error(Status::Ok()));
  try {
    throw_if_error(Status(StatusCode::kSingularRow, "row 3 empty", 3));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kSingularRow);
    EXPECT_EQ(e.status().location(), 3);
    EXPECT_EQ(std::string(e.what()), e.status().to_string());
  }
}

// --- CRC32 -------------------------------------------------------------------
//
// io::crc32 steps eight bytes at a time on little-endian hosts and one at a
// time for the tail; every split of length and alignment must give the
// byte-wise reference's value, or artifacts, wire frames and .btcm files
// would change on disk.

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(io::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(io::crc32(nullptr, 0), 0u);
  EXPECT_EQ(blocktri::testing::reference_crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  Rng rng(42);
  // Short lengths run the single register; lengths around the three-lane
  // threshold cover both sides of it and every tail the lanes leave.
  const std::size_t lanes = io::kCrc32LaneBytes;
  std::vector<unsigned char> buf(lanes + 64 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  for (std::size_t len = lanes - 32; len <= lanes + 64; ++len)
    lengths.push_back(len);
  for (std::size_t off = 0; off < 8; ++off)
    for (const std::size_t len : lengths)
      ASSERT_EQ(io::crc32(buf.data() + off, len),
                blocktri::testing::reference_crc32(buf.data() + off, len))
          << "offset " << off << ", length " << len;
}

TEST(Crc32, MatchesByteWiseReferenceOnOneMebibyte) {
  Rng rng(7);
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  EXPECT_EQ(io::crc32(buf.data(), buf.size()),
            blocktri::testing::reference_crc32(buf.data(), buf.size()));
}

// --- resolve_threads env hardening (ISSUE 8 satellite) ----------------------

// Sets BLOCKTRI_THREADS for one test body, restoring the prior state on
// scope exit so tests cannot leak environment into each other.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("BLOCKTRI_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr)
      ::setenv("BLOCKTRI_THREADS", value, 1);
    else
      ::unsetenv("BLOCKTRI_THREADS");
  }
  ~ScopedThreadsEnv() {
    if (had_)
      ::setenv("BLOCKTRI_THREADS", saved_.c_str(), 1);
    else
      ::unsetenv("BLOCKTRI_THREADS");
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(ResolveThreads, ValidEnvOverridesTheRequest) {
  ScopedThreadsEnv env("3");
  EXPECT_EQ(resolve_threads(8), 3);
  EXPECT_EQ(resolve_threads(0), 3);
}

TEST(ResolveThreads, UnsetEnvFallsBackToTheRequest) {
  ScopedThreadsEnv env(nullptr);
  EXPECT_EQ(resolve_threads(8), 8);
  EXPECT_GE(resolve_threads(0), 1);   // 0 = auto-detect, at least one
  EXPECT_EQ(resolve_threads(-4), 1);  // negative requests clamp to one
}

TEST(ResolveThreads, GarbageEnvFallsBackToTheRequest) {
  for (const char* bad : {"", "abc", "4x", "4 2", "2.5", "--3", "+", " ",
                          "0x10", "1e3"}) {
    ScopedThreadsEnv env(bad);
    EXPECT_EQ(resolve_threads(8), 8) << "env was '" << bad << "'";
  }
}

TEST(ResolveThreads, NonPositiveEnvFallsBackToTheRequest) {
  for (const char* bad : {"0", "-1", "-4096"}) {
    ScopedThreadsEnv env(bad);
    EXPECT_EQ(resolve_threads(8), 8) << "env was '" << bad << "'";
  }
}

TEST(ResolveThreads, OverflowingEnvFallsBackInsteadOfWrapping) {
  // Both values saturate or overflow long; neither may wrap into a small
  // positive thread count.
  for (const char* bad :
       {"9223372036854775808", "99999999999999999999999999", "-99999999999"}) {
    ScopedThreadsEnv env(bad);
    EXPECT_EQ(resolve_threads(8), 8) << "env was '" << bad << "'";
  }
}

TEST(ResolveThreads, EnvAboveTheSanityCapFallsBack) {
  ScopedThreadsEnv env("1000000");  // > kMaxResolvedThreads, parses fine
  EXPECT_EQ(resolve_threads(8), 8);
  ScopedThreadsEnv env2("4096");  // the cap itself is accepted
  EXPECT_EQ(resolve_threads(8), 4096);
}

TEST(ResolveThreads, TrailingBlanksAreTolerated) {
  ScopedThreadsEnv env("6  \t");
  EXPECT_EQ(resolve_threads(8), 6);
}

}  // namespace
}  // namespace blocktri
