// Plan persistence & cache tests (ISSUE 4).
//
// Contract under test: a solver rehydrated from a saved artifact or a warm
// PlanCache hit is indistinguishable from the cold-built one — same plan,
// bitwise-identical solves at every thread count — and performs ZERO
// level-set analysis (asserted via level_analysis_count). Artifact defects
// (truncation, bit rot, wrong version/precision/structure/options) must map
// to typed Status codes, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/simd.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "persist/artifact.hpp"
#include "persist/plan_cache.hpp"

namespace blocktri {
namespace {

using blocktri::testing::test_matrices;

template <class T>
typename BlockSolver<T>::Options small_block_options(
    BlockScheme scheme = BlockScheme::kRecursive) {
  typename BlockSolver<T>::Options opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = 64;  // force real block structure on test sizes
  opt.planner.nseg = 4;
  return opt;
}

std::string artifact_path(const std::string& name) {
  return ::testing::TempDir() + "blocktri_" + name + ".btpa";
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Side files save_artifact left next to `path` ("<path>.tmp*").
std::vector<std::string> leftover_side_files(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  const std::string prefix = p.filename().string() + ".tmp";
  std::vector<std::string> found;
  for (const fs::directory_entry& e : fs::directory_iterator(p.parent_path()))
    if (e.path().filename().string().rfind(prefix, 0) == 0)
      found.push_back(e.path().string());
  return found;
}

template <class T>
Csr<T> fixture(int which = 0) {
  Csr<double> d;
  switch (which) {
    case 0: d = gen::grid2d(40, 25, 5); break;
    case 1: d = gen::banded(800, 16, 3.0, 4); break;
    default: d = gen::random_levels(1500, 24, 3.0, 1.0, 8); break;
  }
  return gen::convert_values<T>(d);
}

// --- Bitwise round-trip: cold vs save -> load, all schemes/threads ---------
//
// Every executor path is bitwise deterministic at any thread count, so cold
// and warm must agree bitwise on every solve entry point.

template <class T>
void expect_equal_solvers(const BlockSolver<T>& cold,
                          const BlockSolver<T>& warm, const Csr<T>& L) {
  ASSERT_TRUE(equals(cold.plan(), warm.plan()));
  ASSERT_EQ(cold.tri_info().size(), warm.tri_info().size());
  for (std::size_t i = 0; i < cold.tri_info().size(); ++i) {
    EXPECT_EQ(cold.tri_info()[i].kind, warm.tri_info()[i].kind);
    EXPECT_EQ(cold.tri_info()[i].nnz, warm.tri_info()[i].nnz);
  }
  ASSERT_EQ(cold.step_waves().size(), warm.step_waves().size());

  const auto b = gen::random_rhs<T>(L.nrows, 7);
  EXPECT_EQ(cold.solve(b), warm.solve(b));  // bitwise

  const index_t k = 3;
  std::vector<T> B;
  for (index_t c = 0; c < k; ++c) {
    const auto col = gen::random_rhs<T>(L.nrows, 100 + static_cast<int>(c));
    B.insert(B.end(), col.begin(), col.end());
  }
  EXPECT_EQ(cold.solve_many(B, k), warm.solve_many(B, k));  // always bitwise

  SolveResult<T> rc = cold.solve_checked(b);
  SolveResult<T> rw = warm.solve_checked(b);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ(rc.x, rw.x);  // bitwise, including residual/refinement path
  EXPECT_EQ(rc.report.residual, rw.report.residual);
}

/// What save_artifact writes for `s`: its whole captured state. `tag` keeps
/// the scratch file distinct across concurrently running tests.
template <class T>
std::string saved_bytes(const BlockSolver<T>& s, const std::string& tag) {
  const std::string path = artifact_path("bytes_" + tag);
  EXPECT_TRUE(s.save_artifact(path).ok()) << tag;
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

/// The same pattern with new values: every entry scaled by a factor that
/// varies along the value array.
template <class T>
Csr<T> new_values(Csr<T> L) {
  for (std::size_t i = 0; i < L.val.size(); ++i)
    L.val[i] *= static_cast<T>(1.0 + 0.001 * static_cast<double>(i % 97));
  return L;
}

std::uint64_t fnv1a(const void* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Known answers of cold builds, recorded from the build that permuted the
/// whole matrix and extracted every block from the copy: FNV-1a of the
/// bytes save_artifact writes (re-recorded for each format version; last
/// for format 10, which changed only the header's version and structure
/// hash), and
/// of solve()'s bits for the rhs expect_equal_solvers uses, under the
/// canonical blocked SIMD order (the vector lowering gives the same bits).
/// The one-walk build must keep them.
/// `checked` is checked_fnv1a of solve_checked on that rhs, recorded while
/// the residual still read a retained copy of the permuted matrix.
struct KnownAnswer {
  const char* tag;  // expect_warm_paths_match_cold's tag
  std::uint64_t bytes, solve;  // bytes 0: not pinned (see refresh_tuned)
  std::uint64_t checked;
};
const KnownAnswer kKnownAnswers[] = {
    {"forced_8_recursive-block_completely-parallel_scalar-CSR",
     0xeecb7063960ba77eULL, 0x512d5daf5d2ee3f8ULL, 0x9529cc8edfed09cfULL},
    {"forced_8_recursive-block_level-set_scalar-CSR",
     0x698f12be37a12dd9ULL, 0x512d5daf5d2ee3f8ULL, 0x9529cc8edfed09cfULL},
    {"forced_8_recursive-block_sync-free_scalar-CSR",
     0xd6b954827e33390fULL, 0x512d5daf5d2ee3f8ULL, 0x9529cc8edfed09cfULL},
    {"forced_8_recursive-block_cusparse-like_scalar-CSR",
     0x8efe3c307698dc75ULL, 0x512d5daf5d2ee3f8ULL, 0x9529cc8edfed09cfULL},
    {"forced_8_column-block_completely-parallel_scalar-CSR",
     0x61b0daa2a6ce1b5fULL, 0x0357fae1ecbfa0bbULL, 0x1b5157c7d58fb924ULL},
    {"forced_8_column-block_level-set_scalar-CSR",
     0x5181c56b1b60033eULL, 0xbcfde956f540cdb4ULL, 0x2f42df47dd3e277bULL},
    {"forced_8_column-block_sync-free_scalar-CSR",
     0x5776898a63570a02ULL, 0x0357fae1ecbfa0bbULL, 0x1b5157c7d58fb924ULL},
    {"forced_8_column-block_cusparse-like_scalar-CSR",
     0x45508f3e495581b7ULL, 0xbcfde956f540cdb4ULL, 0x2f42df47dd3e277bULL},
    {"forced_8_row-block_completely-parallel_scalar-CSR",
     0x90afdfc4cb798c9cULL, 0x0913b852393686ceULL, 0x2e07f893834164d9ULL},
    {"forced_8_row-block_level-set_scalar-CSR",
     0x8bfacfb312469183ULL, 0x6c9b73ed30817f92ULL, 0x49b8e6c059e7b2bdULL},
    {"forced_8_row-block_sync-free_scalar-CSR",
     0xe988ede099afb2fcULL, 0x0913b852393686ceULL, 0x2e07f893834164d9ULL},
    {"forced_8_row-block_cusparse-like_scalar-CSR",
     0xb9bb1936d61d81faULL, 0x6c9b73ed30817f92ULL, 0x49b8e6c059e7b2bdULL},
    {"forced_8_hbmc-block_completely-parallel_scalar-CSR",
     0xe36d899e243a8c90ULL, 0x40a68a8fb7c9ff48ULL, 0xb4a65f0519c519bfULL},
    {"forced_8_hbmc-block_level-set_scalar-CSR",
     0x79da72879ff81397ULL, 0x40a68a8fb7c9ff48ULL, 0xb4a65f0519c519bfULL},
    {"forced_8_hbmc-block_sync-free_scalar-CSR",
     0xc11b2e356f306f28ULL, 0x40a68a8fb7c9ff48ULL, 0xb4a65f0519c519bfULL},
    {"forced_8_hbmc-block_cusparse-like_scalar-CSR",
     0x2560f4b6ed3fa874ULL, 0x40a68a8fb7c9ff48ULL, 0xb4a65f0519c519bfULL},
    {"sweep_chain_hbmc-block",
     0xeed58ab5f4fa737dULL, 0xfdcc30df23748817ULL, 0x45132beaab213e93ULL},
    {"sweep_banded_column-block",
     0x0ece3ddbe60138e6ULL, 0x75253044a747106dULL, 0xe561f50910b0295aULL},
    {"sweep_grid3d_recursive-block",
     0xcbbab683fd9b0f34ULL, 0xe2ccb7b0174a4d56ULL, 0x8f862927d84157e4ULL},
    {"sweep_powerlaw_recursive-block",
     0xbddd5547e70a1fbbULL, 0x82487e06982066aeULL, 0x983b78e01e0b9755ULL},
    {"sweep_kkt_recursive-block",
     0x260421a6647a7d17ULL, 0x84ac8f67f57595bfULL, 0xbbc2b04b7c1fc0daULL},
    {"sweep_trace_recursive-block",
     0xc4e58b5255a2e336ULL, 0xe320ccff4a7cc8b4ULL, 0x6880b1f806782fa5ULL},
    {"sweep_rndlevels_deep_recursive-block",
     0xff7073b082ccd8ecULL, 0x4b25be5d2ca42b1dULL, 0x0a9037d12ab457f1ULL},
    {"refresh_recursive-block",
     0xfc82ed4acb13e3ebULL, 0x7172fd1d5b425493ULL, 0xb818c5bbdc150898ULL},
    {"refresh_column-block",
     0x0ece3ddbe60138e6ULL, 0x75253044a747106dULL, 0xe561f50910b0295aULL},
    {"refresh_row-block",
     0x1e9f4623cbd47908ULL, 0x75253044a747106dULL, 0xe561f50910b0295aULL},
    {"refresh_hbmc-block",
     0x4f1f27788b2171c6ULL, 0xce29801083680a6aULL, 0xdb9ba68c91597846ULL},
    {"refresh_unordered",
     0x18987f11d1b0085dULL, 0x71939bc327923a28ULL, 0x9fe62b2680f01c7fULL},
    // A tuned artifact records the level-merge width the cost model
    // measured on the host, so only its solve is pinned.
    {"refresh_tuned",
     0, 0x39087f833a05dd58ULL, 0x50c7e66591c9d24fULL},
    {"dup_recursive-block",
     0xa27b0f62235c3958ULL, 0xeef8e6dcf526a3edULL, 0x0b1551ef81bdb025ULL},
    {"dup_column-block",
     0x3277b6779fee8682ULL, 0xab9f46d969082d18ULL, 0xa9c2e341569f14abULL},
    {"dup_row-block",
     0x89857097170eaaa1ULL, 0x7e6ed51b8d3c5d43ULL, 0xaa3dba6245d38274ULL},
    {"dup_hbmc-block",
     0xc9107f3d45ab83cfULL, 0x53d5ceb0f6a1323bULL, 0x6dc8481856bcac45ULL},
};

template <class T>
void expect_known_answer(const BlockSolver<T>& cold, const std::string& bytes,
                         const std::string& tag) {
  for (const KnownAnswer& ka : kKnownAnswers) {
    if (tag != ka.tag) continue;
    const simd::ScopedPathOverride canonical(simd::Path::kBlockedScalar);
    const std::vector<T> b = gen::random_rhs<T>(cold.n(), 7);
    const std::vector<T> x = cold.solve(b);
    if (ka.bytes != 0) EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), ka.bytes);
    EXPECT_EQ(fnv1a(x.data(), x.size() * sizeof(T)), ka.solve);
    const SolveResult<T> res = cold.solve_checked(b);
    EXPECT_TRUE(res.ok()) << res.status.to_string();
    EXPECT_EQ(blocktri::testing::checked_fnv1a(res.x, {res.report}),
              ka.checked);
  }
}

/// The three warm paths onto a plan analyzed for L1 — create_from_file, a
/// PlanCache hit on the entry that load inserted, and refresh_values on the
/// live solver — each install L2's values and must equal a cold build of
/// L2 bitwise: every solve path (expect_equal_solvers) and the bytes
/// save_artifact writes. A tag listed in kKnownAnswers also pins the cold
/// build's bytes and solve.
template <class T>
void expect_warm_paths_match_cold(const Csr<T>& L1, const Csr<T>& L2,
                                  const typename BlockSolver<T>::Options& opt,
                                  const std::string& tag) {
  SCOPED_TRACE(tag);
  std::unique_ptr<BlockSolver<T>> live, cold;
  ASSERT_TRUE(BlockSolver<T>::create(L1, opt, &live).ok());
  ASSERT_TRUE(BlockSolver<T>::create(L2, opt, &cold).ok());
  const std::string path = artifact_path("warm_" + tag);
  ASSERT_TRUE(live->save_artifact(path).ok());

  PlanCache<T> cache;
  std::unique_ptr<BlockSolver<T>> loaded, hit;
  const Status st =
      BlockSolver<T>::create_from_file(path, L2, opt, &loaded, &cache);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.to_string();
  ASSERT_TRUE(BlockSolver<T>::create(L2, opt, &hit, &cache).ok());
  ASSERT_EQ(cache.stats().hits, 1u);
  ASSERT_TRUE(live->refresh_values(L2).ok());

  const std::string want = saved_bytes(*cold, tag);
  expect_known_answer(*cold, want, tag);
  for (const BlockSolver<T>* warm : {loaded.get(), hit.get(), live.get()}) {
    expect_equal_solvers(*cold, *warm, L2);
    EXPECT_EQ(saved_bytes(*warm, tag), want);
  }
}

template <class T>
void round_trip_scheme_threads(BlockScheme scheme, int threads,
                               const std::string& tag) {
  const Csr<T> L = fixture<T>(0);
  auto opt = small_block_options<T>(scheme);
  opt.threads = threads;
  expect_warm_paths_match_cold(L, new_values(L), opt, tag);
}

TEST(PersistRoundTrip, AllSchemesThreadsDouble) {
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (int threads : {1, 2, 4})
      round_trip_scheme_threads<double>(
          scheme, threads,
          "rt_d_" + to_string(scheme) + "_" + std::to_string(threads));
}

TEST(PersistRoundTrip, AllSchemesThreadsFloat) {
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (int threads : {1, 2, 4})
      round_trip_scheme_threads<float>(
          scheme, threads,
          "rt_f_" + to_string(scheme) + "_" + std::to_string(threads));
}

// --- Format version ----------------------------------------------------------
//
// An artifact is a cache: every file is stamped kArtifactFormatVersion (10),
// optional sections included, and every other version — the older layouts
// 1–9 among them — is a typed kVersionMismatch, which callers answer with a
// cold build.

TEST(PersistVersion, PlainArtifactStampsCurrentVersion) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("stamp_current");
  ASSERT_TRUE(s->save_artifact(path).ok());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  EXPECT_EQ(kArtifactFormatVersion, 10u);
  EXPECT_EQ(bytes[4], 10);  // little-endian u32 version after the magic
  EXPECT_EQ(bytes[5], 0);
  EXPECT_TRUE(blocktri::testing::ArtifactFramingHolds<double>(path));
  PlanArtifact<double> art;
  EXPECT_TRUE(load_artifact(path, &art).ok());
  EXPECT_TRUE(art.plan.color_bounds.empty());
  std::remove(path.c_str());
}

TEST(PersistVersion, OlderVersionsAreVersionMismatch) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("stamp_old");
  ASSERT_TRUE(s->save_artifact(path).ok());
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  for (char v = 1; v <= 9; ++v) {
    SCOPED_TRACE(static_cast<int>(v));
    bytes[4] = v;  // the header is not CRC-guarded: only the version moves
    write_file(path, bytes);
    PlanArtifact<double> art;
    EXPECT_EQ(load_artifact(path, &art).code(), StatusCode::kVersionMismatch);
    std::unique_ptr<BlockSolver<double>> warm;
    EXPECT_EQ(
        BlockSolver<double>::create_from_file(path, L, opt, &warm).code(),
        StatusCode::kVersionMismatch);
    EXPECT_EQ(warm, nullptr);
  }
  std::remove(path.c_str());
}

TEST(PersistVersion, HbmcArtifactCarriesColors) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>(BlockScheme::kHbmc);
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("stamp_hbmc");
  ASSERT_TRUE(s->save_artifact(path).ok());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  EXPECT_EQ(bytes[4], static_cast<char>(kArtifactFormatVersion));
  EXPECT_TRUE(blocktri::testing::ArtifactFramingHolds<double>(path));
  PlanArtifact<double> art;
  ASSERT_TRUE(load_artifact(path, &art).ok());
  EXPECT_EQ(art.plan.scheme, BlockScheme::kHbmc);
  EXPECT_EQ(art.plan.color_bounds, s->plan().color_bounds);
  EXPECT_EQ(art.plan.hbmc_block_rows, s->plan().hbmc_block_rows);
  std::remove(path.c_str());
}

TEST(PersistVersion, ColorSectionBitRotIsChecksumMismatch) {
  // The color section is written last, so the file's final payload bytes
  // belong to it; flipping one must surface as the section CRC, typed.
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>(BlockScheme::kHbmc);
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("color_bitrot");
  ASSERT_TRUE(s->save_artifact(path).ok());
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x20);
  write_file(path, bytes);
  PlanArtifact<double> art;
  const Status st = load_artifact(path, &art);
  EXPECT_EQ(st.code(), StatusCode::kChecksumMismatch);
  EXPECT_GE(st.location(), 0);
  std::remove(path.c_str());
}

// A plan captured at threads = 1 must replay when rehydrated at threads = 4
// — the fingerprint deliberately excludes the thread count, and the captured
// waves must equal the ones a threads = 4 cold build computes. Every solve
// path is bitwise deterministic at any thread count, so the threads = 4
// warm solver must match the threads = 1 capture source bitwise too.
TEST(PersistRoundTrip, ThreadCountCrossover) {
  const Csr<double> L = fixture<double>(1);
  auto opt1 = small_block_options<double>();
  opt1.threads = 1;
  std::unique_ptr<BlockSolver<double>> cold1;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt1, &cold1).ok());
  const std::string path = artifact_path("crossover");
  ASSERT_TRUE(cold1->save_artifact(path).ok());

  auto opt4 = opt1;
  opt4.threads = 4;
  std::unique_ptr<BlockSolver<double>> cold4, warm4;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt4, &cold4).ok());
  ASSERT_TRUE(
      BlockSolver<double>::create_from_file(path, L, opt4, &warm4).ok());
  EXPECT_EQ(warm4->threads(), 4);
  ASSERT_EQ(warm4->step_waves().size(), cold4->step_waves().size());
  expect_equal_solvers(*cold4, *warm4, L);
  // And both paths must agree bitwise with the serial capture source.
  const auto b = gen::random_rhs<double>(L.nrows, 3);
  EXPECT_EQ(cold1->solve_many(b, 1), warm4->solve_many(b, 1));
  EXPECT_EQ(cold1->solve(b), warm4->solve(b));
  std::remove(path.c_str());
}

/// Six wide levels: the recursive plan's level-ordered leaves are mostly
/// diagonal (so a forced diagonal kernel is real, not demoted to sync-free)
/// with empty squares between leaves of one level.
template <class T>
Csr<T> wide_levels() {
  return gen::convert_values<T>(gen::random_levels(1500, 6, 3.0, 1.0, 8));
}

// Every forced triangular kernel kind and square format, under every
// scheme, in both precisions, installs bitwise on all three warm paths.
template <class T>
void forced_kernel_sweep() {
  const Csr<T> L1 = wide_levels<T>();
  const Csr<T> L2 = new_values(L1);
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (TriKernelKind kind :
         {TriKernelKind::kCompletelyParallel, TriKernelKind::kLevelSet,
          TriKernelKind::kSyncFree, TriKernelKind::kCusparseLike})
      for (SpmvKernelKind square :
           {SpmvKernelKind::kScalarCsr, SpmvKernelKind::kVectorDcsr}) {
        auto opt = small_block_options<T>(scheme);
        opt.adaptive = false;
        opt.forced_tri = kind;
        opt.forced_square = square;
        expect_warm_paths_match_cold(
            L1, L2, opt,
            "forced_" + std::to_string(sizeof(T)) + "_" + to_string(scheme) +
                "_" + to_string(kind) + "_" + to_string(square));
      }
}

TEST(PersistRoundTrip, ForcedKernels) {
  forced_kernel_sweep<double>();
  forced_kernel_sweep<float>();

  // The sweep above is not vacuous: it holds real diagonal blocks and empty
  // squares.
  auto opt = small_block_options<double>();
  opt.adaptive = false;
  opt.forced_tri = TriKernelKind::kCompletelyParallel;
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(wide_levels<double>(), opt, &s).ok());
  EXPECT_TRUE(std::any_of(s->tri_info().begin(), s->tri_info().end(),
                          [](const auto& t) {
                            return t.kind == TriKernelKind::kCompletelyParallel;
                          }));
  EXPECT_TRUE(std::any_of(s->square_info().begin(), s->square_info().end(),
                          [](const auto& q) { return q.nnz == 0; }));
}

// DCSR squares, if any are selected, must survive too (forced).
TEST(PersistRoundTrip, ForcedDcsrSquares) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  opt.adaptive = false;
  opt.forced_square = SpmvKernelKind::kVectorDcsr;
  expect_warm_paths_match_cold(L, new_values(L), opt, "dcsr");
}

/// A lower-triangular matrix built from (row, column, value) triples.
Csr<double> from_triples(index_t n,
                         const std::vector<std::tuple<index_t, index_t,
                                                      double>>& entries) {
  Coo<double> coo;
  coo.nrows = coo.ncols = n;
  for (const auto& [r, c, v] : entries) {
    coo.row.push_back(r);
    coo.col.push_back(c);
    coo.val.push_back(v);
  }
  return coo_to_csr(coo);
}

// The full registry of structural families at the default options — empty
// squares on "diag", n = 1 on "single" — plus n = 0 and n = 2, under every
// scheme.
TEST(PersistRoundTrip, MatrixRegistrySweep) {
  std::vector<blocktri::testing::TestMatrix> mats = test_matrices();
  mats.push_back({"n0", [] { return from_triples(0, {}); }});
  mats.push_back({"n2", [] {
                    return from_triples(2, {{0, 0, 2.0}, {1, 0, -1.0},
                                            {1, 1, 3.0}});
                  }});
  for (const auto& tm : mats)
    for (BlockScheme scheme :
         {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
          BlockScheme::kHbmc}) {
      const Csr<double> L = tm.build();
      expect_warm_paths_match_cold(L, new_values(L),
                                   small_block_options<double>(scheme),
                                   "sweep_" + tm.name + "_" + to_string(scheme));
    }
}

// --- refresh_values --------------------------------------------------------

TEST(PersistRefresh, NewValuesMatchColdBuild) {
  const Csr<double> L1 = fixture<double>(1);
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    expect_warm_paths_match_cold(L1, new_values(L1),
                                 small_block_options<double>(scheme),
                                 "refresh_" + to_string(scheme));
  auto unordered = small_block_options<double>();
  unordered.planner.reorder = false;
  expect_warm_paths_match_cold(L1, new_values(L1), unordered,
                               "refresh_unordered");
  auto tuned = small_block_options<double>();
  tuned.tune.enabled = true;
  tuned.tune.sa_iterations = 8;
  expect_warm_paths_match_cold(L1, new_values(L1), tuned, "refresh_tuned");
}

// A row may hold one column twice (check_lower_triangular allows it). The
// cold build sorts each permuted row exactly as permute_symmetric does
// (std::sort, not a stable sort) and its value map records where each copy
// went, so the warm paths put the two copies in the cold build's order —
// here in permuted rows of ~75 entries, long enough that std::sort
// partitions instead of insertion-sorting and so does reorder equal
// columns.
TEST(PersistRefresh, DuplicateColumnInstallsLikeCold) {
  const Csr<double> base = gen::random_levels(1500, 24, 60.0, 1.0, 8);
  Csr<double> L;
  L.nrows = L.ncols = base.nrows;
  L.row_ptr.push_back(0);
  for (index_t i = 0; i < base.nrows; ++i) {
    const offset_t lo = base.row_ptr[static_cast<std::size_t>(i)];
    const offset_t hi = base.row_ptr[static_cast<std::size_t>(i) + 1];
    for (offset_t k = lo; k < hi; ++k) {
      L.col_idx.push_back(base.col_idx[static_cast<std::size_t>(k)]);
      L.val.push_back(base.val[static_cast<std::size_t>(k)]);
      if ((k - lo) % 4 == 1 && k + 1 < hi) {  // a second, different value
        L.col_idx.push_back(base.col_idx[static_cast<std::size_t>(k)]);
        L.val.push_back(-0.5 * base.val[static_cast<std::size_t>(k)]);
      }
    }
    L.row_ptr.push_back(static_cast<offset_t>(L.val.size()));
  }
  ASSERT_TRUE(check_lower_triangular(L).ok());
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    expect_warm_paths_match_cold(L, new_values(L),
                                 small_block_options<double>(scheme),
                                 "dup_" + to_string(scheme));
}

// create's contract lets a row hold its strictly lower entries in any
// order, the diagonal last. Every scheme must solve such rows exactly as
// their sorted copy: the build walk sorts an unsorted row even under an
// identity plan (column, row, recursive without reordering), and the warm
// paths install through the value map it records.
TEST(PersistRefresh, UnsortedRowsSolveLikeSorted) {
  const Csr<double> L = fixture<double>(2);
  Csr<double> reversed = L;  // strict entries of every row reversed
  bool unsorted = false;
  for (index_t i = 0; i < L.nrows; ++i) {
    const auto lo = reversed.col_idx.begin() + reversed.row_ptr[i];
    const auto hi = reversed.col_idx.begin() + reversed.row_ptr[i + 1] - 1;
    std::reverse(lo, hi);
    std::reverse(reversed.val.begin() + reversed.row_ptr[i],
                 reversed.val.begin() + reversed.row_ptr[i + 1] - 1);
    unsorted = unsorted || !std::is_sorted(lo, hi);
  }
  ASSERT_TRUE(unsorted);
  ASSERT_TRUE(check_lower_triangular(reversed).ok());
  for (const BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc})
    for (const bool reorder : {true, false}) {
      if (!reorder && scheme != BlockScheme::kRecursive) continue;
      const std::string tag = "unsorted_" + to_string(scheme) + "_" +
                              std::to_string(reorder);
      SCOPED_TRACE(tag);
      auto opt = small_block_options<double>(scheme);
      opt.planner.reorder = reorder;
      std::unique_ptr<BlockSolver<double>> sorted, shuffled;
      ASSERT_TRUE(BlockSolver<double>::create(L, opt, &sorted).ok());
      ASSERT_TRUE(BlockSolver<double>::create(reversed, opt, &shuffled).ok());
      expect_equal_solvers(*sorted, *shuffled, L);
      expect_warm_paths_match_cold(reversed, new_values(reversed), opt, tag);
    }
}

// The value map's entries are as wide as the longest input row needs: one
// byte up to 256 entries, two up to 65 536, four beyond. A pattern whose
// longest row takes each wider entry installs bitwise on every warm path
// under every scheme.

/// random_levels' rows with the last one replaced by a row of `wide`
/// entries, the diagonal last.
Csr<double> with_wide_last_row(index_t n, index_t wide) {
  const Csr<double> base = gen::random_levels(n, 24, 3.0, 1.0, 8);
  Csr<double> L = base;
  L.row_ptr.pop_back();
  L.col_idx.resize(static_cast<std::size_t>(L.row_ptr.back()));
  L.val.resize(L.col_idx.size());
  for (index_t c = n - wide; c < n; ++c) {
    L.col_idx.push_back(c);
    L.val.push_back(c + 1 < n ? 1.0 / static_cast<double>(wide) : 2.0);
  }
  L.row_ptr.push_back(static_cast<offset_t>(L.val.size()));
  return L;
}

TEST(PersistValueMap, WideRowsTakeWiderEntries) {
  const struct {
    index_t n, wide;
    std::uint32_t width;
  } cases[] = {{1500, 300, 2}, {70001, 70000, 4}};
  for (const auto& c : cases) {
    const Csr<double> L = with_wide_last_row(c.n, c.wide);
    ASSERT_TRUE(check_lower_triangular(L).ok());
    for (const BlockScheme scheme :
         {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
          BlockScheme::kHbmc}) {
      const std::string tag =
          "wide_" + std::to_string(c.wide) + "_" + to_string(scheme);
      SCOPED_TRACE(tag);
      const auto opt = small_block_options<double>(scheme);
      std::unique_ptr<BlockSolver<double>> s;
      ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
      const PlanArtifact<double> art = s->capture_artifact();
      EXPECT_EQ(art.value_map.width, c.width);
      EXPECT_EQ(art.value_map.size(), static_cast<std::size_t>(L.nnz()));
      expect_warm_paths_match_cold(L, new_values(L), opt, tag);
    }
  }
  // Up to 256 entries a row's positions fit one byte.
  for (const index_t wide : {256, 257}) {
    std::unique_ptr<BlockSolver<double>> s;
    ASSERT_TRUE(BlockSolver<double>::create(with_wide_last_row(1500, wide),
                                            small_block_options<double>(), &s)
                    .ok());
    EXPECT_EQ(s->capture_artifact().value_map.width, wide <= 256 ? 1u : 2u);
  }
}

TEST(PersistRefresh, RejectsDifferentStructure) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &solver).ok());

  EXPECT_EQ(solver->refresh_values(fixture<double>(1)).code(),
            StatusCode::kStructureMismatch);

  // Same shape and nnz count but one moved entry: hash must catch it.
  Csr<double> moved = L;
  for (std::size_t i = 0; i < moved.col_idx.size(); ++i) {
    const index_t row = [&] {
      index_t r = 0;
      while (moved.row_ptr[static_cast<std::size_t>(r) + 1] <=
             static_cast<offset_t>(i))
        ++r;
      return r;
    }();
    if (moved.col_idx[i] > 0 &&
        (i == 0 || moved.col_idx[i - 1] < moved.col_idx[i] - 1) &&
        moved.col_idx[i] < row) {
      --moved.col_idx[i];
      EXPECT_EQ(solver->refresh_values(moved).code(),
                StatusCode::kStructureMismatch);
      return;
    }
  }
  GTEST_SKIP() << "no movable off-diagonal entry found";
}

TEST(PersistRefresh, RefreshAfterFileLoadUsesNewValues) {
  const Csr<double> L1 = fixture<double>(0);
  Csr<double> L2 = L1;
  for (double& v : L2.val) v *= 2.0;

  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L1, opt, &cold).ok());
  const std::string path = artifact_path("refresh_file");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  // create_from_file installs L2's values even though the artifact holds
  // L1's — the artifact contributes the *analysis*, the caller the numbers.
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(
      BlockSolver<double>::create_from_file(path, L2, opt, &warm).ok());
  std::unique_ptr<BlockSolver<double>> cold2;
  ASSERT_TRUE(BlockSolver<double>::create(L2, opt, &cold2).ok());
  const auto b = gen::random_rhs<double>(L1.nrows, 9);
  EXPECT_EQ(cold2->solve(b), warm->solve(b));
  std::remove(path.c_str());
}

// --- Zero analysis on the warm paths ---------------------------------------

TEST(PersistWarmPath, LoadedSolverDoesZeroLevelAnalysis) {
  const Csr<double> L = fixture<double>(2);
  auto opt = small_block_options<double>();
  const std::uint64_t at_cold = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  // The cold build is counted, so the zero delta below is not vacuous.
  ASSERT_GT(level_analysis_count(), at_cold);
  const std::string path = artifact_path("zero_analysis");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  const std::uint64_t before = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 1);
  (void)warm->solve(b);
  EXPECT_EQ(level_analysis_count(), before);
  std::remove(path.c_str());
}

// Without a cache nobody else reads the artifact create_from_file loaded,
// so the solver takes its arrays by move instead of copying them. It must
// solve like a cached load and like a cold build of the new values, bitwise
// on every path, with no level analysis.
TEST(PersistWarmPath, CachelessLoadSolvesLikeCachedLoadAndColdBuild) {
  const Csr<double> L1 = fixture<double>(2);
  const Csr<double> L2 = new_values(L1);
  for (BlockScheme scheme :
       {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow,
        BlockScheme::kHbmc}) {
    SCOPED_TRACE(to_string(scheme));
    const auto opt = small_block_options<double>(scheme);
    std::unique_ptr<BlockSolver<double>> live, cold;
    ASSERT_TRUE(BlockSolver<double>::create(L1, opt, &live).ok());
    ASSERT_TRUE(BlockSolver<double>::create(L2, opt, &cold).ok());
    const std::string path = artifact_path("cacheless_" + to_string(scheme));
    ASSERT_TRUE(live->save_artifact(path).ok());

    const std::uint64_t before = level_analysis_count();
    std::unique_ptr<BlockSolver<double>> cacheless, cached;
    PlanCache<double> cache;
    ASSERT_TRUE(
        BlockSolver<double>::create_from_file(path, L2, opt, &cacheless).ok());
    ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L2, opt, &cached,
                                                      &cache)
                    .ok());
    std::remove(path.c_str());
    EXPECT_EQ(level_analysis_count(), before);
    ASSERT_EQ(cache.stats().entries, 1u);

    expect_equal_solvers(*cold, *cacheless, L2);
    expect_equal_solvers(*cached, *cacheless, L2);
    const std::string tag = "cacheless_" + to_string(scheme);
    EXPECT_EQ(saved_bytes(*cacheless, tag), saved_bytes(*cold, tag));
    EXPECT_EQ(level_analysis_count(), before);
  }
}

TEST(PersistWarmPath, CacheHitDoesZeroLevelAnalysis) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  PlanCache<double> cache;

  const std::uint64_t at_cold = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> first;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &first, &cache).ok());
  ASSERT_EQ(cache.stats().misses, 1u);
  // The cold build is counted, so the zero delta below is not vacuous.
  ASSERT_GT(level_analysis_count(), at_cold);

  const std::uint64_t before = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> second;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &second, &cache).ok());
  EXPECT_EQ(level_analysis_count(), before);  // the contract of the issue
  EXPECT_EQ(cache.stats().hits, 1u);

  const auto b = gen::random_rhs<double>(L.nrows, 2);
  EXPECT_EQ(first->solve(b), second->solve(b));
}

// --- PlanCache semantics ----------------------------------------------------

TEST(PlanCacheTest, HitMissEvictionCounters) {
  typename PlanCache<double>::Limits lim;
  lim.max_entries = 2;
  PlanCache<double> cache(lim);
  auto opt = small_block_options<double>();

  std::unique_ptr<BlockSolver<double>> s;
  for (int which : {0, 1, 0, 2, 1}) {  // 0,1 miss; 0 hit; 2 evicts 1; 1 miss
    ASSERT_TRUE(
        BlockSolver<double>::create(fixture<double>(which), opt, &s, &cache)
            .ok());
  }
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.inserts, 4u);
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_LE(st.entries, lim.max_entries);
}

TEST(PlanCacheTest, LruOrder) {
  typename PlanCache<double>::Limits lim;
  lim.max_entries = 2;
  PlanCache<double> cache(lim);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;

  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(1), opt, &s, &cache).ok());
  // Touch 0 so 1 becomes LRU, then insert 2: 1 must be the victim.
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(2), opt, &s, &cache).ok());

  const std::uint64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);  // 0 survived
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(1), opt, &s, &cache).ok());
  EXPECT_EQ(cache.stats().misses, 4u);  // 1 was evicted -> miss
}

TEST(PlanCacheTest, ByteCapBypassesOversizedArtifact) {
  typename PlanCache<double>::Limits lim;
  lim.max_bytes = 64;  // far below any real artifact
  PlanCache<double> cache(lim);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(0), opt, &s, &cache).ok());
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 0u);  // handed back uncached, cache never wedges
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.inserts, 0u);
}

TEST(PlanCacheTest, OptionsChangeIsADifferentKey) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());
  auto opt2 = opt;
  opt2.planner.stop_rows = 128;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt2, &s, &cache).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
  // threads, by contrast, shares the entry.
  auto opt3 = opt;
  opt3.threads = 4;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt3, &s, &cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheTest, SharedArtifactFirstWriterWins) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());

  const PlanCacheKey key{s->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  auto a1 = cache.find(key);
  ASSERT_NE(a1, nullptr);
  auto a2 = cache.find(key);
  EXPECT_EQ(a1.get(), a2.get());  // same immutable object, shared

  // Inserting a duplicate keeps the original.
  auto dup = std::make_shared<PlanArtifact<double>>(s->capture_artifact());
  auto kept = cache.insert(dup);
  EXPECT_EQ(kept.get(), a1.get());
  EXPECT_NE(kept.get(), dup.get());

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.find(key), nullptr);      // gone
  EXPECT_TRUE(equals(a1->plan, s->plan())); // outstanding refs stay valid
}

TEST(PlanCacheTest, OverwriteInsertReplacesEntry) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());
  const PlanCacheKey key{s->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  auto original = cache.find(key);
  ASSERT_NE(original, nullptr);

  auto replacement =
      std::make_shared<PlanArtifact<double>>(s->capture_artifact());
  auto kept = cache.insert(replacement);  // default: first writer wins
  EXPECT_EQ(kept.get(), original.get());

  kept = cache.insert(replacement, /*overwrite=*/true);
  EXPECT_EQ(kept.get(), replacement.get());
  EXPECT_EQ(cache.find(key).get(), replacement.get());
  EXPECT_EQ(cache.stats().entries, 1u);  // replaced in place, not duplicated
  EXPECT_TRUE(equals(original->plan, s->plan()));  // old refs stay valid
}

// The REVIEW-identified failure mode: a cached artifact under the right key
// whose contents fail the warm path (the hash-collision / corruption case)
// must be REPLACED by the cold rebuild, not kept — otherwise every future
// create() for that key pays the failed warm attempt plus a cold build
// forever.
TEST(PlanCacheTest, CreateReplacesEntryThatFailsWarmPath) {
  PlanCache<double> cache;
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());

  // Poison the cache: right key, contents that fail validation on the hit.
  auto bad = std::make_shared<PlanArtifact<double>>(s->capture_artifact());
  ASSERT_GE(bad->plan.n, 2);
  bad->plan.new_of_old[0] = bad->plan.new_of_old[1];
  cache.insert(bad);
  const PlanCacheKey key{s->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  ASSERT_EQ(cache.find(key).get(), bad.get());

  // The hit fails, create falls back to the cold build and still succeeds —
  // and the broken entry is replaced by the freshly captured artifact.
  std::unique_ptr<BlockSolver<double>> s2;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s2, &cache).ok());
  auto now = cache.find(key);
  ASSERT_NE(now, nullptr);
  EXPECT_NE(now.get(), bad.get());
  ASSERT_TRUE(validate_artifact(*now).ok());

  // A third create is a clean warm hit producing the reference solution.
  std::unique_ptr<BlockSolver<double>> s3;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s3, &cache).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 13);
  EXPECT_EQ(s->solve(b), s3->solve(b));
}

// Concurrent creates against one cache: must be data-race free (TSan lane)
// and every solver must produce the reference solution.
TEST(PlanCacheTest, ConcurrentCreateAndSolve) {
  PlanCache<double> cache;
  auto opt = small_block_options<double>();
  const int kThreads = 4, kIters = 6;

  std::vector<Csr<double>> mats = {fixture<double>(0), fixture<double>(1),
                                   fixture<double>(2)};
  std::vector<std::vector<double>> refs;
  std::vector<std::vector<double>> rhs;
  for (std::size_t m = 0; m < mats.size(); ++m) {
    rhs.push_back(gen::random_rhs<double>(mats[m].nrows, 21 + (int)m));
    std::unique_ptr<BlockSolver<double>> s;
    ASSERT_TRUE(BlockSolver<double>::create(mats[m], opt, &s).ok());
    refs.push_back(s->solve(rhs.back()));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::size_t m = static_cast<std::size_t>(t + it) % mats.size();
        std::unique_ptr<BlockSolver<double>> s;
        if (!BlockSolver<double>::create(mats[m], opt, &s, &cache).ok() ||
            s->solve(rhs[m]) != refs[m])
          failures.fetch_add(1);
      }
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_LE(st.entries, mats.size());
}

// An artifact can pass validate_artifact yet disagree with the caller's
// pattern: here one square column index moves to a free in-range slot. The
// install checks every write against the target's own indices, so the hit
// fails, create falls back to the cold build, and the entry is replaced.
TEST(PlanCacheTest, HitOnMisfitStructureFallsBackToColdBuild) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());

  auto bad = std::make_shared<PlanArtifact<double>>(cold->capture_artifact());
  bool moved = false;
  for (SquareBlockArtifact<double>& q : bad->squares) {
    std::vector<index_t>& col = q.rows.col_idx;
    const std::vector<offset_t>& ptr = q.rows.row_ptr;
    const index_t ncols = q.ref.c1 - q.ref.c0;
    if (col.empty()) continue;
    // The first stored row's first entry moves to a column that row lacks.
    const auto row_end = col.begin() + ptr[1];
    for (index_t c = 0; c < ncols && !moved; ++c)
      if (std::find(col.begin(), row_end, c) == row_end) {
        col[0] = c;
        moved = true;
      }
    if (moved) break;
  }
  ASSERT_TRUE(moved);
  ASSERT_TRUE(validate_artifact(*bad).ok());

  PlanCache<double> cache;
  cache.insert(bad);
  const PlanCacheKey key{cold->structure_hash(),
                         BlockSolver<double>::options_fingerprint(opt)};
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  auto now = cache.find(key);
  ASSERT_NE(now, nullptr);
  EXPECT_NE(now.get(), bad.get());
  expect_equal_solvers(*cold, *s, L);
}

// validate_artifact runs once per artifact: inside load_artifact for a file
// (a later hit on the inserted entry skips it), and on the first hit of an
// artifact a caller inserted (the entry remembers the verdict). A capture
// from a cold build on a miss is never validated.
TEST(PlanCacheTest, ValidatesEachArtifactOnce) {
  using persist_testing::validation_count;
  const Csr<double> L = fixture<double>(1);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold, s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = artifact_path("validate_once");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  PlanCache<double> loaded;
  std::uint64_t before = validation_count();
  ASSERT_TRUE(
      BlockSolver<double>::create_from_file(path, L, opt, &s, &loaded).ok());
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &loaded).ok());
  EXPECT_EQ(loaded.stats().hits, 1u);
  EXPECT_EQ(validation_count() - before, 1u);
  std::remove(path.c_str());

  PlanCache<double> inserted;
  inserted.insert(
      std::make_shared<PlanArtifact<double>>(cold->capture_artifact()));
  before = validation_count();
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &inserted).ok());
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &inserted).ok());
  EXPECT_EQ(inserted.stats().hits, 2u);
  EXPECT_EQ(validation_count() - before, 1u);

  PlanCache<double> captured;
  before = validation_count();
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &captured).ok());
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s, &captured).ok());
  EXPECT_EQ(captured.stats().hits, 1u);
  EXPECT_EQ(validation_count() - before, 0u);
}

// Four threads hit one caller-inserted, not yet validated entry at once:
// every create succeeds and every solve is bitwise the reference (TSan lane:
// the trust bookkeeping must be race free).
TEST(PlanCacheTest, ConcurrentHitsOnUnvalidatedEntry) {
  const Csr<double> L = fixture<double>(2);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 17);
  const std::vector<double> want = cold->solve(b);

  PlanCache<double> cache;
  cache.insert(
      std::make_shared<PlanArtifact<double>>(cold->capture_artifact()));
  const int kThreads = 4;
  std::atomic<int> ready{0}, failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::unique_ptr<BlockSolver<double>> s;
      if (!BlockSolver<double>::create(L, opt, &s, &cache).ok() ||
          s->solve(b) != want)
        failures.fetch_add(1);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(cache.stats().misses, 0u);
}

// --- Fault injection on the byte stream ------------------------------------

class PersistFault : public ::testing::Test {
 protected:
  void SetUp() override {
    L_ = fixture<double>(0);
    auto opt = small_block_options<double>();
    ASSERT_TRUE(BlockSolver<double>::create(L_, opt, &solver_).ok());
    // Unique per test: the suite runs under a parallel ctest.
    path_ = artifact_path(
        std::string("fault_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    ASSERT_TRUE(solver_->save_artifact(path_).ok());
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Status load_mutated(const std::string& bytes) {
    write_file(path_, bytes);
    PlanArtifact<double> art;
    return load_artifact(path_, &art);
  }

  Csr<double> L_;
  std::unique_ptr<BlockSolver<double>> solver_;
  std::string path_;
  std::string bytes_;
};

TEST_F(PersistFault, TruncationSweepNeverCrashes) {
  // Every header byte boundary, then a coarse sweep through the sections.
  std::vector<std::size_t> cuts;
  for (std::size_t c = 0; c < 64; ++c) cuts.push_back(c);
  for (std::size_t c = 64; c < bytes_.size(); c += bytes_.size() / 97 + 1)
    cuts.push_back(c);
  for (const std::size_t cut : cuts) {
    const Status st = load_mutated(bytes_.substr(0, cut));
    ASSERT_FALSE(st.ok()) << "cut at " << cut;
    EXPECT_EQ(st.code(), StatusCode::kTruncated) << "cut at " << cut;
    EXPECT_GE(st.location(), 0) << "cut at " << cut;  // byte offset reported
  }
}

TEST_F(PersistFault, TrailingBytesAreBadFormat) {
  // The last frame must end at EOF: anything appended after it is rejected
  // and located at the first extra byte, whatever the extra bytes hold.
  for (const std::size_t extra : {std::size_t{1}, std::size_t{22}}) {
    const Status st = load_mutated(bytes_ + std::string(extra, '\x5a'));
    EXPECT_EQ(st.code(), StatusCode::kBadFormat) << extra << " bytes";
    EXPECT_EQ(st.location(), static_cast<std::int64_t>(bytes_.size()))
        << extra << " bytes";
    EXPECT_NE(st.to_string().find("@ byte "), std::string::npos)
        << st.to_string();
  }
  const Status st = load_mutated(bytes_ + bytes_);
  EXPECT_EQ(st.code(), StatusCode::kBadFormat);
  EXPECT_EQ(st.location(), static_cast<std::int64_t>(bytes_.size()));
}

TEST_F(PersistFault, FlippedMagic) {
  std::string b = bytes_;
  b[0] = 'X';
  EXPECT_EQ(load_mutated(b).code(), StatusCode::kBadFormat);
}

TEST_F(PersistFault, FutureVersion) {
  std::string b = bytes_;
  // Version is the little-endian u32 right after the magic; anything past
  // the newest readable version must be rejected (versions up to
  // kArtifactFormatVersion are all legal).
  b[4] = static_cast<char>(kArtifactFormatVersion + 1);
  EXPECT_EQ(load_mutated(b).code(), StatusCode::kVersionMismatch);
}

TEST_F(PersistFault, ZeroVersion) {
  std::string b = bytes_;
  b[4] = 0;
  EXPECT_EQ(load_mutated(b).code(), StatusCode::kVersionMismatch);
}

TEST_F(PersistFault, WrongValueWidth) {
  // Loading a double artifact as float must fail typed, not misread.
  write_file(path_, bytes_);
  PlanArtifact<float> art;
  EXPECT_EQ(load_artifact(path_, &art).code(), StatusCode::kBadFormat);
}

TEST_F(PersistFault, CorruptedSectionPayload) {
  // Flip one byte well inside the first section payload: CRC32 must catch
  // it and name the section's byte offset.
  std::string b = bytes_;
  const std::size_t victim = 80;
  b[victim] = static_cast<char>(b[victim] ^ 0x40);
  const Status st = load_mutated(b);
  EXPECT_EQ(st.code(), StatusCode::kChecksumMismatch);
  EXPECT_GE(st.location(), 0);
}

TEST_F(PersistFault, CorruptionSweepAlwaysTyped) {
  // XOR a bit at every 131st byte: any of the typed rejections is fine,
  // silence or a crash is not.
  for (std::size_t pos = 0; pos < bytes_.size(); pos += 131) {
    std::string b = bytes_;
    b[pos] = static_cast<char>(b[pos] ^ 0x10);
    const Status st = load_mutated(b);
    if (st.ok()) {
      // Only acceptable for bytes the format does not interpret strictly
      // (e.g. a bit inside the header's structure hash makes a *different*,
      // still-wellformed artifact — create_from_file still rejects it).
      PlanArtifact<double> art;
      ASSERT_TRUE(load_artifact(path_, &art).ok());
      continue;
    }
    EXPECT_NE(st.code(), StatusCode::kInternal) << "byte " << pos;
  }
}

TEST_F(PersistFault, HeaderStructureHashTamperRejectedOnUse) {
  // The structure hash lives at bytes [16, 24). Tampering makes load
  // succeed (header is not CRC-guarded) but the solve-path entry point
  // rejects the artifact against the real matrix.
  std::string b = bytes_;
  b[16] = static_cast<char>(b[16] ^ 0x01);
  write_file(path_, b);
  std::unique_ptr<BlockSolver<double>> s;
  auto opt = small_block_options<double>();
  EXPECT_EQ(
      BlockSolver<double>::create_from_file(path_, L_, opt, &s).code(),
      StatusCode::kStructureMismatch);
}

TEST_F(PersistFault, StructureMismatchAgainstOtherMatrix) {
  std::unique_ptr<BlockSolver<double>> s;
  auto opt = small_block_options<double>();
  EXPECT_EQ(BlockSolver<double>::create_from_file(path_, fixture<double>(1),
                                                  opt, &s)
                .code(),
            StatusCode::kStructureMismatch);
}

TEST_F(PersistFault, OptionsMismatchTyped) {
  PlanArtifact<double> art;
  ASSERT_TRUE(load_artifact(path_, &art).ok());
  auto other = small_block_options<double>();
  other.planner.stop_rows = 32;
  std::unique_ptr<BlockSolver<double>> s;
  EXPECT_EQ(BlockSolver<double>::create_from_artifact(
                std::make_shared<PlanArtifact<double>>(std::move(art)), other,
                &s)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PersistFault, MissingFile) {
  PlanArtifact<double> art;
  EXPECT_EQ(load_artifact(::testing::TempDir() + "does_not_exist.btpa", &art)
                .code(),
            StatusCode::kBadFormat);
}

TEST_F(PersistFault, EmptyFile) {
  EXPECT_EQ(load_mutated("").code(), StatusCode::kTruncated);
}

TEST_F(PersistFault, ReadErrorIsIoErrorNotTruncated) {
  // fopen("rb") on a directory succeeds on Linux but the first fread fails
  // with EISDIR and sets ferror — the mid-stream I/O failure class that must
  // surface as kIoError (naming the path), not masquerade as a short file.
  PlanArtifact<double> art;
  const Status st = load_artifact(::testing::TempDir(), &art);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find(::testing::TempDir()), std::string::npos);
}

// --- Semantic corruption: CRC-valid but hostile contents --------------------
//
// The executors index with artifact contents unchecked (permute_vector
// writes out[new_of_old[i]], spmv writes y[row_ids[r]], kernels read
// x[col_idx[k]]), so validate_artifact must prove every stored index
// in-bounds and every invariant the kernels assume. Each test corrupts ONE
// field of a legitimately captured artifact and expects the typed kBadFormat
// rejection from both validate_artifact and the rehydration entry point —
// never a crash, never a silently wrong solver.

class PersistSemantic : public ::testing::Test {
 protected:
  PlanArtifact<double> capture(TriKernelKind tri, SpmvKernelKind sq) {
    L_ = fixture<double>(0);
    opt_ = small_block_options<double>();
    opt_.adaptive = false;
    opt_.forced_tri = tri;
    opt_.forced_square = sq;
    std::unique_ptr<BlockSolver<double>> s;
    EXPECT_TRUE(BlockSolver<double>::create(L_, opt_, &s).ok());
    return s->capture_artifact();
  }

  void expect_rejected(PlanArtifact<double> art, const char* why) {
    EXPECT_EQ(validate_artifact(art).code(), StatusCode::kBadFormat) << why;
    std::unique_ptr<BlockSolver<double>> s;
    EXPECT_EQ(BlockSolver<double>::create_from_artifact(
                  std::make_shared<PlanArtifact<double>>(std::move(art)),
                  opt_, &s)
                  .code(),
              StatusCode::kBadFormat)
        << why;
  }

  PlanArtifact<double> capture_hbmc() {
    // The banded fixture keeps several colors after aggregation (grid2d
    // collapses to one via the W-doubling fallback), so the interior-bound
    // corruptions below have bounds to corrupt.
    L_ = fixture<double>(1);
    opt_ = small_block_options<double>(BlockScheme::kHbmc);
    std::unique_ptr<BlockSolver<double>> s;
    EXPECT_TRUE(BlockSolver<double>::create(L_, opt_, &s).ok());
    return s->capture_artifact();
  }

  Csr<double> L_;
  BlockSolver<double>::Options opt_;
};

TEST_F(PersistSemantic, NonBijectivePermutation) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_GE(art.plan.n, 2);
  art.plan.new_of_old[0] = art.plan.new_of_old[1];  // duplicate target
  expect_rejected(std::move(art), "duplicate permutation target");
}

TEST_F(PersistSemantic, PermutationTargetOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_GE(art.plan.n, 1);
  art.plan.new_of_old[0] = art.plan.n;  // permute_vector would write out[n]
  expect_rejected(std::move(art), "permutation target out of range");
}

TEST_F(PersistSemantic, NormNotFiniteOrNegative) {
  // The residual check divides by ‖L‖∞·‖x‖∞ + ‖b‖∞.
  for (const double norm : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
    art.norm_inf = norm;
    expect_rejected(std::move(art), "matrix norm not finite or negative");
  }
}

TEST_F(PersistSemantic, SquareCsrColumnOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  for (auto& b : art.squares) {
    if (b.rows.col_idx.empty()) continue;
    b.rows.col_idx[0] = b.rows.ncols;  // kernels would read x[ncols]
    expect_rejected(std::move(art), "square CSR column out of range");
    return;
  }
  GTEST_SKIP() << "fixture produced no non-empty CSR square";
}

TEST_F(PersistSemantic, DcsrRowIdOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kVectorDcsr);
  for (auto& b : art.squares) {
    if (b.rows.row_ids.empty()) continue;
    b.rows.row_ids[0] = b.rows.nrows;  // spmv would write y[nrows]
    expect_rejected(std::move(art), "DCSR row id out of range");
    return;
  }
  GTEST_SKIP() << "fixture produced no non-empty DCSR square";
}

// Since format 8 a square of every kind lists its rows (row ids, pointers,
// columns, values), grouped by 256-row window. The threaded SpMV, the value
// install and the residual index with those ids: each must lie inside the
// square, appear once, and the windows must not go backwards.

TEST_F(PersistSemantic, SquareRowIdOutOfRange) {
  for (const index_t delta : {0, -1}) {
    auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
    bool corrupted = false;
    for (auto& b : art.squares) {
      if (b.rows.row_ids.empty()) continue;
      // Past the square's last row, or before its first.
      b.rows.row_ids.back() = delta == 0 ? b.rows.nrows : -1;
      corrupted = true;
      break;
    }
    ASSERT_TRUE(corrupted) << "fixture produced no non-empty square";
    expect_rejected(std::move(art), "square row id out of range");
  }
}

TEST_F(PersistSemantic, SquareListsARowTwice) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  for (auto& b : art.squares) {
    std::vector<index_t>& ids = b.rows.row_ids;
    for (std::size_t p = 0; p + 1 < ids.size(); ++p) {
      const index_t w0 = (b.ref.r0 + ids[p]) / kSquareWindowRows;
      if ((b.ref.r0 + ids[p + 1]) / kSquareWindowRows != w0) continue;
      ids[p + 1] = ids[p];  // two listed rows writing one y entry
      expect_rejected(std::move(art), "square row listed twice");
      return;
    }
  }
  GTEST_SKIP() << "fixture produced no square with two rows in one window";
}

TEST_F(PersistSemantic, LevelItemOutOfRange) {
  auto art = capture(TriKernelKind::kLevelSet, SpmvKernelKind::kScalarCsr);
  for (auto& b : art.tri) {
    if (b.kind != TriKernelKind::kLevelSet || b.levels.level_item.empty())
      continue;
    b.levels.level_item[0] = b.r1 - b.r0;  // solver reads rows[len]
    expect_rejected(std::move(art), "level item out of range");
    return;
  }
  GTEST_SKIP() << "fixture produced no level-set block";
}

// Alg. 3's in-degree of a row is its strict entries, all left of the
// diagonal. A sync-free row that reads a later row, or lacks its trailing
// diagonal, must be rejected before it could read an unsolved x entry or
// its division read the wrong pivot.
TEST_F(PersistSemantic, SyncFreeInDegreeMismatch) {
  const auto art =
      capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  for (std::size_t t = 0; t < art.tri.size(); ++t) {
    const TriBlockArtifact<double>& b = art.tri[t];
    if (b.kind != TriKernelKind::kSyncFree || b.r1 - b.r0 < 2) continue;
    const Csr<double>& rows = b.kernel_csr;
    const index_t last = rows.nrows - 1;
    // A strict entry of some row before the last points at the next row.
    for (index_t i = 0; i < last; ++i) {
      if (rows.row_nnz(i) < 2) continue;
      auto above = art;
      above.tri[t].kernel_csr.col_idx[static_cast<std::size_t>(
          rows.row_ptr[static_cast<std::size_t>(i)])] = i + 1;
      expect_rejected(std::move(above), "sync-free entry above the diagonal");
      // The last row's diagonal is replaced by an entry left of it.
      auto no_diag = art;
      no_diag.tri[t].kernel_csr.col_idx[static_cast<std::size_t>(
          rows.row_ptr[static_cast<std::size_t>(last) + 1] - 1)] = last - 1;
      expect_rejected(std::move(no_diag), "sync-free row lacks its diagonal");
      return;
    }
  }
  GTEST_SKIP() << "fixture produced no sync-free block with a strict entry";
}

TEST_F(PersistSemantic, GarbageStepKind) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_FALSE(art.plan.steps.empty());
  art.plan.steps[0].kind = static_cast<ExecStep::Kind>(7);
  expect_rejected(std::move(art), "execution step kind out of range");
}

TEST_F(PersistSemantic, StepIndexOutOfRange) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_FALSE(art.plan.steps.empty());
  art.plan.steps[0].index = index_t{1} << 20;
  expect_rejected(std::move(art), "execution step index out of range");
}

TEST_F(PersistSemantic, GarbageSquareKernelKind) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  if (art.squares.empty()) GTEST_SKIP() << "fixture produced no squares";
  art.squares[0].kind = static_cast<SpmvKernelKind>(99);
  expect_rejected(std::move(art), "square kernel kind out of range");
}

TEST_F(PersistSemantic, GarbageScheme) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  art.plan.scheme = static_cast<BlockScheme>(42);
  expect_rejected(std::move(art), "block scheme out of range");
}

// One-field-at-a-time corruption of the color record (format v4). The color
// bounds drive the executor's wave schedule, so every invariant
// validate_artifact promises about them is exercised here the same way the
// kernel-facing fields are above.

TEST_F(PersistSemantic, ColorBoundsMissingOnHbmcPlan) {
  auto art = capture_hbmc();
  ASSERT_EQ(art.plan.scheme, BlockScheme::kHbmc);
  art.plan.color_bounds.clear();
  expect_rejected(std::move(art), "hbmc plan without color bounds");
}

TEST_F(PersistSemantic, ColorBoundsOnNonHbmcScheme) {
  auto art = capture_hbmc();
  art.plan.scheme = BlockScheme::kRecursive;  // bounds now claim the wrong scheme
  expect_rejected(std::move(art), "color bounds on a non-hbmc scheme");
}

TEST_F(PersistSemantic, NonPositiveColorBlockSize) {
  auto art = capture_hbmc();
  art.plan.hbmc_block_rows = 0;
  expect_rejected(std::move(art), "non-positive aggregation block size");
}

TEST_F(PersistSemantic, ColorBoundsDoNotStartAtZero) {
  auto art = capture_hbmc();
  ASSERT_GE(art.plan.color_bounds.size(), 2u);
  art.plan.color_bounds.front() = 1;
  expect_rejected(std::move(art), "color bounds do not start at row 0");
}

TEST_F(PersistSemantic, ColorBoundsDoNotEndAtN) {
  auto art = capture_hbmc();
  ASSERT_GE(art.plan.color_bounds.size(), 2u);
  art.plan.color_bounds.back() = art.plan.n - 1;
  expect_rejected(std::move(art), "color bounds do not end at n");
}

TEST_F(PersistSemantic, NonAscendingColorBounds) {
  // Equal adjacent bounds (an empty color) are tolerated like empty tri
  // leaves; a genuinely DESCENDING pair is not. Jump the first interior
  // bound to n — still on the leaf grid, so only ordering can reject it.
  auto art = capture_hbmc();
  if (art.plan.color_bounds.size() < 4)
    GTEST_SKIP() << "fixture aggregated to fewer than three colors";
  art.plan.color_bounds[1] = art.plan.n;
  expect_rejected(std::move(art), "non-ascending color bounds");
}

TEST_F(PersistSemantic, ColorBoundOffTheLeafGrid) {
  // A color boundary that does not land on a triangular leaf bound would
  // split a tri block across two sync colors — the executor has no step for
  // that. Nudge an interior bound to a row that is NOT a leaf bound.
  auto art = capture_hbmc();
  const auto& tb = art.plan.tri_bounds;
  auto& cb = art.plan.color_bounds;
  for (std::size_t i = 1; i + 1 < cb.size(); ++i) {
    const index_t v = cb[i] + 1;
    if (v >= cb[i + 1]) continue;  // must stay strictly ascending
    if (std::find(tb.begin(), tb.end(), v) != tb.end()) continue;
    cb[i] = v;
    expect_rejected(std::move(art), "color bound off the tri leaf grid");
    return;
  }
  GTEST_SKIP() << "every candidate nudge lands on a leaf bound";
}

TEST_F(PersistSemantic, SquareRowsOutOfWindowOrder) {
  for (const SpmvKernelKind kind :
       {SpmvKernelKind::kScalarCsr, SpmvKernelKind::kVectorDcsr}) {
    SCOPED_TRACE(to_string(kind));
    auto art = capture(TriKernelKind::kSyncFree, kind);
    bool corrupted = false;
    for (auto& b : art.squares) {
      std::vector<index_t>& ids = b.rows.row_ids;
      if (ids.size() < 2) continue;
      const auto window = [&](index_t id) {
        return (b.ref.r0 + id) / kSquareWindowRows;
      };
      if (window(ids.front()) == window(ids.back())) continue;
      // The install and the residual find a window's rows in one run.
      std::swap(ids.front(), ids.back());
      corrupted = true;
      break;
    }
    ASSERT_TRUE(corrupted) << "fixture produced no square over two windows";
    expect_rejected(std::move(art), "square rows out of window order");
  }
}

// The value map (format 7) says where each held value comes from. One of
// the wrong length, or of a width other than 1, 2 or 4, is malformed. An
// entry past its caller row, or two slots routed to one input entry, passes
// validation — only the caller's rows refute it — but every install
// refuses it as kStructureMismatch, and a cache hit on it builds cold.

TEST_F(PersistSemantic, ValueMapOfTheWrongShape) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_EQ(art.value_map.width, 1u);
  auto short_map = art;
  short_map.value_map.bytes.pop_back();
  expect_rejected(std::move(short_map), "value map one entry short");
  auto long_map = art;
  long_map.value_map.bytes.push_back(0);
  expect_rejected(std::move(long_map), "value map one entry long");
  auto wide = art;
  wide.value_map.width = 3;
  expect_rejected(std::move(wide), "value map entry width 3");
  art.value_map = ValueMap{};
  expect_rejected(std::move(art), "whole plan without a value map");
}

/// The map of permuted row `ni`: its first entry's index in `art`'s map
/// and the caller row's length.
std::pair<std::size_t, offset_t> map_row(const PlanArtifact<double>& art,
                                         const Csr<double>& L, index_t ni) {
  std::size_t first = 0;
  offset_t len = 0;
  for (index_t r = 0; r <= ni; ++r) {
    const auto oi = static_cast<index_t>(
        std::find(art.plan.new_of_old.begin(), art.plan.new_of_old.end(), r) -
        art.plan.new_of_old.begin());
    first += static_cast<std::size_t>(len);
    len = L.row_nnz(oi);
  }
  return {first, len};
}

class PersistValueMapInstall : public PersistSemantic {
 protected:
  /// `art` passes validate_artifact, yet every install of L_'s values
  /// through it is a typed kStructureMismatch: refresh_values on a solver
  /// that adopted it, create_from_file on it saved, and a PlanCache hit on
  /// it, which builds cold instead and replaces the entry.
  void expect_install_refused(const PlanArtifact<double>& art,
                              const char* why) {
    SCOPED_TRACE(why);
    ASSERT_TRUE(validate_artifact(art).ok());
    const auto shared = std::make_shared<PlanArtifact<double>>(art);
    std::unique_ptr<BlockSolver<double>> s;
    ASSERT_TRUE(
        BlockSolver<double>::create_from_artifact(shared, opt_, &s).ok());
    EXPECT_EQ(s->refresh_values(L_).code(), StatusCode::kStructureMismatch);

    const std::string path = artifact_path(
        std::string("badmap_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    ASSERT_TRUE(save_artifact(path, art).ok());
    std::unique_ptr<BlockSolver<double>> loaded;
    EXPECT_EQ(
        BlockSolver<double>::create_from_file(path, L_, opt_, &loaded).code(),
        StatusCode::kStructureMismatch);
    EXPECT_EQ(loaded, nullptr);
    std::remove(path.c_str());

    PlanCache<double> cache;
    cache.insert(shared);
    std::unique_ptr<BlockSolver<double>> hit, cold;
    ASSERT_TRUE(BlockSolver<double>::create(L_, opt_, &hit, &cache).ok());
    EXPECT_EQ(cache.stats().hits, 1u);
    const auto now = cache.find(PlanCacheKey{art.structure, art.options});
    ASSERT_NE(now, nullptr);
    EXPECT_NE(now.get(), shared.get());
    ASSERT_TRUE(BlockSolver<double>::create(L_, opt_, &cold).ok());
    expect_equal_solvers(*cold, *hit, L_);
  }
};

TEST_F(PersistValueMapInstall, EntryPastItsRow) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  const auto [first, len] = map_row(art, L_, art.plan.n - 1);
  ASSERT_EQ(art.value_map.width, 1u);
  art.value_map.bytes[first] = static_cast<std::uint8_t>(len);
  expect_install_refused(art, "map entry one past its row");
}

TEST_F(PersistValueMapInstall, TwoSlotsRoutedToOneEntry) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  index_t ni = 0;
  while (map_row(art, L_, ni).second < 2) ++ni;
  const std::size_t first = map_row(art, L_, ni).first;
  art.value_map.bytes[first + 1] = art.value_map.bytes[first];
  expect_install_refused(art, "two slots, one entry");

  // Row 2 holds column 0 twice: both slots hold that column, so only the
  // once-per-entry rule can refuse the second slot reading the first's
  // entry.
  L_.nrows = L_.ncols = 3;
  L_.row_ptr = {0, 1, 2, 6};
  L_.col_idx = {0, 1, 0, 0, 1, 2};
  L_.val = {2.0, 3.0, 1.0, -0.5, 1.0, 4.0};
  opt_ = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L_, opt_, &s).ok());
  PlanArtifact<double> dup = s->capture_artifact();
  const auto [row2, len2] = map_row(dup, L_, dup.plan.new_of_old[2]);
  ASSERT_EQ(len2, 4);
  std::uint8_t* e = dup.value_map.bytes.data() + row2;
  ASSERT_EQ(L_.col_idx[2 + e[0]], 0);
  ASSERT_EQ(L_.col_idx[2 + e[1]], 0);
  e[1] = e[0];
  expect_install_refused(dup, "two slots of one column, one entry");
}

TEST_F(PersistValueMapInstall, SlotsSwappedAcrossColumns) {
  // Each of two slots names the other's entry: inside the row, taken once,
  // but in a column the slot does not hold.
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  index_t ni = 0;
  while (map_row(art, L_, ni).second < 2) ++ni;
  const std::size_t first = map_row(art, L_, ni).first;
  std::swap(art.value_map.bytes[first], art.value_map.bytes[first + 1]);
  expect_install_refused(art, "slots swapped across columns");
}

TEST_F(PersistSemantic, SaveRefusesCorruptArtifact) {
  auto art = capture(TriKernelKind::kSyncFree, SpmvKernelKind::kScalarCsr);
  ASSERT_GE(art.plan.n, 2);
  art.plan.new_of_old[0] = art.plan.new_of_old[1];
  const std::string path = artifact_path("refuse_corrupt");
  EXPECT_EQ(save_artifact(path, art).code(), StatusCode::kBadFormat);
  std::ifstream is(path, std::ios::binary);
  EXPECT_FALSE(is.good());  // nothing written
}

// --- Misc ------------------------------------------------------------------

TEST(PersistMisc, StructureHashDiscriminatesAndIsStable) {
  const Csr<double> a = fixture<double>(0);
  const Csr<double> b = fixture<double>(1);
  EXPECT_EQ(structure_hash(a), structure_hash(a));
  EXPECT_NE(structure_hash(a), structure_hash(b));
  Csr<double> scaled = a;
  for (double& v : scaled.val) v *= 3.0;
  EXPECT_EQ(structure_hash(a), structure_hash(scaled));  // values don't count
}

// structure_hash is the artifact/cache key: a changed bit turns every saved
// artifact into kStructureMismatch. It must equal the one-value-at-a-time
// reference on every width an index can have, including negative
// (all-ones high bits) dimensions.
TEST(PersistMisc, StructureHashMatchesReference) {
  using blocktri::testing::reference_structure_hash;
  const std::vector<offset_t> edges = {
      0, 1, 255, 256, (offset_t{1} << 24) - 1, offset_t{1} << 24,
      (offset_t{1} << 32) - 1, offset_t{1} << 32, offset_t{1} << 62};
  for (const offset_t v : edges) {
    const std::vector<offset_t> ptr = {v};
    const std::vector<index_t> col = {
        static_cast<index_t>(std::min<offset_t>(v, 0x7fffffff))};
    EXPECT_EQ(structure_hash(3, 3, ptr, col),
              reference_structure_hash(3, 3, ptr, col))
        << v;
  }
  EXPECT_EQ(structure_hash(-1, 0x7fffffff, edges, {}),
            reference_structure_hash(-1, 0x7fffffff, edges, {}));

  // Seeded sweep over every width: a random value with a random number of
  // significant bits, in both arrays.
  Rng rng(0x6861736855ULL);
  std::vector<offset_t> ptr;
  std::vector<index_t> col;
  for (int i = 0; i < 4096; ++i) {
    const int bits = static_cast<int>(rng.next_u64() % 63) + 1;
    ptr.push_back(static_cast<offset_t>(rng.next_u64() >> (64 - bits)));
    col.push_back(
        static_cast<index_t>(rng.next_u64() >> (64 - std::min(bits, 31))));
  }
  EXPECT_EQ(structure_hash(4096, 4096, ptr, col),
            reference_structure_hash(4096, 4096, ptr, col));
  const Csr<double> L = fixture<double>(2);
  EXPECT_EQ(structure_hash(L),
            reference_structure_hash(L.nrows, L.ncols, L.row_ptr, L.col_idx));
}

// Known answers recorded from the reference: keys of artifacts already on
// disk must never move.
TEST(PersistMisc, StructureHashKnownAnswers) {
  EXPECT_EQ(structure_hash(fixture<double>(0)), 0xde662550b44c3b7dULL);
  EXPECT_EQ(structure_hash(fixture<double>(1)), 0x9d22e9bee98fdc82ULL);
}

// Patterns one small edit apart hash apart, through structure_hash and the
// checked pass alike: two adjacent columns of a row swapped (they sit on
// different lanes), one entry moved into the next row, a row pointer
// shifted at equal nnz, and every size from 0 to 5, where the values are
// fewer than or about as many as the lanes.
TEST(PersistMisc, StructureHashSeparatesNearbyPatterns) {
  const auto checked_hash = [](const Csr<double>& a) {
    std::uint64_t h = 0;
    EXPECT_TRUE(check_lower_triangular(a, &h).ok());
    EXPECT_EQ(h, structure_hash(a));
    return h;
  };
  // Rows 0..5 of a lower triangle, each ending in its diagonal:
  // {0}, {0,1}, {0,1,2}, {1,3}, {0,2,3,4}, {4,5}.
  Csr<double> base;
  base.nrows = base.ncols = 6;
  base.row_ptr = {0, 1, 3, 6, 8, 12, 14};
  base.col_idx = {0, 0, 1, 0, 1, 2, 1, 3, 0, 2, 3, 4, 4, 5};
  base.val.assign(base.col_idx.size(), 1.0);
  const std::uint64_t h0 = checked_hash(base);

  Csr<double> swapped = base;  // row 4's strict columns 0 and 2 trade places
  std::swap(swapped.col_idx[8], swapped.col_idx[9]);
  EXPECT_NE(checked_hash(swapped), h0);

  Csr<double> moved = base;  // row 2's column 0 moves into row 3
  moved.row_ptr[3] = 5;
  moved.col_idx = {0, 0, 1, 1, 2, 0, 1, 3, 0, 2, 3, 4, 4, 5};
  EXPECT_NE(checked_hash(moved), h0);

  // One row pointer one further at equal nnz, over the same columns.
  std::vector<offset_t> shifted = base.row_ptr;
  shifted[4] = 9;
  EXPECT_NE(structure_hash(6, 6, shifted, base.col_idx), h0);

  std::vector<std::uint64_t> by_size;
  for (index_t n = 0; n <= 5; ++n) {
    const Csr<double> eye = gen::diagonal(n, 1);
    ASSERT_EQ(eye.nnz(), n);
    by_size.push_back(checked_hash(eye));
  }
  // Fewer values than lanes: only the count tells these apart.
  by_size.push_back(structure_hash(0, 0, {}, {}));
  by_size.push_back(structure_hash(0, 0, {0, 0}, {}));
  std::sort(by_size.begin(), by_size.end());
  EXPECT_EQ(std::adjacent_find(by_size.begin(), by_size.end()), by_size.end());
}

TEST(PersistMisc, ArtifactBytesTracksContent) {
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> small, big;
  ASSERT_TRUE(BlockSolver<double>::create(fixture<double>(0), opt, &small)
                  .ok());
  ASSERT_TRUE(
      BlockSolver<double>::create(fixture<double>(2), opt, &big).ok());
  const auto sb = artifact_bytes(small->capture_artifact());
  const auto bb = artifact_bytes(big->capture_artifact());
  EXPECT_GT(sb, 0u);
  EXPECT_GT(bb, sb);  // rndlevels(1500, nnz~3/row) outweighs grid2d(1000)
}

TEST(PersistMisc, SaveIsAtomicNoTmpLeftBehind) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  const std::string path = artifact_path("atomic");
  ASSERT_TRUE(s->save_artifact(path).ok());
  EXPECT_TRUE(leftover_side_files(path).empty());
  std::remove(path.c_str());
}

TEST(PersistMisc, FailedRenameRemovesTheSideFile) {
  // A directory at the target path makes the final rename fail after the
  // side file was written in full; the save is typed and cleans up.
  const Csr<double> L = fixture<double>(0);
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(
      BlockSolver<double>::create(L, small_block_options<double>(), &s).ok());
  const std::string path = artifact_path("rename_onto_dir");
  std::filesystem::create_directory(path);
  EXPECT_EQ(s->save_artifact(path).code(), StatusCode::kBadFormat);
  EXPECT_TRUE(leftover_side_files(path).empty());
  std::filesystem::remove(path);
}

// Concurrent writers to one path: each save uses its own side file, so all
// succeed, a reader never sees a torn file, and the path ends up holding
// one writer's complete artifact with no side file left over.
TEST(PersistConcurrency, SavesToOnePathAllSucceedAndPublishWholeFiles) {
  std::unique_ptr<BlockSolver<double>> sa, sb;
  ASSERT_TRUE(BlockSolver<double>::create(fixture<double>(0),
                                          small_block_options<double>(), &sa)
                  .ok());
  ASSERT_TRUE(BlockSolver<double>::create(fixture<double>(2),
                                          small_block_options<double>(), &sb)
                  .ok());
  const PlanArtifact<double> art_a = sa->capture_artifact();
  const PlanArtifact<double> art_b = sb->capture_artifact();
  const std::string pa = artifact_path("concurrent_a");
  const std::string pb = artifact_path("concurrent_b");
  ASSERT_TRUE(save_artifact(pa, art_a).ok());
  ASSERT_TRUE(save_artifact(pb, art_b).ok());
  const std::string want_a = read_file(pa), want_b = read_file(pb);
  ASSERT_NE(want_a, want_b);

  const std::string path = artifact_path("concurrent");
  ASSERT_TRUE(save_artifact(path, art_a).ok());  // exists before any load
  constexpr int kWriters = 4, kRounds = 40;
  std::atomic<int> failed_saves{0}, failed_loads{0};
  std::atomic<bool> writing{true};
  std::thread reader([&] {
    while (writing.load()) {
      PlanArtifact<double> got;
      if (!load_artifact(path, &got).ok()) ++failed_loads;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&, t] {
      const PlanArtifact<double>& art = t % 2 == 0 ? art_a : art_b;
      for (int r = 0; r < kRounds; ++r)
        if (!save_artifact(path, art).ok()) ++failed_saves;
    });
  for (std::thread& w : writers) w.join();
  writing = false;
  reader.join();

  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_EQ(failed_loads.load(), 0);
  const std::string published = read_file(path);
  EXPECT_TRUE(published == want_a || published == want_b);
  PlanArtifact<double> got;
  EXPECT_TRUE(load_artifact(path, &got).ok());
  EXPECT_TRUE(leftover_side_files(path).empty());
  for (const std::string& p : {path, pa, pb}) std::remove(p.c_str());
}

TEST(PersistMisc, SaveToUnwritablePathIsTyped) {
  const Csr<double> L = fixture<double>(0);
  auto opt = small_block_options<double>();
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());
  EXPECT_EQ(s->save_artifact("/nonexistent_dir_xyz/a.btpa").code(),
            StatusCode::kBadFormat);
}

}  // namespace
}  // namespace blocktri
