// Autotuner tests.
//
// Contracts under test:
//   * the calibration microbench produces a valid model, exactly once per
//     device (in-process cache), as a pure function of the device (two
//     calibrations save the same bytes), round-trippable through the .btcm
//     codec with every defect class mapped to a typed Status;
//   * Options::tune off => plans byte-for-byte identical to the untuned
//     build (artifact files compare equal);
//   * tuned solvers solve correctly and are never slower than the default
//     adaptive plan under the exact simulator the search minimises;
//   * tuning is paid once: a tuned artifact reloaded via create_from_file or
//     a PlanCache hit performs zero re-tuning and zero level re-analysis;
//   * the satellite fixes: exact DCSR byte accounting in collect_stats, and
//     the level-merge width changing execution grouping but never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/levels.hpp"
#include "common/io.hpp"
#include "core/solver.hpp"
#include "gen/generators.hpp"
#include "helpers.hpp"
#include "persist/artifact.hpp"
#include "persist/plan_cache.hpp"
#include "sptrsv/triangle.hpp"
#include "tune/cost_model.hpp"
#include "tune/search.hpp"

namespace blocktri {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "blocktri_tune_" + name;
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

template <class T>
typename BlockSolver<T>::Options tuned_options(index_t stop_rows = 64) {
  typename BlockSolver<T>::Options opt;
  opt.planner.stop_rows = stop_rows;
  opt.tune.enabled = true;
  opt.tune.gpu = sim::titan_rtx();
  opt.tune.sa_iterations = 8;
  return opt;
}

// The shared in-process model: first use calibrates, everything after hits
// the cache, so the whole binary pays for one calibration.
const tune::CostModel& model() {
  return tune::ensure_cost_model(sim::titan_rtx());
}

// --- Cost model -------------------------------------------------------------

TEST(CostModel, CalibrationProducesValidModel) {
  const tune::CostModel& m = model();
  EXPECT_TRUE(m.valid);
  EXPECT_EQ(m.device, tune::device_fingerprint(sim::titan_rtx()));
  // Cost curves predict positive times that grow with work.
  const double small =
      m.predict_tri(TriKernelKind::kSyncFree, 1000, 5000, 100);
  const double large =
      m.predict_tri(TriKernelKind::kSyncFree, 100000, 500000, 100);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
  EXPECT_GT(m.predict_square(SpmvKernelKind::kScalarCsr, 1000, 8000), 0.0);
}

TEST(CostModel, EnsureCalibratesOncePerDevice) {
  (void)model();  // may or may not be the first use in this binary
  const std::uint64_t before = tune::calibration_run_count();
  const tune::CostModel& a = tune::ensure_cost_model(sim::titan_rtx());
  const tune::CostModel& b = tune::ensure_cost_model(sim::titan_rtx());
  EXPECT_EQ(&a, &b);  // cached reference, not a refit
  EXPECT_EQ(tune::calibration_run_count(), before);
}

TEST(CostModel, FileRoundTrip) {
  const std::string path = tmp_path("model.btcm");
  ASSERT_TRUE(tune::save_cost_model(path, model()).ok());
  tune::CostModel loaded;
  ASSERT_TRUE(tune::load_cost_model(path, &loaded).ok());
  EXPECT_EQ(loaded.device, model().device);
  EXPECT_EQ(loaded.valid, model().valid);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(loaded.tri[k].per_nnz_ns, model().tri[k].per_nnz_ns);
    EXPECT_EQ(loaded.sq[k].per_row_ns, model().sq[k].per_row_ns);
  }
  std::remove(path.c_str());
}

// Calibration reads the model only, so two runs save the same file.
TEST(CostModel, CalibrationsSaveIdenticalFiles) {
  const std::string a = tmp_path("first.btcm");
  const std::string b = tmp_path("second.btcm");
  ASSERT_TRUE(
      tune::save_cost_model(a, tune::calibrate_cost_model(sim::titan_rtx()))
          .ok());
  ASSERT_TRUE(
      tune::save_cost_model(b, tune::calibrate_cost_model(sim::titan_rtx()))
          .ok());
  EXPECT_EQ(read_file(a), read_file(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// A file of an earlier model version (here: the saved file with its version
// field rewritten and its CRC refreshed) fails as kVersionMismatch, so
// ensure_cost_model recalibrates.
TEST(CostModel, OlderVersionFileIsVersionMismatch) {
  const std::string path = tmp_path("old.btcm");
  ASSERT_TRUE(tune::save_cost_model(path, model()).ok());
  std::string bytes = read_file(path);
  // magic(4) | crc(4) | payload size(8) | payload: version(4) first.
  constexpr std::size_t kPayload = 16;
  const std::uint32_t old_version = tune::kCostModelVersion - 1;
  std::memcpy(bytes.data() + kPayload, &old_version, sizeof old_version);
  const std::uint32_t crc =
      io::crc32(bytes.data() + kPayload, bytes.size() - kPayload);
  std::memcpy(bytes.data() + 4, &crc, sizeof crc);
  write_file(path, bytes);
  tune::CostModel out;
  EXPECT_EQ(tune::load_cost_model(path, &out).code(),
            StatusCode::kVersionMismatch);
  std::remove(path.c_str());
}

TEST(CostModel, FileDefectsMapToTypedStatus) {
  const std::string path = tmp_path("defect.btcm");
  ASSERT_TRUE(tune::save_cost_model(path, model()).ok());
  const std::string good = read_file(path);
  tune::CostModel out;

  std::string bad = good;
  bad[0] = 'X';  // magic
  write_file(path, bad);
  EXPECT_EQ(tune::load_cost_model(path, &out).code(),
            StatusCode::kBadFormat);

  bad = good;
  bad[bad.size() - 3] ^= 0x40;  // payload bit rot
  write_file(path, bad);
  EXPECT_EQ(tune::load_cost_model(path, &out).code(),
            StatusCode::kChecksumMismatch);

  write_file(path, good.substr(0, good.size() / 2));  // mid-payload EOF
  EXPECT_EQ(tune::load_cost_model(path, &out).code(), StatusCode::kTruncated);

  write_file(path, good.substr(0, 6));  // mid-header EOF
  EXPECT_EQ(tune::load_cost_model(path, &out).code(), StatusCode::kTruncated);

  std::remove(path.c_str());
  EXPECT_EQ(tune::load_cost_model(path, &out).code(), StatusCode::kIoError);
}

// --- Tuned solves -----------------------------------------------------------

TEST(TunedSolve, MatchesUntunedSolution) {
  const Csr<double> L = gen::random_levels(4000, 80, 4.0, 1.0, 8);
  const auto b = gen::random_rhs<double>(L.nrows, 3);

  std::unique_ptr<BlockSolver<double>> plain, tuned;
  typename BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 64;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &plain).ok());
  ASSERT_TRUE(BlockSolver<double>::create(L, tuned_options<double>(), &tuned)
                  .ok());
  EXPECT_TRUE(tuned->tuned());

  const auto xa = plain->solve(b);
  const auto xb = tuned->solve(b);
  ASSERT_EQ(xa.size(), xb.size());
  double scale = 0.0;
  for (double v : xa) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < xa.size(); ++i)
    EXPECT_NEAR(xa[i], xb[i], 1e-10 * scale) << "row " << i;
}

TEST(TunedSolve, NeverSlowerThanDefaultUnderSim) {
  // The search minimises exactly this measurement (warm simulated solve),
  // and the default plan is always in the candidate set, so tuned must win
  // or tie on every matrix.
  const sim::GpuSpec gpu = sim::titan_rtx();
  const Csr<double> mats[] = {
      gen::grid2d(60, 50, 5),
      gen::random_levels(5000, 100, 4.0, 1.0, 8),
      gen::chain_banded(4000, 8, 1.0, 11),
  };
  for (const Csr<double>& L : mats) {
    const auto b = gen::random_rhs<double>(L.nrows, 7);
    typename BlockSolver<double>::Options opt;
    opt.planner.stop_rows = 64;
    std::unique_ptr<BlockSolver<double>> plain, tuned;
    ASSERT_TRUE(BlockSolver<double>::create(L, opt, &plain).ok());
    auto topt = tuned_options<double>();
    topt.tune.gpu = gpu;
    ASSERT_TRUE(BlockSolver<double>::create(L, topt, &tuned).ok());

    const auto measure = [&](const BlockSolver<double>& s) {
      sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                            gpu.cache_assoc);
      sim::SolveReport warm, rep;
      s.solve_simulated(b, gpu, &cache, &warm);
      s.solve_simulated(b, gpu, &cache, &rep);
      return rep.ns;
    };
    const double def = measure(*plain);
    const double tun = measure(*tuned);
    EXPECT_LE(tun, def * 1.0001) << "n=" << L.nrows;
  }
}

// --- Tune off: byte-for-byte unchanged --------------------------------------

TEST(TuneOff, PlansAndArtifactsBitwiseIdentical) {
  const Csr<double> L = gen::grid2d(50, 40, 5);
  typename BlockSolver<double>::Options a, b;
  a.planner.stop_rows = 64;
  b.planner.stop_rows = 64;
  // Tune stays disabled but its sub-fields differ: none of them may leak
  // into the fingerprint or the plan.
  b.tune.sa_iterations = 999;
  b.tune.seed = 0xdeadbeefULL;

  std::unique_ptr<BlockSolver<double>> sa, sb;
  ASSERT_TRUE(BlockSolver<double>::create(L, a, &sa).ok());
  ASSERT_TRUE(BlockSolver<double>::create(L, b, &sb).ok());
  EXPECT_FALSE(sa->tuned());
  EXPECT_EQ(sa->level_merge_width(), kLevelMergeMaxWidth);

  const std::string pa = tmp_path("off_a.btpa");
  const std::string pb = tmp_path("off_b.btpa");
  ASSERT_TRUE(sa->save_artifact(pa).ok());
  ASSERT_TRUE(sb->save_artifact(pb).ok());
  const std::string fa = read_file(pa), fb = read_file(pb);
  EXPECT_EQ(fa, fb);
  // Every artifact is stamped with the one format version.
  ASSERT_GT(fa.size(), 8u);
  EXPECT_EQ(fa[4], 10);
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

// --- Persistence: tuning is paid once ---------------------------------------

TEST(TunePersist, TunedArtifactRoundTripsWithZeroRetuning) {
  const Csr<double> L = gen::random_levels(4000, 80, 4.0, 1.0, 8);
  const auto opt = tuned_options<double>();
  const std::uint64_t at_cold = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  ASSERT_TRUE(cold->tuned());
  // The cold build is counted, so the zero delta below is not vacuous.
  ASSERT_GT(level_analysis_count(), at_cold);

  const std::string path = tmp_path("tuned.btpa");
  ASSERT_TRUE(cold->save_artifact(path).ok());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);
  EXPECT_EQ(bytes[4], 10);  // the one format version, tuning section or not
  EXPECT_TRUE(blocktri::testing::ArtifactFramingHolds<double>(path));

  const std::uint64_t tunes = tune::tuning_run_count();
  const std::uint64_t analyses = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  const auto b = gen::random_rhs<double>(L.nrows, 5);
  const auto xw = warm->solve(b);
  EXPECT_EQ(tune::tuning_run_count(), tunes);      // zero re-tuning
  EXPECT_EQ(level_analysis_count(), analyses);     // zero re-analysis
  EXPECT_TRUE(warm->tuned());
  EXPECT_EQ(warm->level_merge_width(), cold->level_merge_width());
  EXPECT_EQ(xw, cold->solve(b));  // bitwise-identical rehydration
  std::remove(path.c_str());
}

TEST(TunePersist, PlanCacheHitDoesZeroRetuning) {
  const Csr<double> L = gen::grid2d(50, 40, 5);
  const auto opt = tuned_options<double>();
  PlanCache<double> cache;
  const std::uint64_t at_cold = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> first;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &first, &cache).ok());
  // The cold build is counted, so the zero delta below is not vacuous.
  ASSERT_GT(level_analysis_count(), at_cold);

  const std::uint64_t tunes = tune::tuning_run_count();
  const std::uint64_t analyses = level_analysis_count();
  std::unique_ptr<BlockSolver<double>> second;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &second, &cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(tune::tuning_run_count(), tunes);
  EXPECT_EQ(level_analysis_count(), analyses);
  EXPECT_TRUE(second->tuned());

  const auto b = gen::random_rhs<double>(L.nrows, 2);
  EXPECT_EQ(first->solve(b), second->solve(b));
}

TEST(TunePersist, FingerprintMismatchForcesColdRebuild) {
  const Csr<double> L = gen::grid2d(50, 40, 5);
  const auto opt = tuned_options<double>();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = tmp_path("mismatch.btpa");
  ASSERT_TRUE(cold->save_artifact(path).ok());

  // Same artifact, different tuning-relevant options: rejected with a typed
  // status so the caller knows to rebuild cold rather than silently reusing
  // a plan tuned under other assumptions.
  std::unique_ptr<BlockSolver<double>> warm;
  auto other_seed = opt;
  other_seed.tune.seed = 1234;
  EXPECT_EQ(
      BlockSolver<double>::create_from_file(path, L, other_seed, &warm).code(),
      StatusCode::kInvalidArgument);

  auto tune_off = opt;
  tune_off.tune.enabled = false;
  EXPECT_EQ(
      BlockSolver<double>::create_from_file(path, L, tune_off, &warm).code(),
      StatusCode::kInvalidArgument);

  // The exact options still load.
  EXPECT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  std::remove(path.c_str());
}

TEST(TunePersist, UntunedArtifactLoadsWithTuningDefaults) {
  // An untuned artifact is a version-8 file with no tuning section. It must
  // rehydrate with tuning defaults.
  const Csr<double> L = gen::grid2d(50, 40, 5);
  typename BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 64;
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &cold).ok());
  const std::string path = tmp_path("untuned.btpa");
  ASSERT_TRUE(cold->save_artifact(path).ok());
  EXPECT_EQ(read_file(path)[4], 10);

  std::unique_ptr<BlockSolver<double>> warm;
  ASSERT_TRUE(BlockSolver<double>::create_from_file(path, L, opt, &warm).ok());
  EXPECT_FALSE(warm->tuned());
  EXPECT_EQ(warm->level_merge_width(), kLevelMergeMaxWidth);
  const auto b = gen::random_rhs<double>(L.nrows, 4);
  EXPECT_EQ(warm->solve(b), cold->solve(b));
  std::remove(path.c_str());
}

// --- Satellite: exact DCSR byte accounting ----------------------------------

TEST(CollectStats, DcsrSquareBytesCountRowIndirection) {
  // Hand-built 8x8 lower-triangular: two diagonal-only 4-row triangles and
  // one square block [4,8)x[0,4) with rows {4,6} non-empty (3 nnz). With
  // stop_rows=4 the recursive planner splits exactly at 4, and both tri
  // blocks are level-1, so the level-set reordering is the identity — the
  // block geometry below is exact.
  Csr<double> L;
  L.nrows = L.ncols = 8;
  L.row_ptr = {0, 1, 2, 3, 4, 7, 8, 10, 11};
  L.col_idx = {0, 1, 2, 3, 0, 1, 4, 5, 2, 6, 7};
  L.val = {2, 2, 2, 2, 0.5, 0.5, 2, 2, 0.5, 2, 2};

  typename BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 4;
  opt.adaptive = false;
  opt.forced_tri = TriKernelKind::kSyncFree;
  opt.forced_square = SpmvKernelKind::kScalarDcsr;
  opt.collect_stats = true;
  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, opt, &s).ok());

  const auto b = gen::random_rhs<double>(8, 1);
  const auto res = s->solve_checked(b);
  ASSERT_TRUE(res.ok());

  // flops: 2 per nonzero, across both triangles (4+4 nnz) and the square (3).
  EXPECT_EQ(res.report.flops, 2 * 11);

  // bytes, from the accounting model: per nnz an (index, value) pair; per
  // iterated row a row_ptr entry plus an x read and a y write. The DCSR
  // square iterates only its 2 stored rows and additionally streams one
  // row id (index_t) per stored row — the satellite-2 fix under test.
  const std::int64_t idx_val =
      static_cast<std::int64_t>(sizeof(index_t) + sizeof(double));
  const std::int64_t row_over =
      static_cast<std::int64_t>(sizeof(offset_t) + 2 * sizeof(double));
  const std::int64_t tri_bytes = 2 * (4 * idx_val + 4 * row_over);
  const std::int64_t sq_bytes =
      3 * idx_val +
      2 * (row_over + static_cast<std::int64_t>(sizeof(index_t)));
  EXPECT_EQ(res.report.bytes, tri_bytes + sq_bytes);
}

// --- Satellite: level-merge width changes grouping, never results -----------

TEST(MergeWidth, ExecGroupsShrinkWithWidthResultsBitwise) {
  // Level widths [1,1,1,20,1,1,1]: a 3-chain, a 20-wide fan, a 3-chain.
  Csr<double> L;
  L.nrows = L.ncols = 26;
  L.row_ptr.push_back(0);
  const auto row = [&](std::vector<index_t> cols) {
    for (index_t c : cols) {
      L.col_idx.push_back(c);
      L.val.push_back(c == static_cast<index_t>(L.row_ptr.size()) - 1 ? 2.0
                                                                      : 0.5);
    }
    L.row_ptr.push_back(static_cast<offset_t>(L.col_idx.size()));
  };
  row({0});
  row({0, 1});
  row({1, 2});
  for (index_t r = 3; r < 23; ++r) row({2, r});  // the width-20 level
  row({3, 23});
  row({23, 24});
  row({24, 25});

  const auto b = gen::random_rhs<double>(26, 6);
  std::vector<double> x0(26), x16(26), x20(26);
  const auto kind = TriKernelKind::kLevelSet;
  TriSolver<double> s0(kind, L, nullptr, 0);    // width < 1: merging off
  TriSolver<double> s16(kind, L, nullptr, 16);  // wide level breaks the run
  TriSolver<double> s20(kind, L, nullptr, 20);  // everything merges
  EXPECT_EQ(s0.exec_groups(), 7);
  EXPECT_EQ(s16.exec_groups(), 3);
  EXPECT_EQ(s20.exec_groups(), 1);
  // The groups shape the level schedule, which runs on a pool.
  ThreadPool pool(2);
  s0.solve(b.data(), x0.data(), 1, 1, &pool);
  s16.solve(b.data(), x16.data(), 1, 1, &pool);
  s20.solve(b.data(), x20.data(), 1, 1, &pool);
  EXPECT_EQ(x0, x16);
  EXPECT_EQ(x16, x20);
}

}  // namespace
}  // namespace blocktri
