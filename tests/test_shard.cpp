// Tests of the sharded multi-process solve (ISSUE 9). The headline contract
// is bitwise invisibility: a solve distributed over P worker processes
// returns byte-identical vectors to the single-process solve_many, for every
// blocking scheme, shard count and panel width. The failure contracts matter
// just as much: a SIGKILLed or hung worker is a *typed* kWorkerLost (never a
// hang), the shm segment can never leak (unlinked at creation), dead workers
// are reaped (no zombies) and respawned warm (zero level-set re-analysis),
// and the in-process fallback turns a lost epoch into a correct answer.
//
// Runs in the CI stress lane (ASan/UBSan/TSan) alongside test_resilience and
// test_service; the shm epoch protocol must be TSan-clean.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blocktri.hpp"
#include "common/io.hpp"
#include "helpers.hpp"
#include "shard/control.hpp"
#include "shard/shm.hpp"

namespace blocktri {
namespace {

using shard::CoordinatorStats;
using shard::ShardCoordinator;

using Opt = BlockSolver<double>::Options;

Csr<double> fixture() { return gen::grid2d(40, 25, 5); }  // n = 1000

template <class T = double>
typename BlockSolver<T>::Options base_options(
    BlockScheme scheme = BlockScheme::kRecursive) {
  typename BlockSolver<T>::Options opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = 64;
  opt.planner.nseg = 4;
  opt.threads = 1;
  return opt;
}

template <class T>
std::vector<T> make_panel(index_t n, index_t k, unsigned seed) {
  Rng rng(seed);
  std::vector<T> B(static_cast<std::size_t>(n) * k);
  for (auto& v : B) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  return B;
}

template <class T>
bool BitwiseEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// True when the (unlinked) segment name still resolves under /dev/shm —
/// the leak the create-then-unlink discipline makes impossible.
bool shm_name_visible(const std::string& name) {
  std::string path = "/dev/shm" + name;  // name starts with '/'
  return ::access(path.c_str(), F_OK) == 0;
}

/// Builds a base solver + coordinator pair. `mutate` tweaks the shard
/// options before the pool is forked.
template <class T>
void make_pool(const Csr<double>& lower_d,
               typename BlockSolver<T>::Options opt, int processes,
               std::unique_ptr<BlockSolver<T>>* solver,
               std::unique_ptr<ShardCoordinator<T>>* coord) {
  Csr<T> lower;
  if constexpr (std::is_same_v<T, double>) {
    lower = lower_d;
  } else {
    lower.nrows = lower_d.nrows;
    lower.ncols = lower_d.ncols;
    lower.row_ptr = lower_d.row_ptr;
    lower.col_idx = lower_d.col_idx;
    lower.val.assign(lower_d.val.begin(), lower_d.val.end());
  }
  opt.shard.processes = processes;
  ASSERT_TRUE(BlockSolver<T>::create(lower, opt, solver).ok());
  Status st = ShardCoordinator<T>::create(**solver, opt, coord);
  ASSERT_TRUE(st.ok()) << st.to_string();
}

// --- Shard planning ---------------------------------------------------------

TEST(ShardPlan, CutsSnapToTriBoundsAndCoverTheMatrix) {
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  const PlanArtifact<double> art = solver->capture_artifact();
  for (int p : {1, 2, 4, 7}) {
    const std::vector<index_t> bounds = shard::compute_shard_cuts(art, p);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_LE(static_cast<int>(bounds.size()) - 1, p);
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), art.plan.n);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
      // Every cut lands on a triangular leaf boundary: no leaf is split.
      EXPECT_TRUE(std::find(art.plan.tri_bounds.begin(),
                            art.plan.tri_bounds.end(),
                            bounds[i]) != art.plan.tri_bounds.end())
          << "cut " << bounds[i] << " not at a tri bound";
    }
  }
}

TEST(ShardPlan, ShardCountClampsToLeafCount) {
  // One leaf: every requested shard count collapses to a single shard.
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(gen::dense_lower(5, 0.8, 15),
                                          base_options(), &solver)
                  .ok());
  const PlanArtifact<double> art = solver->capture_artifact();
  const std::vector<index_t> bounds = shard::compute_shard_cuts(art, 8);
  EXPECT_EQ(bounds.size(), 2u);
}

TEST(ShardPlan, SliceValidatesAndRoundTripsAsFormatV3) {
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  const PlanArtifact<double> art = solver->capture_artifact();
  const std::vector<index_t> bounds = shard::compute_shard_cuts(art, 3);
  const int count = static_cast<int>(bounds.size()) - 1;
  ASSERT_GE(count, 2);

  const std::string path = ::testing::TempDir() + "shard_slice_rt.btpa";
  for (int i = 0; i < count; ++i) {
    PlanArtifact<double> slice =
        shard::slice_shard_artifact(art, bounds, i, art.options);
    EXPECT_TRUE(slice.shard);
    EXPECT_EQ(slice.norm_inf, art.norm_inf);
    EXPECT_EQ(slice.value_map.width, 0u);  // a slice installs nothing
    EXPECT_TRUE(slice.value_map.bytes.empty());
    Status st = validate_artifact(slice);
    ASSERT_TRUE(st.ok()) << "shard " << i << ": " << st.to_string();

    ASSERT_TRUE(save_artifact(path, slice).ok());
    EXPECT_EQ(blocktri::testing::read_file_bytes(path)[4], 8);
    EXPECT_TRUE(blocktri::testing::ArtifactFramingHolds<double>(path))
        << "shard " << i;
    PlanArtifact<double> loaded;
    ASSERT_TRUE(load_artifact(path, &loaded).ok());
    EXPECT_TRUE(loaded.shard);
    EXPECT_EQ(loaded.shard_index, static_cast<std::uint32_t>(i));
    EXPECT_EQ(loaded.shard_row_begin, bounds[static_cast<std::size_t>(i)]);
    EXPECT_EQ(loaded.shard_row_end, bounds[static_cast<std::size_t>(i) + 1]);
    ASSERT_TRUE(validate_artifact(loaded).ok());
  }
  ::unlink(path.c_str());
}

TEST(ShardPlan, HbmcSliceCarriesColorBoundsThroughFormatV4) {
  // The color record rides the shared plan into every slice: a sharded HBMC
  // slice file stamps format 4 and rehydrates with the color bounds intact,
  // and the shard cuts themselves land on HBMC block bounds (all of which
  // are tri_bounds).
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(),
                                          base_options(BlockScheme::kHbmc),
                                          &solver)
                  .ok());
  const PlanArtifact<double> art = solver->capture_artifact();
  ASSERT_FALSE(art.plan.color_bounds.empty());
  const std::vector<index_t> bounds = shard::compute_shard_cuts(art, 3);
  ASSERT_GE(bounds.size(), 3u);

  const std::string path = ::testing::TempDir() + "shard_slice_hbmc.btpa";
  for (int i = 0; i + 1 < static_cast<int>(bounds.size()); ++i) {
    PlanArtifact<double> slice =
        shard::slice_shard_artifact(art, bounds, i, art.options);
    ASSERT_TRUE(validate_artifact(slice).ok()) << "shard " << i;
    ASSERT_TRUE(save_artifact(path, slice).ok());
    PlanArtifact<double> loaded;
    ASSERT_TRUE(load_artifact(path, &loaded).ok());
    EXPECT_EQ(loaded.plan.scheme, BlockScheme::kHbmc);
    EXPECT_EQ(loaded.plan.color_bounds, art.plan.color_bounds);
    EXPECT_EQ(loaded.plan.hbmc_block_rows, art.plan.hbmc_block_rows);
  }
  ::unlink(path.c_str());
}

// Slices keep the global 256-row windows (kSquareWindowRows), so a cut at a
// leaf bound inside a window slices a square by filtering the listed rows
// it keeps. The slices' steps, run in plan order on one shared panel as the
// workers run them, must give the single-process panel bitwise.
TEST(ShardPlan, SliceCutInsideAWindowSolvesLikeOneShard) {
  const Csr<double> L = gen::random_levels(2000, 30, 3.0, 1.0, 8);
  int schemes_cut = 0;
  for (const BlockScheme scheme :
       {BlockScheme::kColumn, BlockScheme::kRow, BlockScheme::kRecursive,
        BlockScheme::kHbmc}) {
    SCOPED_TRACE(to_string(scheme));
    const Opt opt = base_options(scheme);
    std::unique_ptr<BlockSolver<double>> solver;
    ASSERT_TRUE(BlockSolver<double>::create(L, opt, &solver).ok());
    const PlanArtifact<double> art = solver->capture_artifact();

    // A leaf bound off the window grid that splits a square's run of rows
    // in that bound's window.
    index_t cut = -1;
    for (const index_t tb : art.plan.tri_bounds) {
      if (tb % kSquareWindowRows == 0) continue;
      for (const SquareBlockArtifact<double>& q : art.squares) {
        if (q.ref.r0 >= tb || tb >= q.ref.r1) continue;
        bool below = false, above = false;
        for (const index_t id : q.rows.row_ids) {
          const index_t row = q.ref.r0 + id;
          if (row / kSquareWindowRows != tb / kSquareWindowRows) continue;
          (row < tb ? below : above) = true;
        }
        if (below && above) cut = tb;
      }
      if (cut >= 0) break;
    }
    if (cut < 0) continue;
    ++schemes_cut;

    const std::vector<index_t> bounds = {0, cut, art.plan.n};
    std::vector<PlanArtifact<double>> slices;
    std::vector<std::unique_ptr<BlockSolver<double>>> workers;
    for (int s = 0; s < 2; ++s) {
      slices.push_back(
          shard::slice_shard_artifact(art, bounds, s, art.options));
      const Status st = validate_artifact(slices.back());
      ASSERT_TRUE(st.ok()) << st.to_string();
      std::unique_ptr<BlockSolver<double>> w;
      ASSERT_TRUE(BlockSolver<double>::create_from_artifact(
                      std::make_shared<PlanArtifact<double>>(slices.back()),
                      opt, &w)
                      .ok());
      workers.push_back(std::move(w));
    }

    const index_t n = solver->n();
    const auto nu = static_cast<std::size_t>(n);
    const std::vector<index_t>& new_of_old = art.plan.new_of_old;
    for (const index_t k : {index_t{1}, index_t{16}}) {
      const auto ku = static_cast<std::size_t>(k);
      const std::vector<double> B = make_panel<double>(n, k, 91 + k);
      std::vector<double> want(B.size());
      ASSERT_TRUE(
          solver->solve_many(B.data(), want.data(), k, SolveControls{}).ok());
      // The permuted row-interleaved panels the workers share.
      std::vector<double> bw(B.size()), xw(B.size()), got(B.size());
      for (std::size_t i = 0; i < nu; ++i)
        for (std::size_t c = 0; c < ku; ++c)
          bw[static_cast<std::size_t>(new_of_old[i]) * ku + c] =
              B[c * nu + i];
      for (const ExecStep& step : art.plan.steps)
        for (int s = 0; s < 2; ++s) {
          const auto idx = static_cast<std::size_t>(step.index);
          const bool mine = step.kind == ExecStep::Kind::kTri
                                ? slices[s].tri[idx].populated
                                : slices[s].squares[idx].populated;
          if (mine)
            workers[s]->exec_plan_step_many(step, bw.data(), xw.data(), k,
                                            nullptr);
        }
      for (std::size_t i = 0; i < nu; ++i)
        for (std::size_t c = 0; c < ku; ++c)
          got[c * nu + i] =
              xw[static_cast<std::size_t>(new_of_old[i]) * ku + c];
      EXPECT_TRUE(BitwiseEqual(got, want)) << "cut " << cut << " k=" << k;
    }
  }
  EXPECT_GT(schemes_cut, 0) << "no scheme has a leaf bound inside a window";
}

TEST(ShardPlan, ValidateRejectsACutInsideALeaf) {
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  const PlanArtifact<double> art = solver->capture_artifact();
  const std::vector<index_t> bounds = shard::compute_shard_cuts(art, 2);
  ASSERT_EQ(bounds.size(), 3u);
  PlanArtifact<double> slice =
      shard::slice_shard_artifact(art, bounds, 0, art.options);
  // Nudge the cut off the leaf boundary: the slice must stop validating.
  slice.shard_bounds[1] += 1;
  slice.shard_row_end += 1;
  EXPECT_FALSE(validate_artifact(slice).ok());
}

TEST(ShardPlan, LocalSchedulesPartitionThePlanExactly) {
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  const PlanArtifact<double> art = solver->capture_artifact();
  const std::vector<index_t> bounds = shard::compute_shard_cuts(art, 4);
  const int count = static_cast<int>(bounds.size()) - 1;
  std::size_t tris = 0, squares = 0;
  for (int i = 0; i < count; ++i) {
    const PlanArtifact<double> slice =
        shard::slice_shard_artifact(art, bounds, i, art.options);
    for (const auto& wave : shard::build_local_schedule(slice))
      for (const shard::LocalStep& ls : wave) {
        if (ls.step.kind == ExecStep::Kind::kTri) {
          ++tris;
          EXPECT_GT(ls.publish, 0);
        } else {
          ++squares;
        }
      }
  }
  // Every triangular leaf runs exactly once across the pool; squares may
  // run on several shards (row slices) but never vanish entirely.
  EXPECT_EQ(tris, art.plan.tri_bounds.size() - 1);
  std::size_t square_steps = 0;
  for (const ExecStep& s : art.plan.steps)
    if (s.kind == ExecStep::Kind::kSquare) ++square_steps;
  EXPECT_GE(squares, square_steps);
}

// A shard slice is valid (it passes validate_artifact and serves a shard
// worker through create_from_artifact) but holds only its shard's blocks,
// so every whole-matrix warm path must refuse it — typed, never a crash.
PlanArtifact<double> second_slice(const BlockSolver<double>& solver) {
  const PlanArtifact<double> art = solver.capture_artifact();
  const std::vector<index_t> bounds = shard::compute_shard_cuts(art, 2);
  EXPECT_EQ(bounds.size(), 3u);
  PlanArtifact<double> slice =
      shard::slice_shard_artifact(art, bounds, 1, art.options);
  EXPECT_TRUE(validate_artifact(slice).ok());
  return slice;
}

TEST(ShardPlan, CreateFromFileRejectsASliceTyped) {
  std::unique_ptr<BlockSolver<double>> solver;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  const std::string path = ::testing::TempDir() + "shard_slice_load.btpa";
  ASSERT_TRUE(save_artifact(path, second_slice(*solver)).ok());
  std::unique_ptr<BlockSolver<double>> warm;
  const Status st = BlockSolver<double>::create_from_file(
      path, fixture(), base_options(), &warm);
  ::unlink(path.c_str());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("shard slice 1 of 2"), std::string::npos)
      << st.to_string();
  EXPECT_EQ(warm, nullptr);
}

TEST(ShardPlan, CacheHitOnASliceFallsBackToColdBuild) {
  const Csr<double> L = fixture();
  std::unique_ptr<BlockSolver<double>> cold;
  ASSERT_TRUE(BlockSolver<double>::create(L, base_options(), &cold).ok());
  auto slice = std::make_shared<PlanArtifact<double>>(second_slice(*cold));
  PlanCache<double> cache;
  cache.insert(slice);

  std::unique_ptr<BlockSolver<double>> s;
  ASSERT_TRUE(BlockSolver<double>::create(L, base_options(), &s, &cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  // The failed hit's entry is replaced by the cold build's capture.
  const auto now = cache.find(PlanCacheKey{slice->structure, slice->options});
  ASSERT_NE(now, nullptr);
  EXPECT_NE(now.get(), slice.get());
  const std::vector<double> b = make_panel<double>(L.nrows, 1, 5);
  EXPECT_TRUE(BitwiseEqual(cold->solve(b), s->solve(b)));
}

TEST(ShardPlan, RefreshValuesOnASliceSolverIsTyped) {
  std::unique_ptr<BlockSolver<double>> solver, worker;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  ASSERT_TRUE(BlockSolver<double>::create_from_artifact(
                  std::make_shared<const PlanArtifact<double>>(
                      second_slice(*solver)),
                  base_options(), &worker)
                  .ok());
  const Status st = worker->refresh_values(fixture());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("shard slice 1 of 2"), std::string::npos)
      << st.to_string();
}

// A slice holds only its shard's blocks — a foreign leaf has no kernel — so
// every whole-matrix entry point refuses it with the status refresh_values
// returns: the Status forms return it, the others throw it.
TEST(ShardPlan, WholeMatrixEntryPointsOnASliceSolverAreTyped) {
  std::unique_ptr<BlockSolver<double>> solver, worker;
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), base_options(), &solver)
                  .ok());
  ASSERT_TRUE(BlockSolver<double>::create_from_artifact(
                  std::make_shared<const PlanArtifact<double>>(
                      second_slice(*solver)),
                  base_options(), &worker)
                  .ok());
  const auto typed = [](const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
    EXPECT_NE(st.message().find("shard slice 1 of 2"), std::string::npos)
        << st.to_string();
  };
  const auto throws_typed = [&](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "no blocktri::Error thrown";
    } catch (const Error& e) {
      typed(e.status());
    }
  };
  const index_t n = worker->n();
  const std::vector<double> b = make_panel<double>(n, 1, 5);
  const std::vector<double> B = make_panel<double>(n, 2, 6);
  std::vector<double> x(b.size()), X(B.size());
  const double* const Bs[] = {B.data(), B.data() + n};
  double* const Xs[] = {X.data(), X.data() + n};

  typed(worker->solve(b.data(), x.data(), SolveControls{}));
  typed(worker->solve_many(B.data(), X.data(), 2, SolveControls{}));
  typed(worker->solve_many(Bs, Xs, 2, SolveControls{}));
  typed(worker->solve_checked(b).status);
  typed(worker->solve_many_checked(B, 2).status);
  typed(worker->save_artifact(::testing::TempDir() + "shard_slice_save.btpa"));
  throws_typed([&] { (void)worker->solve(b); });
  throws_typed([&] { worker->solve(b.data(), x.data()); });
  throws_typed([&] { (void)worker->solve_many(B, 2); });
  throws_typed([&] { worker->solve_many(B.data(), X.data(), 2); });
  throws_typed([&] { (void)worker->capture_artifact(); });
  throws_typed([&] {
    sim::SolveReport rep;
    (void)worker->solve_simulated(b, sim::titan_x(), nullptr, &rep);
  });
}

// --- Bitwise equality -------------------------------------------------------

TEST(ShardSolve, BitwiseEqualAcrossSchemesShardsAndWidths) {
  const Csr<double> L = fixture();
  for (BlockScheme scheme :
       {BlockScheme::kColumn, BlockScheme::kRow, BlockScheme::kRecursive,
        BlockScheme::kHbmc}) {
    for (int p : {2, 4}) {
      std::unique_ptr<BlockSolver<double>> solver;
      std::unique_ptr<ShardCoordinator<double>> coord;
      make_pool<double>(L, base_options(scheme), p, &solver, &coord);
      ASSERT_EQ(coord->shard_count(), p);
      for (index_t k : {index_t{1}, index_t{16}}) {
        const std::vector<double> B =
            make_panel<double>(solver->n(), k, 77 + k);
        std::vector<double> want(B.size()), got(B.size());
        ASSERT_TRUE(solver->solve_many(B.data(), want.data(), k, SolveControls{}).ok());
        Status st = coord->solve_many(B.data(), got.data(), k);
        ASSERT_TRUE(st.ok()) << to_string(scheme) << " p=" << p << ": " << st.to_string();
        EXPECT_TRUE(BitwiseEqual(got, want))
            << to_string(scheme) << " p=" << p << " k=" << k;
      }
      // The warm-start proof: no worker ever re-ran level-set analysis.
      EXPECT_EQ(coord->stats().worker_level_analyses, 0u);
      EXPECT_EQ(coord->stats().fallbacks, 0u);
    }
  }
}

TEST(ShardSolve, BitwiseEqualInSinglePrecision) {
  std::unique_ptr<BlockSolver<float>> solver;
  std::unique_ptr<ShardCoordinator<float>> coord;
  make_pool<float>(fixture(), base_options<float>(), 2, &solver, &coord);
  const index_t k = 8;
  const std::vector<float> B = make_panel<float>(solver->n(), k, 31);
  std::vector<float> want(B.size()), got(B.size());
  ASSERT_TRUE(solver->solve_many(B.data(), want.data(), k, SolveControls{}).ok());
  ASSERT_TRUE(coord->solve_many(B.data(), got.data(), k).ok());
  EXPECT_TRUE(BitwiseEqual(got, want));
}

TEST(ShardSolve, GatherScatterFormMatchesContiguous) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  make_pool<double>(fixture(), base_options(), 3, &solver, &coord);
  const index_t n = solver->n(), k = 5;
  const std::vector<double> B = make_panel<double>(n, k, 41);
  std::vector<double> want(B.size());
  ASSERT_TRUE(coord->solve_many(B.data(), want.data(), k).ok());

  std::vector<std::vector<double>> cols(k);
  std::vector<const double*> bs(k);
  std::vector<double*> xs(k);
  std::vector<std::vector<double>> xcols(k, std::vector<double>(n));
  for (index_t c = 0; c < k; ++c) {
    cols[c].assign(B.begin() + c * n, B.begin() + (c + 1) * n);
    bs[c] = cols[c].data();
    xs[c] = xcols[c].data();
  }
  ASSERT_TRUE(coord->solve_many(bs.data(), xs.data(), k).ok());
  for (index_t c = 0; c < k; ++c) {
    const std::vector<double> want_col(want.begin() + c * n,
                                       want.begin() + (c + 1) * n);
    EXPECT_TRUE(BitwiseEqual(xcols[c], want_col)) << "column " << c;
  }
}

TEST(ShardSolve, OverlapActuallyDefersBoundarySquares) {
  // On a banded matrix with several shards, at least some boundary squares
  // must flow through the watermark protocol (ready or deferred) — if this
  // is zero the overlap machinery is dead code.
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  make_pool<double>(fixture(), base_options(), 4, &solver, &coord);
  const std::vector<double> B = make_panel<double>(solver->n(), 4, 9);
  std::vector<double> X(B.size());
  ASSERT_TRUE(coord->solve_many(B.data(), X.data(), 4).ok());
  const CoordinatorStats s = coord->stats();
  EXPECT_GT(s.halo_ready + s.halo_deferred, 0u);
}

// --- Argument and lifecycle contracts ---------------------------------------

TEST(ShardSolve, CreateRejectsBadProcessCounts) {
  std::unique_ptr<BlockSolver<double>> solver;
  Opt opt = base_options();
  ASSERT_TRUE(BlockSolver<double>::create(fixture(), opt, &solver).ok());
  std::unique_ptr<ShardCoordinator<double>> coord;
  opt.shard.processes = 0;
  EXPECT_EQ(ShardCoordinator<double>::create(*solver, opt, &coord).code(),
            StatusCode::kInvalidArgument);
  opt.shard.processes = shard::kMaxShards + 1;
  EXPECT_EQ(ShardCoordinator<double>::create(*solver, opt, &coord).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardSolve, PanelWiderThanMaxPanelIsRejected) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.max_panel = 4;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);
  const std::vector<double> B = make_panel<double>(solver->n(), 5, 3);
  std::vector<double> X(B.size());
  EXPECT_EQ(coord->solve_many(B.data(), X.data(), 5).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardSolve, ExpiredDeadlineIsTypedNotFallenBack) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  make_pool<double>(fixture(), base_options(), 2, &solver, &coord);
  const std::vector<double> b = make_panel<double>(solver->n(), 1, 13);
  std::vector<double> x(b.size());
  SolveControls controls;
  controls.deadline = Deadline::after_ms(-1.0);
  EXPECT_EQ(coord->solve(b.data(), x.data(), controls).code(),
            StatusCode::kDeadlineExceeded);
  // A deadline is not a worker fault: the pool stays intact.
  EXPECT_EQ(coord->stats().fallbacks, 0u);
}

TEST(ShardSolve, ShmSegmentNeverVisibleAndDistinctAcrossCoordinators) {
  // Two live pools at once: the salted names must differ (collision
  // regression) and neither may appear in /dev/shm (unlinked at creation).
  std::unique_ptr<BlockSolver<double>> s1, s2;
  std::unique_ptr<ShardCoordinator<double>> c1, c2;
  make_pool<double>(fixture(), base_options(), 2, &s1, &c1);
  make_pool<double>(fixture(), base_options(), 2, &s2, &c2);
  EXPECT_NE(c1->shm_name(), c2->shm_name());
  EXPECT_FALSE(shm_name_visible(c1->shm_name()));
  EXPECT_FALSE(shm_name_visible(c2->shm_name()));

  const std::vector<double> B = make_panel<double>(s1->n(), 2, 21);
  std::vector<double> want(B.size()), x1(B.size()), x2(B.size());
  ASSERT_TRUE(s1->solve_many(B.data(), want.data(), 2, SolveControls{}).ok());
  ASSERT_TRUE(c1->solve_many(B.data(), x1.data(), 2).ok());
  ASSERT_TRUE(c2->solve_many(B.data(), x2.data(), 2).ok());
  EXPECT_TRUE(BitwiseEqual(x1, want));
  EXPECT_TRUE(BitwiseEqual(x2, want));
}

TEST(ShardSolve, DestructorLeavesNoChildrenBehind) {
  std::vector<pid_t> pids;
  {
    std::unique_ptr<BlockSolver<double>> solver;
    std::unique_ptr<ShardCoordinator<double>> coord;
    make_pool<double>(fixture(), base_options(), 3, &solver, &coord);
    pids = coord->worker_pids();
    ASSERT_EQ(pids.size(), 3u);
    for (pid_t pid : pids) ASSERT_GT(pid, 0);
  }
  // Post-destruction every worker is gone *and* reaped: a targeted waitpid
  // sees ECHILD (no zombie), and the pid no longer accepts signal 0 as our
  // child (it may be recycled by an unrelated process, so ECHILD from
  // waitpid is the authoritative check).
  for (pid_t pid : pids) {
    errno = 0;
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    EXPECT_EQ(r, -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

// --- Fault injection: worker loss -------------------------------------------

TEST(ShardFault, KilledWorkerYieldsTypedWorkerLost) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = false;
  opt.shard.fault.kill_worker = 1;  // dies after its first local step
  opt.shard.fault.after_steps = 1;
  opt.shard.epoch_timeout_ms = 4000;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 51);
  std::vector<double> x(b.size());
  const Status st = coord->solve(b.data(), x.data());
  EXPECT_EQ(st.code(), StatusCode::kWorkerLost) << st.to_string();
  EXPECT_GE(coord->stats().workers_lost, 1u);
  EXPECT_EQ(coord->stats().fallbacks, 0u);

  // The dead worker is reaped (its pid slot reads -1, no zombie) and the
  // segment never existed in the namespace to leak.
  const std::vector<pid_t> pids = coord->worker_pids();
  EXPECT_EQ(pids[1], -1);
  EXPECT_FALSE(shm_name_visible(coord->shm_name()));
}

TEST(ShardFault, FallbackRecoversTheEpochInProcess) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = true;
  opt.shard.fault.kill_worker = 0;
  opt.shard.fault.after_steps = 0;  // dies on its very first step
  opt.shard.epoch_timeout_ms = 4000;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 52);
  std::vector<double> x(b.size()), want(b.size());
  ASSERT_TRUE(solver->solve(b.data(), want.data(), {}).ok());
  const Status st = coord->solve(b.data(), x.data());
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_TRUE(BitwiseEqual(x, want));
  EXPECT_GE(coord->stats().fallbacks, 1u);
  EXPECT_GE(coord->stats().workers_lost, 1u);
}

TEST(ShardFault, ExternallyKilledWorkerIsRespawnedWarm) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = true;
  opt.shard.epoch_timeout_ms = 4000;
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 53);
  std::vector<double> x(b.size()), want(b.size());
  ASSERT_TRUE(solver->solve(b.data(), want.data(), {}).ok());
  ASSERT_TRUE(coord->solve(b.data(), x.data()).ok());

  // Kill a worker from outside, between epochs.
  const std::vector<pid_t> pids = coord->worker_pids();
  ASSERT_GT(pids[0], 0);
  ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

  // The next epoch respawns it from its slice file — warm (no re-analysis)
  // — and solves correctly (directly or via fallback, depending on whether
  // the death is noticed before or during the epoch).
  ASSERT_TRUE(coord->solve(b.data(), x.data()).ok());
  EXPECT_TRUE(BitwiseEqual(x, want));
  // One more epoch to make sure the pool is fully healthy again.
  ASSERT_TRUE(coord->solve(b.data(), x.data()).ok());
  EXPECT_TRUE(BitwiseEqual(x, want));
  const CoordinatorStats s = coord->stats();
  EXPECT_GE(s.respawns, 1u);
  EXPECT_EQ(s.worker_level_analyses, 0u);  // respawn reran the warm path
  const std::vector<pid_t> fresh = coord->worker_pids();
  EXPECT_GT(fresh[0], 0);
  EXPECT_NE(fresh[0], pids[0]);
}

TEST(ShardFault, HungWorkerTripsTheEpochTimeoutNotAHang) {
  std::unique_ptr<BlockSolver<double>> solver;
  std::unique_ptr<ShardCoordinator<double>> coord;
  Opt opt = base_options();
  opt.shard.fallback_inprocess = false;
  opt.shard.fault.hang_worker = 0;
  opt.shard.fault.after_steps = 1;
  opt.shard.epoch_timeout_ms = 300;  // short: the test must stay fast
  make_pool<double>(fixture(), opt, 2, &solver, &coord);

  const std::vector<double> b = make_panel<double>(solver->n(), 1, 54);
  std::vector<double> x(b.size());
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = coord->solve(b.data(), x.data());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(st.code(), StatusCode::kWorkerLost) << st.to_string();
  EXPECT_LT(ms, 10000.0) << "epoch timeout failed to bound the hang";
}

TEST(ShardFault, WorkerLostStatusHasAName) {
  EXPECT_STREQ(status_code_name(StatusCode::kWorkerLost), "worker-lost");
}

// --- Service integration ----------------------------------------------------

TEST(ShardService, ShardedBackendServesCoalescedPanelsBitwise) {
  using service::Request;
  using service::Response;
  using service::ServiceOptions;
  using service::SolveService;

  ServiceOptions sopt;
  sopt.max_panel = 8;
  sopt.batch_window_ms = 5.0;
  SolveService svc(sopt);

  Opt opt = base_options();
  opt.shard.processes = 2;
  std::uint64_t id = 0;
  ASSERT_TRUE(svc.register_matrix(fixture(), opt, &id).ok());
  ASSERT_NE(svc.shard_backend(id), nullptr);
  EXPECT_EQ(svc.shard_backend(id)->shard_count(), 2);

  // Reference: the registered base solver, single process.
  const BlockSolver<double>* base = svc.solver(id);
  ASSERT_NE(base, nullptr);
  const index_t n = base->n();

  std::vector<std::vector<double>> rhs;
  std::vector<std::vector<double>> want;
  for (unsigned i = 0; i < 6; ++i) {
    rhs.push_back(make_panel<double>(n, 1, 100 + i));
    std::vector<double> w(static_cast<std::size_t>(n));
    ASSERT_TRUE(base->solve(rhs.back().data(), w.data(), {}).ok());
    want.push_back(std::move(w));
  }

  std::vector<Response> out(rhs.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < rhs.size(); ++i)
    clients.emplace_back([&, i] {
      Request req;
      req.matrix_id = id;
      req.b = rhs[i];
      out[i] = svc.solve(req);
    });
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].status.ok()) << i << ": " << out[i].status.to_string();
    EXPECT_TRUE(BitwiseEqual(out[i].x, want[i])) << "request " << i;
  }
  const service::ServiceStats s = svc.stats();
  EXPECT_GT(s.shard.epochs, 0u);
  EXPECT_EQ(s.shard.worker_level_analyses, 0u);
  EXPECT_EQ(s.shard.fallbacks, 0u);
}

TEST(ShardService, UnshardedMatrixHasNoBackend) {
  service::SolveService svc;
  std::uint64_t id = 0;
  ASSERT_TRUE(svc.register_matrix(fixture(), base_options(), &id).ok());
  EXPECT_EQ(svc.shard_backend(id), nullptr);
  EXPECT_EQ(svc.shard_backend(id + 999), nullptr);
  EXPECT_EQ(svc.stats().shard.epochs, 0u);
}

// --- common/io frame layer (ISSUE 9 satellite) ------------------------------

constexpr io::FrameSpec kTestSpec = {0x54534554u /* "TEST" */, 1, 1 << 16};

TEST(FramedIo, RoundTripWithAndWithoutCrc) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 250};
  for (bool crc : {false, true}) {
    ASSERT_TRUE(io::write_frame(fds[0], kTestSpec, 7, payload.data(),
                                payload.size(), crc)
                    .ok());
    std::uint8_t type = 0;
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(io::read_frame(fds[1], kTestSpec, &type, &got).ok());
    EXPECT_EQ(type, 7);
    EXPECT_EQ(got, payload);  // CRC trailer verified and stripped
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramedIo, FlippedPayloadBitIsAChecksumMismatch) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Assemble a CRC frame by hand, then corrupt one payload byte.
  std::vector<std::uint8_t> payload = {10, 20, 30, 40};
  const std::uint32_t crc = io::crc32(payload.data(), payload.size());
  io::FrameHeader hdr;
  hdr.magic = kTestSpec.magic;
  hdr.version = kTestSpec.version;
  hdr.type = 1;
  hdr.flags = io::kFrameFlagCrc;
  hdr.payload_len = payload.size();
  std::uint8_t raw[io::kFrameHeaderBytes];
  io::encode_frame_header(hdr, raw);
  payload[2] ^= 0x4;  // the flip
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  ASSERT_TRUE(io::write_exact(fds[0], payload.data(), payload.size()).ok());
  ASSERT_TRUE(io::write_exact(fds[0], &crc, sizeof crc).ok());
  std::uint8_t type = 0;
  std::vector<std::uint8_t> got;
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got).code(),
            StatusCode::kChecksumMismatch);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramedIo, TruncationAndCleanEofAreDistinguished) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A header promising 100 payload bytes, 40 delivered, then the peer
  // vanishes mid-buffer: typed kTruncated.
  io::FrameHeader hdr;
  hdr.magic = kTestSpec.magic;
  hdr.version = kTestSpec.version;
  hdr.type = 2;
  hdr.payload_len = 100;
  std::uint8_t raw[io::kFrameHeaderBytes];
  io::encode_frame_header(hdr, raw);
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  const std::vector<std::uint8_t> partial(40, 0xAB);
  ASSERT_TRUE(io::write_exact(fds[0], partial.data(), partial.size()).ok());
  ::close(fds[0]);
  std::uint8_t type = 0;
  std::vector<std::uint8_t> got;
  bool clean_eof = false;
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got, &clean_eof).code(),
            StatusCode::kTruncated);
  EXPECT_FALSE(clean_eof);
  // A fresh pair, closed between frames: clean EOF, Ok.
  int fds2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  ::close(fds2[0]);
  clean_eof = false;
  EXPECT_TRUE(
      io::read_frame(fds2[1], kTestSpec, &type, &got, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
  ::close(fds2[1]);
  ::close(fds[1]);
}

TEST(FramedIo, WrongMagicAndOversizePayloadAreBadFormat) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  io::FrameHeader hdr;
  hdr.magic = 0xDEADBEEF;
  hdr.version = kTestSpec.version;
  hdr.payload_len = 0;
  std::uint8_t raw[io::kFrameHeaderBytes];
  io::encode_frame_header(hdr, raw);
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  std::uint8_t type = 0;
  std::vector<std::uint8_t> got;
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got).code(),
            StatusCode::kBadFormat);

  hdr.magic = kTestSpec.magic;
  hdr.payload_len = kTestSpec.max_payload + 1;  // validated pre-allocation
  io::encode_frame_header(hdr, raw);
  ASSERT_TRUE(io::write_exact(fds[0], raw, sizeof raw).ok());
  EXPECT_EQ(io::read_frame(fds[1], kTestSpec, &type, &got).code(),
            StatusCode::kBadFormat);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FramedIo, ControlMessagesRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shard::ReportMsg in;
  in.seq = 42;
  in.code = static_cast<std::int32_t>(StatusCode::kSpinTimeout);
  in.message = "halo wait exceeded";
  in.steps_run = 17;
  in.halo_deferred = 3;
  in.halo_ready = 2;
  in.wait_ms = 1.5;
  in.level_analyses = 0;
  ASSERT_TRUE(shard::write_report(fds[0], in).ok());
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(shard::read_any_frame(fds[1], &type, &payload).ok());
  ASSERT_EQ(type, static_cast<std::uint8_t>(shard::ControlFrame::kReport));
  shard::ReportMsg out;
  ASSERT_TRUE(shard::decode_report(payload, &out).ok());
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.message, in.message);
  EXPECT_EQ(out.steps_run, in.steps_run);
  EXPECT_EQ(out.halo_deferred, in.halo_deferred);
  EXPECT_EQ(out.halo_ready, in.halo_ready);
  EXPECT_DOUBLE_EQ(out.wait_ms, in.wait_ms);
  // Truncated control payloads decode typed, never read past the buffer.
  payload.resize(4);
  EXPECT_EQ(shard::decode_report(payload, &out).code(),
            StatusCode::kTruncated);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace blocktri
