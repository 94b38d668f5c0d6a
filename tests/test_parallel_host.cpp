// Multithreaded host backend: thread-pool semantics, parallel-vs-serial
// equivalence for every kernel and for the BlockSolver executor, the wave
// analysis, and the fallback ladder under threads.
//
// Determinism contract (see DESIGN.md "Host-parallel execution"): every
// parallel path is bitwise identical to the serial one and is compared with
// EXPECT_EQ — the level-set triangle's level schedule, every triangle's
// panel split by cache lines and SpMV by disjoint writes and deterministic
// chunking. Any other triangle solve is one serial pass at any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "helpers.hpp"

using namespace blocktri;
using namespace blocktri::testing;

namespace {

// BLOCKTRI_THREADS would override every Options::threads below.
[[maybe_unused]] const int kEnvCleared = [] {
  unsetenv("BLOCKTRI_THREADS");
  return 0;
}();

const std::vector<int> kThreadCounts = {2, 4, 8};

/// Matrices above the parallel gates (kHostParallelMinNnz etc.), so the
/// threaded paths actually engage rather than falling back to serial.
std::vector<TestMatrix> large_matrices() {
  using namespace blocktri::gen;
  return {
      {"banded_big", [] { return banded(30000, 32, 8.0, 21); }},
      {"levels_big", [] { return random_levels(20000, 50, 4.0, 1.0, 22); }},
      {"diag_big", [] { return diagonal(10000, 23); }},
  };
}

}  // namespace

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(97);
  pool.run(97, [&](int t) { hits[static_cast<std::size_t>(t)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeWithDisjointChunks) {
  ThreadPool pool(3);
  std::vector<int> count(1000, 0);
  pool.parallel_for(0, 1000, [&](index_t b, index_t e, int chunk) {
    EXPECT_GE(chunk, 0);
    EXPECT_LT(chunk, pool.size());
    for (index_t i = b; i < e; ++i) count[static_cast<std::size_t>(i)]++;
  });
  EXPECT_EQ(std::accumulate(count.begin(), count.end(), 0), 1000);
  for (const int c : count) EXPECT_EQ(c, 1);
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](index_t, index_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  // 2 rows over 4 threads: at most 2 chunks, running concurrently, so each
  // row counts into its own slot (a shared push_back would race); every row
  // must be visited exactly once.
  std::vector<std::atomic<int>> seen(2);
  pool.parallel_for(0, 2, [&](index_t b, index_t e, int) {
    for (index_t i = b; i < e; ++i)
      seen[static_cast<std::size_t>(i)].fetch_add(1);
  });
  EXPECT_EQ(seen[0].load(), 1);
  EXPECT_EQ(seen[1].load(), 1);
}

TEST(ThreadPool, RunPropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run(8, [&](int t) {
        if (t == 5) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The pool must survive an exception and run the next job normally.
  std::atomic<int> sum{0};
  pool.run(10, [&](int t) { sum += t; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> order;
  pool.run(4, [&](int t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));  // deterministic order
}

TEST(ThreadPool, BalancedRowPartitionBoundsAreValid) {
  // Heavily skewed rows: all the nnz in the first rows.
  std::vector<offset_t> row_ptr = {0, 1000, 1900, 1950, 1980, 1990,
                                   1995, 1998, 2000};
  const auto bounds = balanced_row_partition(row_ptr, 8, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 8);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_LE(bounds[i - 1], bounds[i]);
  // The first chunk must not swallow everything: each boundary tracks an
  // nnz quartile.
  EXPECT_EQ(bounds[1], 1);  // 1000 of 2000 nnz sit in row 0
}

TEST(ThreadPool, ResolveThreadsHonoursEnvOverride) {
  unsetenv("BLOCKTRI_THREADS");
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(-5), 1);
  EXPECT_GE(resolve_threads(0), 1);  // hardware_concurrency, at least 1
  setenv("BLOCKTRI_THREADS", "6", 1);
  EXPECT_EQ(resolve_threads(1), 6);
  EXPECT_EQ(resolve_threads(0), 6);
  setenv("BLOCKTRI_THREADS", "garbage", 1);
  EXPECT_EQ(resolve_threads(2), 2);  // invalid values are ignored
  setenv("BLOCKTRI_THREADS", "0", 1);
  EXPECT_EQ(resolve_threads(2), 2);
  unsetenv("BLOCKTRI_THREADS");
}

// --- Kernel equivalence ----------------------------------------------------

TEST(ParallelKernels, LevelSetMatchesSerialBitwise) {
  for (const auto& tm : large_matrices()) {
    SCOPED_TRACE(tm.name);
    const Csr<double> L = tm.build();
    const auto b = gen::random_rhs<double>(L.nrows, 31);
    std::vector<double> want(static_cast<std::size_t>(L.nrows));
    const TriSolver<double> serial(TriKernelKind::kLevelSet, L);
    serial.solve(b.data(), want.data());
    for (const int t : kThreadCounts) {
      SCOPED_TRACE(t);
      ThreadPool pool(t);
      const TriSolver<double> par(TriKernelKind::kLevelSet, L, &pool);
      std::vector<double> got(static_cast<std::size_t>(L.nrows), -1.0);
      par.solve(b.data(), got.data(), 1, 1, &pool);
      EXPECT_EQ(got, want);  // disjoint writes — bitwise deterministic
    }
  }
}

TEST(ParallelKernels, DiagonalMatchesSerialBitwise) {
  const Csr<double> L = gen::diagonal(20000, 33);
  const TriSolver<double> solver(TriKernelKind::kCompletelyParallel, L);
  const auto b = gen::random_rhs<double>(L.nrows, 34);
  std::vector<double> want(static_cast<std::size_t>(L.nrows));
  solver.solve(b.data(), want.data());
  for (const int t : kThreadCounts) {
    SCOPED_TRACE(t);
    ThreadPool pool(t);
    std::vector<double> got(static_cast<std::size_t>(L.nrows), -1.0);
    solver.solve(b.data(), got.data(), 1, 1, &pool);
    EXPECT_EQ(got, want);
  }
}

TEST(ParallelKernels, SpmvKernelsMatchSerialBitwise) {
  for (const auto& tm : large_matrices()) {
    SCOPED_TRACE(tm.name);
    const Csr<double> A = tm.build();
    const Dcsr<double> D = csr_to_dcsr(A);
    const auto x = gen::random_rhs<double>(A.ncols, 35);
    const auto y0 = gen::random_rhs<double>(A.nrows, 36);
    auto run_all = [&](ThreadPool* pool) {
      std::vector<std::vector<double>> outs;
      for (int k = 0; k < 2; ++k) {
        std::vector<double> y = y0;
        if (k == 0) {
          spmv_update(A, x.data(), y.data(), pool);
        } else {
          spmv_update(D, x.data(), y.data(), pool);
        }
        outs.push_back(std::move(y));
      }
      return outs;
    };
    const auto want = run_all(nullptr);
    for (const int t : kThreadCounts) {
      SCOPED_TRACE(t);
      ThreadPool pool(t);
      const auto got = run_all(&pool);
      for (int k = 0; k < 2; ++k) {
        SCOPED_TRACE(k);
        EXPECT_EQ(got[static_cast<std::size_t>(k)],
                  want[static_cast<std::size_t>(k)]);
      }
    }
  }
}

// --- Parallel preprocessing ------------------------------------------------

TEST(ParallelPreprocess, CsrToCscMatchesSerialExactly) {
  const Csr<double> A = gen::banded(30000, 32, 8.0, 41);
  ASSERT_GE(A.nnz(), 4 * kHostParallelMinNnz);  // above the parallel gate
  const Csc<double> want = csr_to_csc(A);
  for (const int t : kThreadCounts) {
    SCOPED_TRACE(t);
    ThreadPool pool(t);
    const Csc<double> got = csr_to_csc(A, &pool);
    EXPECT_EQ(got.col_ptr, want.col_ptr);
    EXPECT_EQ(got.row_idx, want.row_idx);
    EXPECT_EQ(got.val, want.val);
  }
}

TEST(ParallelPreprocess, LevelSetsMatchSerialExactly) {
  const Csr<double> A = gen::random_levels(20000, 50, 4.0, 1.0, 42);
  const LevelSets want = compute_level_sets(A);
  ASSERT_GE(A.nrows, 2 * kHostParallelMinNnz);
  ASSERT_LE(want.nlevels, A.nrows / 4);  // above the grouping gate
  for (const int t : kThreadCounts) {
    SCOPED_TRACE(t);
    ThreadPool pool(t);
    const LevelSets got = compute_level_sets(A, &pool);
    EXPECT_EQ(got.nlevels, want.nlevels);
    EXPECT_EQ(got.level_of, want.level_of);
    EXPECT_EQ(got.level_ptr, want.level_ptr);
    EXPECT_EQ(got.level_item, want.level_item);
  }
}

TEST(ParallelPreprocess, RecursivePlanIsThreadCountInvariant) {
  const Csr<double> L = gen::random_levels(20000, 50, 4.0, 1.0, 43);
  PlannerOptions popt;
  popt.stop_rows = 2048;
  Csr<double> stored_serial;
  const BlockPlan want = plan_recursive(L, popt, &stored_serial);
  for (const int t : kThreadCounts) {
    SCOPED_TRACE(t);
    ThreadPool pool(t);
    Csr<double> stored_par;
    const BlockPlan got = plan_recursive(L, popt, &stored_par, &pool);
    EXPECT_TRUE(equals(got, want));
    EXPECT_EQ(stored_par.row_ptr, stored_serial.row_ptr);
    EXPECT_EQ(stored_par.col_idx, stored_serial.col_idx);
    EXPECT_EQ(stored_par.val, stored_serial.val);
  }
}

// --- Wave analysis ---------------------------------------------------------

TEST(StepWaves, ChainPlansStaySequential) {
  const Csr<double> L = gen::banded(4000, 8, 3.0, 51);
  PlannerOptions popt;
  popt.stop_rows = 512;
  Csr<double> stored;
  const BlockPlan plan = plan_recursive(L, popt, &stored);
  const auto waves = compute_step_waves(plan);
  // Without the empty-square list every square chains its neighbours: the
  // wave count equals the step count.
  std::size_t total = 0;
  for (const auto& w : waves) total += w.size();
  EXPECT_EQ(total, plan.steps.size());
  EXPECT_EQ(waves.size(), plan.steps.size());
}

TEST(StepWaves, EmptySquaresUnlockIndependentTriangles) {
  // Hand-built plan: two triangles chained by one square block.
  BlockPlan plan;
  plan.n = 4;
  plan.tri_bounds = {0, 2, 4};
  plan.squares = {{2, 4, 0, 2}};
  plan.steps = {{ExecStep::Kind::kTri, 0},
                {ExecStep::Kind::kSquare, 0},
                {ExecStep::Kind::kTri, 1}};
  // Square carries nonzeros: strict chain, three waves.
  auto waves = compute_step_waves(plan, {8});
  EXPECT_EQ(waves.size(), 3u);
  // Square is empty (block-diagonal matrix): both triangles share a wave.
  waves = compute_step_waves(plan, {0});
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].size(), 2u);
  EXPECT_EQ(waves[0][0].kind, ExecStep::Kind::kTri);
  EXPECT_EQ(waves[0][1].kind, ExecStep::Kind::kTri);
}

// --- BlockSolver end-to-end ------------------------------------------------

template <class T>
void expect_threaded_solver_matches_serial(const Csr<double>& Ld,
                                           BlockScheme scheme) {
  const Csr<T> L = gen::convert_values<T>(Ld);
  const auto b = gen::random_rhs<T>(L.nrows, 61);
  typename BlockSolver<T>::Options opt;
  opt.scheme = scheme;
  opt.planner.stop_rows = std::max<index_t>(64, L.nrows / 8);
  opt.planner.nseg = 4;
  const BlockSolver<T> serial(L, opt);
  const std::vector<T> want = serial.solve(b);
  const SolveResult<T> want_checked = serial.solve_checked(b);
  ASSERT_TRUE(want_checked.ok()) << want_checked.status.message();
  for (const int t : {2, 4}) {
    SCOPED_TRACE(t);
    opt.threads = t;
    const BlockSolver<T> par(L, opt);
    EXPECT_EQ(par.threads(), t);
    EXPECT_FALSE(par.step_waves().empty());
    EXPECT_EQ(par.solve(b), want);
    const SolveResult<T> checked = par.solve_checked(b);
    ASSERT_TRUE(checked.ok()) << checked.status.message();
    EXPECT_EQ(checked.x, want_checked.x);
    EXPECT_EQ(checked.report.residual, want_checked.report.residual);
  }
}

TEST(ParallelBlockSolver, MatchesSerialAcrossSchemesAndMatrices) {
  for (const auto& tm : test_matrices()) {
    SCOPED_TRACE(tm.name);
    const Csr<double> L = tm.build();
    for (const BlockScheme s :
         {BlockScheme::kRecursive, BlockScheme::kColumn, BlockScheme::kRow}) {
      SCOPED_TRACE(to_string(s));
      expect_threaded_solver_matches_serial<double>(L, s);
    }
  }
}

TEST(ParallelBlockSolver, FloatPathMatchesSerial) {
  for (const auto& tm : large_matrices()) {
    SCOPED_TRACE(tm.name);
    expect_threaded_solver_matches_serial<float>(tm.build(),
                                                 BlockScheme::kRecursive);
  }
}

TEST(ParallelBlockSolver, LargeMatricesEngageParallelPaths) {
  for (const auto& tm : large_matrices()) {
    SCOPED_TRACE(tm.name);
    expect_threaded_solver_matches_serial<double>(tm.build(),
                                                  BlockScheme::kRecursive);
  }
}

// Forced cuSPARSE-like and level-set plans and diagonal plans: every
// solve and panel at threads > 1 equals threads = 1 bit for bit, the
// cuSPARSE-like and diagonal panels split across the pool by cache lines.
// A diagonal matrix's leaves share one wave and run as tasks; leaves
// chained by squares (row i reads x[i − 2 500]) under the column scheme
// are lone steps, whose kernels get the pool.
TEST(ParallelBlockSolver, ForcedKindsMatchSerial) {
  Csr<double> chained;
  chained.nrows = chained.ncols = 20000;
  chained.row_ptr.push_back(0);
  for (index_t i = 0; i < chained.nrows; ++i) {
    if (i >= 2500) {
      chained.col_idx.push_back(i - 2500);
      chained.val.push_back(0.5);
    }
    chained.col_idx.push_back(i);
    chained.val.push_back(2.0 + static_cast<double>(i % 7));
    chained.row_ptr.push_back(static_cast<offset_t>(chained.col_idx.size()));
  }
  struct Case {
    const char* name;
    Csr<double> L;
    TriKernelKind kind;
    BlockScheme scheme;
  };
  const Case cases[] = {
      {"cusparse-like", gen::random_levels(20000, 50, 4.0, 1.0, 70),
       TriKernelKind::kCusparseLike, BlockScheme::kRecursive},
      {"level-set", gen::banded(20000, 16, 4.0, 71), TriKernelKind::kLevelSet,
       BlockScheme::kRecursive},
      {"diagonal", gen::diagonal(20000, 72),
       TriKernelKind::kCompletelyParallel, BlockScheme::kRecursive},
      {"chained diagonal leaves", chained, TriKernelKind::kCompletelyParallel,
       BlockScheme::kColumn},
  };
  const index_t widths[] = {1, 16, 64};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BlockSolver<double>::Options opt;
    opt.scheme = c.scheme;
    opt.planner.stop_rows = 2048;
    opt.planner.nseg = 8;
    opt.adaptive = false;
    opt.forced_tri = c.kind;
    const BlockSolver<double> serial(c.L, opt);
    for (const auto& info : serial.tri_info()) ASSERT_EQ(info.kind, c.kind);
    if (c.scheme == BlockScheme::kColumn)
      for (const auto& wave : serial.step_waves()) ASSERT_EQ(wave.size(), 1u);
    std::vector<std::vector<double>> panels, want;
    for (const index_t k : widths) {
      std::vector<double> B;
      for (index_t col = 0; col < k; ++col) {
        const auto bc = gen::random_rhs<double>(c.L.nrows, 80 + col);
        B.insert(B.end(), bc.begin(), bc.end());
      }
      want.push_back(serial.solve_many(B, k));
      panels.push_back(std::move(B));
    }
    for (const int t : kThreadCounts) {
      SCOPED_TRACE(t);
      opt.threads = t;
      const BlockSolver<double> par(c.L, opt);
      for (std::size_t w = 0; w < panels.size(); ++w) {
        SCOPED_TRACE(widths[w]);
        EXPECT_EQ(par.solve_many(panels[w], widths[w]), want[w]);
      }
      EXPECT_EQ(par.solve(panels[0]), want[0]);
    }
  }
}

TEST(ParallelBlockSolver, EnvOverrideWinsOverOptions) {
  setenv("BLOCKTRI_THREADS", "2", 1);
  const Csr<double> L = gen::banded(2000, 8, 3.0, 62);
  BlockSolver<double>::Options opt;  // threads = 1
  const BlockSolver<double> solver(L, opt);
  EXPECT_EQ(solver.threads(), 2);
  unsetenv("BLOCKTRI_THREADS");
  const BlockSolver<double> serial(L, opt);
  EXPECT_EQ(serial.threads(), 1);
  const auto b = gen::random_rhs<double>(L.nrows, 63);
  EXPECT_EQ(solver.solve(b), serial.solve(b));
}

// The fallback ladder under threads takes the threads = 1 rungs: the same
// status, x bits and report, field by field, for solve_checked and for
// checked panels whose fault.column lies inside them. On the recursive plan
// every wave holds one step; the HBMC plan's faulted triangle sits in a wave
// of several triangles, which the pool runs as tasks and checks when the
// wave ends.
TEST(ParallelBlockSolver, FallbackLadderEngagesUnderThreads) {
  struct Plan {
    const char* name;
    Csr<double> L;
    BlockScheme scheme;
    index_t stop_rows;
  };
  const Plan plans[] = {
      {"recursive", gen::random_levels(20000, 50, 4.0, 1.0, 64),
       BlockScheme::kRecursive, 2048},
      {"hbmc",
       gen::random_topological_shuffle(gen::laplace3d(16, 16, 16, 66), 67),
       BlockScheme::kHbmc, 512},
  };
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const Plan& plan : plans) {
    SCOPED_TRACE(plan.name);
    BlockSolver<double>::Options opt;
    opt.scheme = plan.scheme;
    opt.planner.stop_rows = plan.stop_rows;
    // Force sync-free so every block has the full three-rung ladder
    // (sync-free → level-set → serial); an adaptive level-set pick would
    // leave only two rungs and corrupt_attempts=2 would legitimately exhaust
    // them.
    opt.adaptive = false;
    opt.forced_tri = TriKernelKind::kSyncFree;
    opt.fault.tri_block = 0;
    if (plan.scheme == BlockScheme::kHbmc) {
      // The second triangle of the first wave that holds several.
      opt.fault.tri_block = -1;
      const BlockSolver<double> probe(plan.L, opt);
      for (const auto& wave : probe.step_waves()) {
        std::vector<index_t> tris;
        for (const ExecStep& step : wave)
          if (step.kind == ExecStep::Kind::kTri) tris.push_back(step.index);
        if (tris.size() >= 2) {
          opt.fault.tri_block = tris[1];
          break;
        }
      }
      ASSERT_GE(opt.fault.tri_block, 0) << "no wave holds two triangles";
    }
    for (int corrupt = 1; corrupt <= 2; ++corrupt) {
      opt.fault.corrupt_attempts = corrupt;
      for (const index_t k : {1, 16, 64}) {
        SCOPED_TRACE("corrupt=" + std::to_string(corrupt) +
                     " k=" + std::to_string(k));
        opt.fault.column = k - 1;
        const auto B = gen::random_rhs<double>(plan.L.nrows * k, 65);
        // The same fault at threads = 1 takes the same rungs: the reference.
        opt.threads = 1;
        const BlockSolver<double> ref(plan.L, opt);
        const SolveManyResult<double> want = ref.solve_many_checked(B, k);
        ASSERT_TRUE(want.ok()) << want.status.to_string();
        EXPECT_EQ(want.reports[static_cast<std::size_t>(k - 1)]
                      .fallbacks.size(),
                  static_cast<std::size_t>(corrupt));
        const SolveResult<double> want_one =
            k == 1 ? ref.solve_checked(B) : SolveResult<double>{};
        for (const int t : kThreadCounts) {
          SCOPED_TRACE(t);
          opt.threads = t;
          const BlockSolver<double> par(plan.L, opt);
          const SolveManyResult<double> res = par.solve_many_checked(B, k);
          EXPECT_EQ(res.status.code(), want.status.code());
          EXPECT_TRUE(same_bits(res.X, want.X));
          ASSERT_EQ(res.reports.size(), want.reports.size());
          for (std::size_t c = 0; c < res.reports.size(); ++c)
            expect_same_report(res.reports[c], want.reports[c]);
          if (k != 1) continue;
          const SolveResult<double> one = par.solve_checked(B);
          EXPECT_EQ(one.status.code(), want_one.status.code());
          EXPECT_TRUE(same_bits(one.x, want_one.x));
          expect_same_report(one.report, want_one.report);
        }
      }
    }
  }
}
