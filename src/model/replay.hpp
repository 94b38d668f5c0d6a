// One structural replay of a step list on the GPU model (DESIGN.md §2).
// BlockSolver::solve_simulated, the autotuner's oracle and its calibration,
// and the paper benches' baselines all score through replay(): the same
// address layout, one KernelSim per step, one launch charged per square
// (empty squares included), and the triangle/SpMV breakdown.
//
// Replays read structure only: each triangle step carries a TriView of its
// rows and level sets, each square step the SquareView of its kind. The
// builders below make those views from the host solvers' held blocks or
// from a block cut out of a matrix.
#pragma once

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "model/kernels.hpp"
#include "sparse/formats.hpp"
#include "sptrsv/cusparse_like.hpp"
#include "sptrsv/diagonal.hpp"
#include "sptrsv/levelset.hpp"
#include "sptrsv/syncfree.hpp"

namespace blocktri {

/// Time split between the triangular and SpMV parts of a blocked solve —
/// the quantity Fig. 4 plots.
struct BlockSolveBreakdown {
  double tri_ns = 0.0;
  double spmv_ns = 0.0;
  int tri_kernels = 0;
  int spmv_kernels = 0;
};

namespace model {

/// One step of a replay: a triangle on rows (and columns) from `r0`, or —
/// when `square` is set — a square on rows from `r0` and columns from `c0`.
struct Step {
  index_t r0 = 0;
  index_t c0 = 0;
  TriView tri;
  TriKernelKind tri_kind = TriKernelKind::kSyncFree;
  const SquareView* square = nullptr;
  SpmvKernelKind square_kind = SpmvKernelKind::kScalarCsr;
};

/// Replays `steps` of an n-row system on `gpu`, accounting into `report`
/// (and `breakdown` when given). The address layout is x | b | scratch
/// (left_sum and in_degree, elem + 4 bytes per row), reserved in that order,
/// and each step sees the segments at its rows. `cache` carries locality
/// across steps and across replays (nullptr models a cache-less device);
/// `fp64` selects the arithmetic rate and `elem` the value width.
void replay(std::span<const Step> steps, index_t n, const sim::GpuSpec& gpu,
            sim::CacheModel* cache, bool fp64, int elem,
            sim::SolveReport* report, BlockSolveBreakdown* breakdown = nullptr);

/// The warm-cache protocol of the paper benches, the tuner's oracle and its
/// calibration: replays `steps` once on a fresh cache to warm it, then
/// again, and returns the second replay's report.
sim::SolveReport replay_warm(std::span<const Step> steps, index_t n,
                             const sim::GpuSpec& gpu, bool fp64, int elem);

/// The views of a triangle's rows (diagonal last) and of the host triangle
/// solvers' held structure, and the kind of each solver class.
template <class T>
TriView tri_view(const Csr<T>& rows) {
  TriView v;
  v.n = rows.nrows;
  v.row_ptr = rows.row_ptr;
  v.col_idx = rows.col_idx;
  return v;
}
template <class T>
TriView tri_view(const DiagonalSolver<T>& s) {
  TriView v;
  v.n = s.n();
  return v;
}
template <class T>
TriView tri_view(const LevelSetSolver<T>& s) {
  TriView v = tri_view(s.matrix());
  v.levels = &s.levels();
  return v;
}
template <class T>
TriView tri_view(const SyncFreeSolver<T>& s) {
  return tri_view(s.matrix());
}
template <class T>
TriView tri_view(const CusparseLikeSolver<T>& s) {
  TriView v = tri_view(s.matrix());
  v.levels = &s.levels();
  v.kernel_first_level = s.kernel_first_levels();
  return v;
}

template <class T>
constexpr TriKernelKind kind_of(const DiagonalSolver<T>&) {
  return TriKernelKind::kCompletelyParallel;
}
template <class T>
constexpr TriKernelKind kind_of(const LevelSetSolver<T>&) {
  return TriKernelKind::kLevelSet;
}
template <class T>
constexpr TriKernelKind kind_of(const SyncFreeSolver<T>&) {
  return TriKernelKind::kSyncFree;
}
template <class T>
constexpr TriKernelKind kind_of(const CusparseLikeSolver<T>&) {
  return TriKernelKind::kCusparseLike;
}

/// A triangle's structure held for the model — its rows, their level sets
/// and the cuSPARSE-like merge schedule (CusparseLikeSolver's default
/// budget) — so one block serves every kind: what the tuner memoises per
/// block and calibration per sample.
struct TriStructure {
  index_t n = 0;
  std::vector<offset_t> row_ptr;
  std::vector<index_t> col_idx;
  LevelSets levels;
  std::vector<index_t> kernel_first_level;

  TriView view() const {
    TriView v;
    v.n = n;
    v.row_ptr = row_ptr;
    v.col_idx = col_idx;
    v.levels = &levels;
    v.kernel_first_level = kernel_first_level;
    return v;
  }
};

/// The structure of a lower triangle's rows (diagonal last). `pool`
/// parallelises the level analysis.
template <class T>
TriStructure tri_structure(const Csr<T>& rows, ThreadPool* pool = nullptr);

/// The view of kind `kind` of a square held as a CSR block, or as listed
/// rows in any order (a built solver's squares): the rows ascending, all of
/// them for the CSR kinds, the non-empty ones (the listed ones) for DCSR.
template <class T>
SquareView square_view(SpmvKernelKind kind, const Csr<T>& a);
template <class T>
SquareView square_view(SpmvKernelKind kind, const Dcsr<T>& a);

}  // namespace model
}  // namespace blocktri
