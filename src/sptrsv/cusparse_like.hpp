// cuSPARSE-v2-style SpTRSV stand-in (see DESIGN.md §2).
//
// cuSPARSE's csrsv2 is closed source; its public description (Naumov,
// "Parallel Solution of Sparse Triangular Linear Systems in the
// Preconditioned Iterative Methods on the GPU", NVIDIA TR 2011 — the paper's
// [58]) is a level-scheduling method that merges consecutive *small* levels
// into a single kernel to amortise launch overhead, synchronising the merged
// levels with a cheap intra-kernel device-wide barrier instead of a fresh
// launch. That merging is why cuSPARSE stays usable on matrices with
// thousands of levels (Table 4: vas_stokes_4M, 2815 levels, 15.39 GFlops)
// where a naive one-launch-per-level scheme would drown in launches — and
// why the paper routes "nlevels > 20000" blocks to cuSPARSE (Alg. 7).
//
// The merged schedule only shapes the GPU's launches and syncs, so the
// model's cusparse_like kernel (model/kernels.hpp) derives it from the level
// sets; the host solves the block in one flat pass over the level-ordered
// rows and holds no schedule.
#pragma once

#include <span>
#include <vector>

#include "analysis/levels.hpp"
#include "common/deadline.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

template <class T>
class CusparseLikeSolver {
 public:
  explicit CusparseLikeSolver(Csr<T> lower);

  /// Adopting constructor (plan rehydration, and BlockSolver's build, which
  /// computes the levels while it fills the block): takes a level analysis
  /// instead of re-deriving it.
  CusparseLikeSolver(Csr<T> lower, LevelSets levels);

  /// `ctl` is the solve session's cooperative control. The host path is one
  /// flat pass with no natural barriers, so when a deadline or cancel token
  /// is actually armed the pass is chunked (same item order — bitwise
  /// identical) with a poll between chunks; unarmed solves keep the single
  /// flat call.
  void solve(const T* b, T* x, const ExecControl* ctl = nullptr) const;

  /// Batched solve of k right-hand sides (row-interleaved panel, row
  /// stride `ld`): the level-ordered rows are walked once and every row
  /// visit solves all k columns. Like solve(), it is intentionally serial,
  /// and per column it is bitwise identical to k single solves.
  void solve_many(const T* b, T* x, index_t k, index_t ld,
                  const ExecControl* ctl = nullptr) const;

  const Csr<T>& matrix() const { return a_; }
  const LevelSets& levels() const { return ls_; }
  /// matrix()'s value array as a fixed-length view, written in place by
  /// BlockSolver's one-pass value install; structure and levels stay fixed.
  std::span<T> values() { return a_.val; }

 private:
  Csr<T> a_;
  LevelSets ls_;
};

}  // namespace blocktri
