// The paper's GPU kernels as cost accounting on the simulator (DESIGN.md
// §2). Each function reads a block's structure only, never its values, and
// charges what the kernel's GPU thread mapping does on the modelled device:
//
//   * diagonal      — §3.4's completely-parallel kernel: x_i = b_i / d_i,
//                     32 rows per warp, one launch;
//   * level_set     — Alg. 2 (Anderson & Saad, Saltz): one warp per
//                     component, one launch per level;
//   * sync_free     — Alg. 3 (Liu et al.): one warp per component, spinning
//                     on its in-degree and pushing atomics into its
//                     dependents' left_sum, over the CSC column view of the
//                     rows; one solve launch plus a reset launch;
//   * cusparse_like — Naumov's merged levels (cuSPARSE csrsv2): one thread
//                     per component, consecutive small levels share one
//                     launch and meet at grid syncs;
//   * spmv          — §3.4's update y ← y − A·x over a square's CSR or DCSR
//                     view: one thread per row (scalar kinds) or one warp
//                     per row (vector kinds).
//
// Cost drivers reproduced (§2.2/§4.2): dependency chains serialise through
// the atomic visibility latency, long columns make one warp issue many
// atomics, spinning warps hold SM residency, scalar kernels diverge to the
// longest row of their warp and read structure uncoalesced.
//
// The host runs none of this: the host kernels (sptrsv/, spmv/) compute x,
// and model/replay.hpp composes these accounts over a plan's steps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/levels.hpp"
#include "core/adaptive.hpp"
#include "sim/cache.hpp"
#include "sim/kernel_sim.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"

namespace blocktri::model {

/// Where one triangle kernel runs: the device, the cache the kernels of a
/// solve share (so locality carries across block boundaries, §2.2), the
/// precision and value width, the simulated addresses of the block's x and b
/// segments and of its left_sum / in_degree scratch, and the report its
/// launches go to.
struct TrsvSim {
  const sim::GpuSpec* gpu = nullptr;
  sim::CacheModel* cache = nullptr;
  bool fp64 = true;
  int elem = 8;  // bytes per value
  std::uint64_t x_base = 0;
  std::uint64_t b_base = 0;
  std::uint64_t aux_base = 0;
  sim::SolveReport* report = nullptr;
};

/// A triangle as the paper's kernels read it, viewing arrays its owner keeps
/// alive: the rows (diagonal last), their level sets (level-set and
/// cuSPARSE-like kernels) and the merged-kernel schedule (cuSPARSE-like,
/// first level of each launch). A diagonal block needs only `n`.
struct TriView {
  index_t n = 0;
  std::span<const offset_t> row_ptr;
  std::span<const index_t> col_idx;
  const LevelSets* levels = nullptr;
  std::span<const index_t> kernel_first_level;
};

/// A square as the paper stores it for its kind (§3.3): every row in
/// ascending order (CSR kinds), or only the non-empty rows, ascending, with
/// their ids (DCSR kinds). Structure only.
struct SquareView {
  bool dcsr = false;
  std::vector<offset_t> row_ptr{0};  // one entry per stored row, plus one
  std::vector<index_t> col_idx;
  std::vector<index_t> row_ids;  // DCSR: the id of each stored row
};

void diagonal(index_t n, const TrsvSim& s);
void level_set(const TriView& v, const TrsvSim& s);
void sync_free(const TriView& v, const TrsvSim& s);
void cusparse_like(const TriView& v, const TrsvSim& s);
/// The triangle kernel of `kind`.
void triangle(TriKernelKind kind, const TriView& v, const TrsvSim& s);

/// The SpMV kernel of `kind` adds one launch's tasks to `ks` (the caller
/// charges the launch); `v` must be the view of that kind, and `x_base` and
/// `y_base` are the x and y segments' addresses.
void spmv(SpmvKernelKind kind, const SquareView& v, sim::KernelSim& ks,
          int elem, std::uint64_t x_base, std::uint64_t y_base);

}  // namespace blocktri::model
