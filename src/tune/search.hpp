// Cost-model-driven plan search for the recursive scheme (DESIGN.md §13).
//
// The search space is the set of *cuts* of a deeper-than-default recursion
// tree: plan_recursive's tree is pure midpoint arithmetic, and its §3.3
// reordering level-orders all nodes of one depth at once, composing one
// permutation over the depths, so any antichain of leaves of a deeper tree —
// under that tree's permutation, with the in-order square interleaving — is
// a correct plan. The tuner therefore:
//
//   1. builds the default plan D (the paper's stop rule) and a maximal plan M
//      (stop rule tightened ~8×, a few extra depths),
//   2. runs a greedy bottom-up DP over M's tree with the calibrated CostModel
//      choosing split-vs-leaf and the per-block kernel at each node,
//   3. refines with bounded simulated annealing (SET's PartEngine/sa.h
//      style): collapse/expand moves on the cut plus kernel flips, scored by
//      the oracle — the model replay solve_simulated runs (model/replay.hpp)
//      under the fresh-cache, warm-pass-then-measure protocol of the fig6
//      bench, with each block's structural view memoized across candidates,
//   4. picks the oracle-argmin among {D with the paper's Alg. 7 kernels,
//      D with model-chosen kernels, the annealed cut}. D-with-heuristics wins
//      ties, so a tuned solver is never worse than the default under the
//      oracle, and falling back reproduces today's plan bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/adaptive.hpp"
#include "core/plan.hpp"
#include "sim/machine.hpp"
#include "sparse/formats.hpp"
#include "sptrsv/levelset.hpp"
#include "tune/cost_model.hpp"

namespace blocktri::tune {

struct TuneOptions {
  /// Master switch (Options::tune.enabled). Off = the planner and adaptive
  /// selector run exactly as today; plans are byte-for-byte unchanged.
  bool enabled = false;
  /// Device model the oracle scores candidates on — must match the device
  /// the solve will be simulated/executed against for the tuning to help.
  sim::GpuSpec gpu = sim::titan_rtx();
  /// On-disk cost-model cache (.btcm); empty = in-process cache only.
  std::string model_path;
  /// Simulated-annealing budget (moves). 0 disables the refinement pass and
  /// keeps the greedy model-driven cut.
  int sa_iterations = 24;
  /// Seed of the annealer's deterministic Rng.
  std::uint64_t seed = 0x73612d736565ULL;
  /// Let the search price a BlockScheme::kHbmc candidate (DESIGN.md §16)
  /// when the matrix's level depth clears the depth-vs-colors gate
  /// (ThresholdTable::hbmc_depth_per_color); the oracle then decides whether
  /// its fixed sync-step count beats every recursive candidate.
  bool consider_hbmc = true;
};

struct TuneStats {
  /// True when the default plan with the paper's heuristics won the final
  /// comparison — the tuned solver is then bitwise identical to an untuned
  /// one (modulo the host-only level-merge width).
  bool fell_back = false;
  double model_default_ns = 0.0;  // CostModel prediction of the default plan
  double model_tuned_ns = 0.0;    // CostModel prediction of the chosen plan
  double oracle_default_ns = 0.0; // exact-sim time of the default plan
  double oracle_tuned_ns = 0.0;   // exact-sim time of the chosen plan
  int sa_moves = 0;
  int sa_accepted = 0;
  offset_t merge_width = kLevelMergeMaxWidth;
};

/// The decisions BlockSolver's cold build adopts from a tuned plan: the
/// plan and the per-block kernel choices (with the level counts and empty
/// ratios the search priced them by). The build fills the blocks from the
/// caller's matrix itself.
template <class T>
struct TunedPlan {
  BlockPlan plan;
  std::vector<TriKernelKind> tri_kinds;      // per tri leaf, plan order
  std::vector<index_t> tri_nlevels;          // level count of each tri leaf
  std::vector<SpmvKernelKind> square_kinds;  // per square, plan order
  std::vector<double> square_empty_ratio;
  offset_t merge_width = kLevelMergeMaxWidth;
  TuneStats stats;
};

/// Process-wide count of autotune_recursive runs (atomic) — the "tuning is
/// paid once per matrix" contract is asserted by diffing this counter around
/// warm create_from_file / PlanCache paths.
std::uint64_t tuning_run_count();

/// Tunes a recursive-scheme plan for `lower`. Deterministic in (matrix,
/// planner, thresholds, model, topt). `pool` parallelises the planner's
/// per-depth level analyses, exactly as in the untuned path.
template <class T>
TunedPlan<T> autotune_recursive(const Csr<T>& lower,
                                const PlannerOptions& planner,
                                const ThresholdTable& thresholds,
                                const CostModel& model,
                                const TuneOptions& topt,
                                ThreadPool* pool = nullptr);

}  // namespace blocktri::tune
