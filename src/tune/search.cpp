#include "tune/search.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

#include "analysis/features.hpp"
#include "analysis/levels.hpp"
#include "common/rng.hpp"
#include "model/replay.hpp"
#include "order/hbmc.hpp"
#include "sparse/triangular.hpp"

namespace blocktri::tune {

namespace {

std::atomic<std::uint64_t> g_tuning_runs{0};

// ---------------------------------------------------------------------------
// The search tree: plan_recursive's midpoint arithmetic, rebuilt locally so
// cuts can be enumerated without re-running the planner. Node 0 is the root;
// children of internal nodes are built left before right, so an in-order walk
// visits leaf ranges in ascending row order.

struct Node {
  index_t r0 = 0, r1 = 0;
  index_t mid = 0;  // split point (internal nodes only)
  int depth = 0;
  int left = -1, right = -1;  // -1 = leaf of the maximal tree

  // Features of the diagonal block [r0,r1) on the deep plan's stored matrix.
  offset_t tri_nnz = 0;
  index_t nlevels = 0;
  bool diagonal_only = false;
  TriKernelKind heur_tri = TriKernelKind::kSyncFree;

  // Features of the square block rows [mid,r1) × cols [r0,mid) (internal
  // nodes only).
  offset_t sq_nnz = 0;
  index_t sq_stored_rows = 0;  // non-empty rows (the DCSR iteration count)
  double sq_empty_ratio = 0.0;
  SpmvKernelKind heur_sq = SpmvKernelKind::kScalarCsr;
};

int build_tree(std::vector<Node>& nodes, index_t r0, index_t r1, int depth,
               const PlannerOptions& opt) {
  const int id = static_cast<int>(nodes.size());
  nodes.push_back({});
  nodes[id].r0 = r0;
  nodes[id].r1 = r1;
  nodes[id].depth = depth;
  const index_t rows = r1 - r0;
  if (rows / 2 < opt.stop_rows || depth >= opt.max_depth) return id;
  const index_t mid = r0 + rows / 2;
  nodes[id].mid = mid;
  const int l = build_tree(nodes, r0, mid, depth + 1, opt);
  nodes[id].left = l;  // assign after: the recursive call may reallocate
  const int r = build_tree(nodes, mid, r1, depth + 1, opt);
  nodes[id].right = r;
  return id;
}

/// The paper's Alg. 7 selection with the solver's diagonal demotion guard —
/// the exact kind the untuned cold constructor would pick for this block.
TriKernelKind heuristic_tri(const TriangularFeatures& feat,
                            const ThresholdTable& th) {
  TriKernelKind kind = select_tri_kernel(feat, th);
  if (kind == TriKernelKind::kCompletelyParallel && feat.nlevels > 1)
    kind = TriKernelKind::kSyncFree;
  return kind;
}

bool tri_kind_valid(const Node& nd, TriKernelKind k) {
  return k != TriKernelKind::kCompletelyParallel || nd.diagonal_only;
}

double model_tri_cost(const CostModel& m, const Node& nd, TriKernelKind k) {
  return m.predict_tri(k, nd.r1 - nd.r0, nd.tri_nnz, nd.nlevels);
}

double model_sq_cost(const CostModel& m, const Node& nd, SpmvKernelKind k,
                     double launch_ns) {
  if (nd.sq_nnz == 0) return launch_ns;  // the sim still charges the launch
  const index_t rows =
      is_dcsr(k) ? nd.sq_stored_rows : nd.r1 - nd.mid;
  return m.predict_square(k, rows, nd.sq_nnz);
}

TriKernelKind model_best_tri(const CostModel& m, const Node& nd) {
  TriKernelKind best = nd.heur_tri;
  double best_c = model_tri_cost(m, nd, best);
  for (int k = 0; k < 4; ++k) {
    const auto kind = static_cast<TriKernelKind>(k);
    if (!tri_kind_valid(nd, kind)) continue;
    const double c = model_tri_cost(m, nd, kind);
    if (c < best_c) {
      best_c = c;
      best = kind;
    }
  }
  return best;
}

SpmvKernelKind model_best_sq(const CostModel& m, const Node& nd,
                             double launch_ns) {
  if (nd.sq_nnz == 0) return SpmvKernelKind::kScalarCsr;
  SpmvKernelKind best = nd.heur_sq;
  double best_c = model_sq_cost(m, nd, best, launch_ns);
  for (int k = 0; k < 4; ++k) {
    const auto kind = static_cast<SpmvKernelKind>(k);
    const double c = model_sq_cost(m, nd, kind, launch_ns);
    if (c < best_c) {
      best_c = c;
      best = kind;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Oracle: the model replay BlockSolver::solve_simulated runs (model/replay.hpp)
// — one warm pass, then the measured pass, against a fresh cache. The views
// are memoized per block, so an annealing move only pays for the blocks it
// exposed.

/// One step of a candidate plan, resolved to global ranges + kernel choice.
struct SimStep {
  bool tri = false;
  index_t r0 = 0, r1 = 0;  // tri: diagonal range; square: row range
  index_t c0 = 0, c1 = 0;  // square: column range
  int kind = 0;            // TriKernelKind or SpmvKernelKind
};

template <class T>
class ViewMemo {
 public:
  ViewMemo(const Csr<T>* stored, ThreadPool* pool)
      : stored_(stored), pool_(pool) {}

  const model::TriStructure& tri(index_t r0, index_t r1) {
    const auto key = std::make_pair(r0, r1);
    auto it = tri_.find(key);
    if (it != tri_.end()) return it->second;
    return tri_
        .emplace(key, model::tri_structure(
                          extract_block(*stored_, r0, r1, r0, r1), pool_))
        .first->second;
  }

  const model::SquareView& sq(index_t r0, index_t r1, index_t c0, index_t c1,
                              SpmvKernelKind kind) {
    const auto key = std::make_tuple(r0, r1, c0, is_dcsr(kind));
    auto it = sq_.find(key);
    if (it != sq_.end()) return it->second;
    return sq_
        .emplace(key, model::square_view(
                          kind, extract_block(*stored_, r0, r1, c0, c1)))
        .first->second;
  }

 private:
  const Csr<T>* stored_;
  ThreadPool* pool_;
  std::map<std::pair<index_t, index_t>, model::TriStructure> tri_;
  std::map<std::tuple<index_t, index_t, index_t, bool>, model::SquareView> sq_;
};

template <class T>
double simulate_candidate(ViewMemo<T>& memo,
                          const std::vector<SimStep>& steps, index_t n,
                          const sim::GpuSpec& gpu) {
  std::vector<model::Step> plan(steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const SimStep& st = steps[s];
    plan[s].r0 = st.r0;
    if (st.tri) {
      plan[s].tri = memo.tri(st.r0, st.r1).view();
      plan[s].tri_kind = static_cast<TriKernelKind>(st.kind);
    } else {
      plan[s].c0 = st.c0;
      plan[s].square_kind = static_cast<SpmvKernelKind>(st.kind);
      plan[s].square = &memo.sq(st.r0, st.r1, st.c0, st.c1,
                                plan[s].square_kind);
    }
  }
  return model::replay_warm(plan, n, gpu, sizeof(T) == 8,
                           static_cast<int>(sizeof(T)))
      .ns;
}

// ---------------------------------------------------------------------------
// Fixed plans (the default plan D and the HBMC plan H).

/// A fixed plan's blocks priced for the search: each triangle's level count
/// and each square's empty ratio, and every block's kind under Alg. 7's
/// heuristics and under the cost model (the heuristic one when the model is
/// invalid or no better).
struct PlanKinds {
  std::vector<index_t> tri_nlevels;
  std::vector<TriKernelKind> heur_tri, model_tri;
  std::vector<double> sq_empty;
  std::vector<SpmvKernelKind> heur_sq, model_sq;
};

template <class T>
PlanKinds price_plan(const BlockPlan& plan, const Csr<T>& stored,
                     const ThresholdTable& thresholds, const CostModel& model,
                     double launch_ns) {
  PlanKinds k;
  for (index_t t = 0; t < plan.num_tri_blocks(); ++t) {
    Node nd;
    nd.r0 = plan.tri_bounds[static_cast<std::size_t>(t)];
    nd.r1 = plan.tri_bounds[static_cast<std::size_t>(t) + 1];
    const Csr<T> blk = extract_block(stored, nd.r0, nd.r1, nd.r0, nd.r1);
    const TriangularFeatures feat = compute_triangular_features(blk);
    nd.tri_nnz = blk.nnz();
    nd.nlevels = feat.nlevels;
    nd.diagonal_only = feat.base.diagonal_only;
    nd.heur_tri = heuristic_tri(feat, thresholds);
    k.tri_nlevels.push_back(feat.nlevels);
    k.heur_tri.push_back(nd.heur_tri);
    k.model_tri.push_back(model.valid ? model_best_tri(model, nd)
                                      : nd.heur_tri);
  }
  for (const SquareBlockRef& ref : plan.squares) {
    const Csr<T> blk = extract_block(stored, ref.r0, ref.r1, ref.c0, ref.c1);
    if (blk.nnz() == 0) {
      k.heur_sq.push_back(SpmvKernelKind::kScalarCsr);
      k.model_sq.push_back(SpmvKernelKind::kScalarCsr);
      k.sq_empty.push_back(ref.r1 > ref.r0 ? 1.0 : 0.0);
      continue;
    }
    const MatrixFeatures feat = compute_features(blk);
    Node nd;
    nd.r0 = ref.c0;
    nd.mid = ref.r0;
    nd.r1 = ref.r1;
    nd.left = 0;  // mark internal so model_sq_cost sees a square
    nd.sq_nnz = blk.nnz();
    nd.sq_stored_rows = static_cast<index_t>(std::lround(
        (1.0 - feat.empty_ratio) * static_cast<double>(ref.r1 - ref.r0)));
    nd.heur_sq = select_square_kernel(feat, thresholds);
    k.sq_empty.push_back(feat.empty_ratio);
    k.heur_sq.push_back(nd.heur_sq);
    k.model_sq.push_back(model.valid ? model_best_sq(model, nd, launch_ns)
                                     : nd.heur_sq);
  }
  return k;
}

/// The steps of `plan` under the given per-block kinds.
std::vector<SimStep> plan_steps(const BlockPlan& plan,
                                const std::vector<TriKernelKind>& tk,
                                const std::vector<SpmvKernelKind>& sk) {
  std::vector<SimStep> steps;
  for (const ExecStep& es : plan.steps) {
    const auto idx = static_cast<std::size_t>(es.index);
    SimStep st;
    if (es.kind == ExecStep::Kind::kTri) {
      st.tri = true;
      st.r0 = plan.tri_bounds[idx];
      st.r1 = plan.tri_bounds[idx + 1];
      st.kind = static_cast<int>(tk[idx]);
    } else {
      const SquareBlockRef& ref = plan.squares[idx];
      st.r0 = ref.r0;
      st.r1 = ref.r1;
      st.c0 = ref.c0;
      st.c1 = ref.c1;
      st.kind = static_cast<int>(sk[idx]);
    }
    steps.push_back(st);
  }
  return steps;
}

// ---------------------------------------------------------------------------
// Cut manipulation.

/// In-order walk of the cut: tri step per cut leaf, square step between the
/// halves of every internal node above the cut.
void cut_steps(const std::vector<Node>& nodes,
               const std::vector<char>& in_cut,
               const std::vector<TriKernelKind>& tri_kind,
               const std::vector<SpmvKernelKind>& sq_kind, int id,
               std::vector<SimStep>* out) {
  const Node& nd = nodes[static_cast<std::size_t>(id)];
  if (in_cut[static_cast<std::size_t>(id)]) {
    SimStep st;
    st.tri = true;
    st.r0 = nd.r0;
    st.r1 = nd.r1;
    st.kind = static_cast<int>(tri_kind[static_cast<std::size_t>(id)]);
    out->push_back(st);
    return;
  }
  cut_steps(nodes, in_cut, tri_kind, sq_kind, nd.left, out);
  SimStep st;
  st.tri = false;
  st.r0 = nd.mid;
  st.r1 = nd.r1;
  st.c0 = nd.r0;
  st.c1 = nd.mid;
  st.kind = static_cast<int>(sq_kind[static_cast<std::size_t>(id)]);
  out->push_back(st);
  cut_steps(nodes, in_cut, tri_kind, sq_kind, nd.right, out);
}

double model_steps_cost(const CostModel& m, const std::vector<Node>& nodes,
                        const std::vector<SimStep>& steps, double launch_ns) {
  // Only used for the reported model_*_ns stats; finds each step's node by
  // range (the node list is tiny).
  double total = 0.0;
  for (const SimStep& st : steps) {
    for (const Node& nd : nodes) {
      if (st.tri && nd.r0 == st.r0 && nd.r1 == st.r1) {
        total += model_tri_cost(m, nd, static_cast<TriKernelKind>(st.kind));
        break;
      }
      if (!st.tri && nd.left >= 0 && nd.mid == st.r0 && nd.r1 == st.r1 &&
          nd.r0 == st.c0) {
        total +=
            model_sq_cost(m, nd, static_cast<SpmvKernelKind>(st.kind),
                          launch_ns);
        break;
      }
    }
  }
  return total;
}

}  // namespace

std::uint64_t tuning_run_count() {
  return g_tuning_runs.load(std::memory_order_relaxed);
}

template <class T>
TunedPlan<T> autotune_recursive(const Csr<T>& lower,
                                const PlannerOptions& planner,
                                const ThresholdTable& thresholds,
                                const CostModel& model,
                                const TuneOptions& topt, ThreadPool* pool) {
  g_tuning_runs.fetch_add(1, std::memory_order_relaxed);
  const index_t n = lower.nrows;
  const double launch_ns = topt.gpu.kernel_launch_ns;

  TunedPlan<T> tp;
  tp.merge_width =
      model.valid ? model.preferred_merge_width : kLevelMergeMaxWidth;
  tp.stats.merge_width = tp.merge_width;

  // --- Candidate D: today's plan under today's heuristics. Computed first
  // and replicated exactly, so falling back reproduces the untuned solver
  // bit for bit.
  Csr<T> dstored;
  BlockPlan dplan = plan_recursive(lower, planner, &dstored, pool);

  const PlanKinds dk =
      price_plan(dplan, dstored, thresholds, model, launch_ns);

  ViewMemo<T> dctx(&dstored, pool);
  const std::vector<SimStep> d_heur_steps =
      plan_steps(dplan, dk.heur_tri, dk.heur_sq);
  const double ns_d_heur = simulate_candidate(dctx, d_heur_steps, n, topt.gpu);
  const bool d_model_differs =
      dk.model_tri != dk.heur_tri || dk.model_sq != dk.heur_sq;
  const std::vector<SimStep> d_model_steps =
      plan_steps(dplan, dk.model_tri, dk.model_sq);
  const double ns_d_model =
      d_model_differs ? simulate_candidate(dctx, d_model_steps, n, topt.gpu)
                      : ns_d_heur;

  // --- Candidates from the deeper tree M. Tightening the stop rule ~8×
  // (floor 64 rows so leaves stay meaningful) adds up to 3 depths; D's tree
  // is an arithmetic prefix of M's, so the "D rule" cut of M has D's bounds —
  // under M's (deeper) permutation.
  PlannerOptions pm = planner;
  pm.stop_rows = std::min(
      planner.stop_rows,
      std::max<index_t>(64, planner.stop_rows / 8));
  pm.max_depth = planner.max_depth + 3;
  Csr<T> mstored;
  BlockPlan mplan = plan_recursive(lower, pm, &mstored, pool);

  std::vector<Node> nodes;
  build_tree(nodes, 0, n, 0, pm);
  {
    // The local tree must reproduce the planner's leaves exactly.
    std::vector<index_t> bounds;
    bounds.push_back(0);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (nodes[i].left < 0) bounds.push_back(nodes[i].r1);
    std::sort(bounds.begin(), bounds.end());
    BLOCKTRI_CHECK_MSG(bounds == mplan.tri_bounds,
                       "tuner tree disagrees with plan_recursive");
  }

  std::vector<TriKernelKind> tri_kind(nodes.size());
  std::vector<SpmvKernelKind> sq_kind(nodes.size(),
                                      SpmvKernelKind::kScalarCsr);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node& nd = nodes[i];
    const Csr<T> blk = extract_block(mstored, nd.r0, nd.r1, nd.r0, nd.r1);
    const TriangularFeatures feat = compute_triangular_features(blk);
    nd.tri_nnz = blk.nnz();
    nd.nlevels = feat.nlevels;
    nd.diagonal_only = feat.base.diagonal_only;
    nd.heur_tri = heuristic_tri(feat, thresholds);
    tri_kind[i] = model.valid ? model_best_tri(model, nd) : nd.heur_tri;
    if (nd.left >= 0) {
      const Csr<T> sq = extract_block(mstored, nd.mid, nd.r1, nd.r0, nd.mid);
      nd.sq_nnz = sq.nnz();
      if (sq.nnz() > 0) {
        const MatrixFeatures sf = compute_features(sq);
        nd.sq_empty_ratio = sf.empty_ratio;
        nd.sq_stored_rows = static_cast<index_t>(
            std::lround((1.0 - sf.empty_ratio) *
                        static_cast<double>(nd.r1 - nd.mid)));
        nd.heur_sq = select_square_kernel(sf, thresholds);
      } else {
        nd.sq_empty_ratio = nd.r1 > nd.mid ? 1.0 : 0.0;
        nd.sq_stored_rows = 0;
        nd.heur_sq = SpmvKernelKind::kScalarCsr;
      }
      sq_kind[i] = model.valid ? model_best_sq(model, nd, launch_ns)
                               : nd.heur_sq;
    }
  }

  // --- Initial cut: bottom-up DP on the model when it is valid (leaf cost
  // vs. children + square), else the D-rule cut of M's tree.
  std::vector<char> in_cut(nodes.size(), 0);
  if (model.valid) {
    std::vector<double> dp(nodes.size(), 0.0);
    std::vector<char> split(nodes.size(), 0);
    for (std::size_t i = nodes.size(); i-- > 0;) {
      const Node& nd = nodes[i];
      const double leaf_c = model_tri_cost(model, nd, tri_kind[i]);
      dp[i] = leaf_c;
      if (nd.left >= 0) {
        const double split_c =
            dp[static_cast<std::size_t>(nd.left)] +
            model_sq_cost(model, nd, sq_kind[i], launch_ns) +
            dp[static_cast<std::size_t>(nd.right)];
        if (split_c < leaf_c) {
          dp[i] = split_c;
          split[i] = 1;
        }
      }
    }
    // Children of unsplit nodes are unreachable; mark the frontier.
    std::vector<int> stack{0};
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (split[static_cast<std::size_t>(id)]) {
        stack.push_back(nodes[static_cast<std::size_t>(id)].left);
        stack.push_back(nodes[static_cast<std::size_t>(id)].right);
      } else {
        in_cut[static_cast<std::size_t>(id)] = 1;
      }
    }
  } else {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& nd = nodes[i];
      const bool d_leaf = (nd.r1 - nd.r0) / 2 < planner.stop_rows ||
                          nd.depth >= planner.max_depth;
      // A node is in the D-rule cut when it is a leaf by D's rule and none
      // of its ancestors is (ancestors of a D-leaf are never D-leaves, so
      // marking every D-leaf whose range is not inside another D-leaf's
      // range reduces to: shallowest D-leaf on each root-to-leaf path).
      if (d_leaf) in_cut[i] = 1;
    }
    // Keep only the shallowest cut node on each path.
    std::vector<int> stack{0};
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      const Node& nd = nodes[static_cast<std::size_t>(id)];
      if (in_cut[static_cast<std::size_t>(id)]) {
        // Clear any marked descendants.
        std::vector<int> sub;
        if (nd.left >= 0) sub = {nd.left, nd.right};
        while (!sub.empty()) {
          const int s = sub.back();
          sub.pop_back();
          in_cut[static_cast<std::size_t>(s)] = 0;
          const Node& sn = nodes[static_cast<std::size_t>(s)];
          if (sn.left >= 0) {
            sub.push_back(sn.left);
            sub.push_back(sn.right);
          }
        }
        continue;
      }
      if (nd.left >= 0) {
        stack.push_back(nd.left);
        stack.push_back(nd.right);
      } else {
        in_cut[static_cast<std::size_t>(id)] = 1;  // M-leaf fallback
      }
    }
  }

  ViewMemo<T> mctx(&mstored, pool);
  auto eval_cut = [&] {
    std::vector<SimStep> steps;
    cut_steps(nodes, in_cut, tri_kind, sq_kind, 0, &steps);
    return simulate_candidate(mctx, steps, n, topt.gpu);
  };
  double cur_ns = eval_cut();

  std::vector<char> best_cut = in_cut;
  std::vector<TriKernelKind> best_tri = tri_kind;
  std::vector<SpmvKernelKind> best_sq = sq_kind;
  double best_ns = cur_ns;

  // --- Bounded simulated annealing over the cut and kernel choices.
  const int iters = std::max(0, topt.sa_iterations);
  if (iters > 0 && nodes.size() > 1) {
    Rng rng(topt.seed);
    double temp = std::max(1.0, 0.05 * cur_ns);
    const double alpha =
        std::pow(0.01, 1.0 / static_cast<double>(iters));
    for (int it = 0; it < iters; ++it, temp *= alpha) {
      // Applicable moves: 0 = collapse two sibling cut leaves, 1 = expand a
      // cut leaf, 2 = flip a tri kernel, 3 = flip a square kernel.
      const int want = static_cast<int>(rng.uniform_int(0, 3));
      int applied = -1;
      int touched = -1;
      TriKernelKind saved_tri{};
      SpmvKernelKind saved_sq{};
      // Internal nodes above the cut — the ones whose square step the
      // current candidate actually executes. in_cut is an antichain, so
      // moves 0–2 can test membership directly; move 3 needs reachability.
      std::vector<char> above(nodes.size(), 0);
      {
        std::vector<int> stack{0};
        while (!stack.empty()) {
          const int id = stack.back();
          stack.pop_back();
          if (in_cut[static_cast<std::size_t>(id)]) continue;
          above[static_cast<std::size_t>(id)] = 1;
          stack.push_back(nodes[static_cast<std::size_t>(id)].left);
          stack.push_back(nodes[static_cast<std::size_t>(id)].right);
        }
      }
      for (int attempt = 0; attempt < 4 && applied < 0; ++attempt) {
        const int move = (want + attempt) % 4;
        std::vector<int> options;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          const Node& nd = nodes[i];
          switch (move) {
            case 0:
              if (nd.left >= 0 &&
                  in_cut[static_cast<std::size_t>(nd.left)] &&
                  in_cut[static_cast<std::size_t>(nd.right)])
                options.push_back(static_cast<int>(i));
              break;
            case 1:
              if (in_cut[i] && nd.left >= 0)
                options.push_back(static_cast<int>(i));
              break;
            case 2:
              if (in_cut[i]) options.push_back(static_cast<int>(i));
              break;
            case 3:
              if (above[i] && nd.sq_nnz > 0)
                options.push_back(static_cast<int>(i));
              break;
          }
        }
        if (options.empty()) continue;
        const int pick = options[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(options.size()) - 1))];
        touched = pick;
        const Node& nd = nodes[static_cast<std::size_t>(pick)];
        switch (move) {
          case 0:
            in_cut[static_cast<std::size_t>(nd.left)] = 0;
            in_cut[static_cast<std::size_t>(nd.right)] = 0;
            in_cut[static_cast<std::size_t>(pick)] = 1;
            break;
          case 1:
            in_cut[static_cast<std::size_t>(pick)] = 0;
            in_cut[static_cast<std::size_t>(nd.left)] = 1;
            in_cut[static_cast<std::size_t>(nd.right)] = 1;
            break;
          case 2: {
            saved_tri = tri_kind[static_cast<std::size_t>(pick)];
            TriKernelKind alt = saved_tri;
            for (int spin = 0; spin < 8 && alt == saved_tri; ++spin) {
              const auto cand =
                  static_cast<TriKernelKind>(rng.uniform_int(0, 3));
              if (tri_kind_valid(nd, cand)) alt = cand;
            }
            if (alt == saved_tri) {
              touched = -1;
              continue;
            }
            tri_kind[static_cast<std::size_t>(pick)] = alt;
            break;
          }
          case 3: {
            saved_sq = sq_kind[static_cast<std::size_t>(pick)];
            SpmvKernelKind alt = saved_sq;
            for (int spin = 0; spin < 8 && alt == saved_sq; ++spin)
              alt = static_cast<SpmvKernelKind>(rng.uniform_int(0, 3));
            if (alt == saved_sq) {
              touched = -1;
              continue;
            }
            sq_kind[static_cast<std::size_t>(pick)] = alt;
            break;
          }
        }
        applied = move;
      }
      if (applied < 0) break;  // no applicable move anywhere
      ++tp.stats.sa_moves;

      const double ns = eval_cut();
      const double d = ns - cur_ns;
      const bool accept =
          d < 0.0 || rng.uniform() < std::exp(-d / std::max(temp, 1e-9));
      if (accept) {
        ++tp.stats.sa_accepted;
        cur_ns = ns;
        if (ns < best_ns) {
          best_ns = ns;
          best_cut = in_cut;
          best_tri = tri_kind;
          best_sq = sq_kind;
        }
      } else {
        // Revert.
        const Node& nd = nodes[static_cast<std::size_t>(touched)];
        switch (applied) {
          case 0:
            in_cut[static_cast<std::size_t>(touched)] = 0;
            in_cut[static_cast<std::size_t>(nd.left)] = 1;
            in_cut[static_cast<std::size_t>(nd.right)] = 1;
            break;
          case 1:
            in_cut[static_cast<std::size_t>(nd.left)] = 0;
            in_cut[static_cast<std::size_t>(nd.right)] = 0;
            in_cut[static_cast<std::size_t>(touched)] = 1;
            break;
          case 2:
            tri_kind[static_cast<std::size_t>(touched)] = saved_tri;
            break;
          case 3:
            sq_kind[static_cast<std::size_t>(touched)] = saved_sq;
            break;
        }
      }
    }
  }

  // --- Candidate H: the HBMC scheme (DESIGN.md §16), priced only when the
  // depth-vs-colors gate says the matrix is deep enough that trading
  // locality for a fixed sync-step count could pay. The cost model's fixed
  // per-step launch price is exactly what a small color count amortises, so
  // the oracle comparison below is where "search may pick kHbmc" happens.
  bool hbmc_built = false;
  double ns_hbmc = 0.0;
  BlockPlan hplan;
  PlanKinds hk;
  if (topt.consider_hbmc &&
      prefer_hbmc(compute_level_sets(lower, pool).nlevels,
                  planner.hbmc_max_colors, thresholds)) {
    Csr<T> hstored;
    hplan = order::plan_hbmc(lower, planner,
                             static_cast<index_t>(tp.merge_width), &hstored,
                             pool);
    hk = price_plan(hplan, hstored, thresholds, model, launch_ns);
    ViewMemo<T> hctx(&hstored, pool);
    ns_hbmc = simulate_candidate(
        hctx, plan_steps(hplan, hk.model_tri, hk.model_sq), n, topt.gpu);
    hbmc_built = true;
  }

  // --- Final selection: ties go to the earliest candidate, so D with the
  // paper's heuristics wins unless something is strictly better under the
  // oracle.
  tp.stats.oracle_default_ns = ns_d_heur;
  tp.stats.model_default_ns =
      model_steps_cost(model, nodes, d_heur_steps, launch_ns);

  enum class Winner { kDefaultHeur, kDefaultModel, kCut, kHbmc };
  Winner winner = Winner::kDefaultHeur;
  double winner_ns = ns_d_heur;
  if (d_model_differs && ns_d_model < winner_ns) {
    winner = Winner::kDefaultModel;
    winner_ns = ns_d_model;
  }
  if (best_ns < winner_ns) {
    winner = Winner::kCut;
    winner_ns = best_ns;
  }
  if (hbmc_built && ns_hbmc < winner_ns) {
    winner = Winner::kHbmc;
    winner_ns = ns_hbmc;
  }
  tp.stats.oracle_tuned_ns = winner_ns;
  tp.stats.fell_back = winner == Winner::kDefaultHeur;

  if (winner == Winner::kHbmc) {
    tp.plan = std::move(hplan);
    tp.tri_kinds = std::move(hk.model_tri);
    tp.tri_nlevels = std::move(hk.tri_nlevels);
    tp.square_kinds = std::move(hk.model_sq);
    tp.square_empty_ratio = std::move(hk.sq_empty);
    // The M-tree node list cannot price HBMC's blocks; report the oracle
    // number so the stats stay meaningful.
    tp.stats.model_tuned_ns = ns_hbmc;
    return tp;
  }

  if (winner == Winner::kDefaultHeur || winner == Winner::kDefaultModel) {
    const bool heur = winner == Winner::kDefaultHeur;
    tp.plan = std::move(dplan);
    tp.tri_kinds = heur ? dk.heur_tri : dk.model_tri;
    tp.tri_nlevels = dk.tri_nlevels;
    tp.square_kinds = heur ? dk.heur_sq : dk.model_sq;
    tp.square_empty_ratio = dk.sq_empty;
    tp.stats.model_tuned_ns = model_steps_cost(
        model, nodes, heur ? d_heur_steps : d_model_steps, launch_ns);
    return tp;
  }

  // --- Materialize the winning cut as a BlockPlan under M's permutation.
  BlockPlan p;
  p.scheme = BlockScheme::kRecursive;
  p.n = n;
  p.new_of_old = mplan.new_of_old;
  p.host_ops = mplan.host_ops;
  p.host_bytes = mplan.host_bytes;
  std::vector<SimStep> steps;
  cut_steps(nodes, best_cut, best_tri, best_sq, 0, &steps);
  p.tri_bounds.push_back(0);
  for (const SimStep& st : steps) {
    if (st.tri) {
      p.tri_bounds.push_back(st.r1);
      p.steps.push_back(
          {ExecStep::Kind::kTri,
           static_cast<index_t>(p.tri_bounds.size()) - 2});
      tp.tri_kinds.push_back(static_cast<TriKernelKind>(st.kind));
    } else {
      p.squares.push_back({st.r0, st.r1, st.c0, st.c1});
      p.steps.push_back(
          {ExecStep::Kind::kSquare,
           static_cast<index_t>(p.squares.size()) - 1});
      tp.square_kinds.push_back(static_cast<SpmvKernelKind>(st.kind));
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (best_cut[i])
      p.depth_used = std::max(p.depth_used, nodes[i].depth);
  }
  // Per-block metadata in plan order, from the tree features.
  for (const SimStep& st : steps) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Node& nd = nodes[i];
      if (st.tri && best_cut[i] && nd.r0 == st.r0 && nd.r1 == st.r1) {
        tp.tri_nlevels.push_back(nd.nlevels);
        break;
      }
      if (!st.tri && !best_cut[i] && nd.left >= 0 && nd.mid == st.r0 &&
          nd.r1 == st.r1 && nd.r0 == st.c0) {
        tp.square_empty_ratio.push_back(
            nd.sq_nnz > 0 ? nd.sq_empty_ratio
                          : (nd.r1 > nd.mid ? 1.0 : 0.0));
        break;
      }
    }
  }
  tp.stats.model_tuned_ns = model_steps_cost(model, nodes, steps, launch_ns);
  tp.plan = std::move(p);
  return tp;
}

template TunedPlan<float> autotune_recursive<float>(
    const Csr<float>&, const PlannerOptions&, const ThresholdTable&,
    const CostModel&, const TuneOptions&, ThreadPool*);
template TunedPlan<double> autotune_recursive<double>(
    const Csr<double>&, const PlannerOptions&, const ThresholdTable&,
    const CostModel&, const TuneOptions&, ThreadPool*);

}  // namespace blocktri::tune
