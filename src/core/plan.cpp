#include "core/plan.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/levels.hpp"
#include "sparse/permute.hpp"

namespace blocktri {

std::string to_string(BlockScheme s) {
  switch (s) {
    case BlockScheme::kColumn: return "column-block";
    case BlockScheme::kRow: return "row-block";
    case BlockScheme::kRecursive: return "recursive-block";
    case BlockScheme::kHbmc: return "hbmc-block";
  }
  return "?";
}

std::vector<index_t> uniform_boundaries(index_t n, index_t nseg) {
  BLOCKTRI_CHECK(nseg >= 1);
  std::vector<index_t> b(static_cast<std::size_t>(nseg) + 1);
  for (index_t s = 0; s <= nseg; ++s)
    b[static_cast<std::size_t>(s)] = static_cast<index_t>(
        static_cast<std::int64_t>(n) * s / nseg);
  return b;
}

namespace {

/// More segments than rows would make uniform_boundaries repeat values,
/// yielding empty triangular blocks and zero-area squares in the plan.
/// Clamping keeps every segment non-empty (n == 0 still plans one empty
/// segment so the degenerate system flows through the normal executor).
index_t clamp_nseg(index_t n, index_t nseg) {
  return std::max<index_t>(1, std::min(nseg, n));
}

/// Invariant after clamping: every triangular segment is non-empty (strictly
/// increasing boundaries) except in the n == 0 single-segment plan.
void check_segments_nonempty(const std::vector<index_t>& b, index_t n) {
  for (std::size_t s = 0; s + 1 < b.size(); ++s)
    BLOCKTRI_CHECK_MSG(n == 0 || b[s] < b[s + 1],
                       "planner produced an empty triangular segment");
}

}  // namespace

std::int64_t BlockPlan::b_items_updated() const {
  // Triangular solves consume each b entry once ...
  std::int64_t total = n;
  // ... and every SpMV call updates its block's rows.
  for (const auto& sq : squares) total += sq.r1 - sq.r0;
  return total;
}

std::int64_t BlockPlan::x_items_loaded() const {
  std::int64_t total = 0;
  for (const auto& sq : squares) total += sq.c1 - sq.c0;
  return total;
}

BlockPlan plan_column(index_t n, index_t nseg) {
  nseg = clamp_nseg(n, nseg);
  BlockPlan p;
  p.scheme = BlockScheme::kColumn;
  p.n = n;
  p.new_of_old.resize(static_cast<std::size_t>(n));
  std::iota(p.new_of_old.begin(), p.new_of_old.end(), 0);
  p.tri_bounds = uniform_boundaries(n, nseg);
  check_segments_nonempty(p.tri_bounds, n);
  for (index_t si = 0; si < nseg; ++si) {
    p.steps.push_back({ExecStep::Kind::kTri, si});
    if (si + 1 < nseg) {
      // The rectangle below triangular block si: all remaining rows, this
      // segment's columns (Alg. 4 line 5 updates b for the whole rest).
      p.squares.push_back({p.tri_bounds[static_cast<std::size_t>(si) + 1], n,
                           p.tri_bounds[static_cast<std::size_t>(si)],
                           p.tri_bounds[static_cast<std::size_t>(si) + 1]});
      p.steps.push_back({ExecStep::Kind::kSquare,
                         static_cast<index_t>(p.squares.size()) - 1});
    }
  }
  return p;
}

BlockPlan plan_row(index_t n, index_t nseg) {
  nseg = clamp_nseg(n, nseg);
  BlockPlan p;
  p.scheme = BlockScheme::kRow;
  p.n = n;
  p.new_of_old.resize(static_cast<std::size_t>(n));
  std::iota(p.new_of_old.begin(), p.new_of_old.end(), 0);
  p.tri_bounds = uniform_boundaries(n, nseg);
  check_segments_nonempty(p.tri_bounds, n);
  for (index_t si = 0; si < nseg; ++si) {
    if (si > 0) {
      // The rectangle left of triangular block si: this segment's rows, all
      // already-solved columns (Alg. 5 line 4).
      p.squares.push_back({p.tri_bounds[static_cast<std::size_t>(si)],
                           p.tri_bounds[static_cast<std::size_t>(si) + 1], 0,
                           p.tri_bounds[static_cast<std::size_t>(si)]});
      p.steps.push_back({ExecStep::Kind::kSquare,
                         static_cast<index_t>(p.squares.size()) - 1});
    }
    p.steps.push_back({ExecStep::Kind::kTri, si});
  }
  return p;
}

namespace {

/// The recursion tree is fully determined by (n, stop_rows, max_depth):
/// splits always land at range midpoints. The planner therefore builds the
/// tree arithmetically first, then — when reordering is enabled — level-orders
/// every node of one recursion DEPTH in a single sweep over the input
/// (level_order_nodes), composing the per-node level orders into one running
/// permutation. No intermediate matrix is built: the stored matrix is one
/// permute_symmetric of the input by the final composite permutation, which
/// is canonical (sorted rows), so it equals the depth-by-depth re-permuted
/// matrix of the paper's algorithm bit for bit.
///
/// host_ops / host_bytes price that per-depth algorithm — a level analysis
/// of every node's extracted diagonal block plus one whole-matrix
/// permutation per depth that moved a row — not the host's own index-array
/// work, so the simulated Table 5 ratio is independent of how the host
/// computes the same plan.
template <class T>
class RecursivePlanner {
 public:
  RecursivePlanner(const Csr<T>& lower, const PlannerOptions& opt,
                   ThreadPool* pool)
      : lower_(lower), opt_(opt), pool_(pool) {
    plan_.scheme = BlockScheme::kRecursive;
    plan_.n = lower.nrows;
  }

  BlockPlan run(Csr<T>* permuted) {
    plan_.tri_bounds.push_back(0);
    if (plan_.n > 0) build_tree(0, plan_.n, 0);

    plan_.new_of_old.resize(static_cast<std::size_t>(plan_.n));
    std::iota(plan_.new_of_old.begin(), plan_.new_of_old.end(), 0);
    bool moved = false;
    if (opt_.reorder) {
      std::vector<index_t> old_of_new = plan_.new_of_old;
      for (const auto& depth_nodes : nodes_by_depth_)
        moved = reorder_depth(depth_nodes, &old_of_new) || moved;
    }
    if (permuted != nullptr)
      *permuted = moved ? permute_symmetric(lower_, plan_.new_of_old) : lower_;
    return std::move(plan_);
  }

 private:
  void build_tree(index_t r0, index_t r1, int depth) {
    plan_.depth_used = std::max(plan_.depth_used, depth);
    if (nodes_by_depth_.size() <= static_cast<std::size_t>(depth))
      nodes_by_depth_.resize(static_cast<std::size_t>(depth) + 1);
    nodes_by_depth_[static_cast<std::size_t>(depth)].push_back({r0, r1});

    const index_t rows = r1 - r0;
    // §3.4 depth rule: split only while both halves stay at or above the
    // saturation size.
    if (rows / 2 < opt_.stop_rows || depth >= opt_.max_depth) {
      plan_.tri_bounds.push_back(r1);  // leaf
      plan_.steps.push_back(
          {ExecStep::Kind::kTri,
           static_cast<index_t>(plan_.tri_bounds.size()) - 2});
      return;
    }
    const index_t mid = r0 + rows / 2;
    build_tree(r0, mid, depth + 1);  // top triangle first (Alg. 6 line 5)
    plan_.squares.push_back({mid, r1, r0, mid});  // then the square update
    plan_.steps.push_back({ExecStep::Kind::kSquare,
                           static_cast<index_t>(plan_.squares.size()) - 1});
    build_tree(mid, r1, depth + 1);  // bottom triangle last (Alg. 6 line 7)
  }

  /// Level-orders every node range of one depth (nodes of one depth cover
  /// disjoint row ranges, so they run across the pool) and prices the
  /// per-depth algorithm. Returns whether any node had a row to move.
  bool reorder_depth(const std::vector<std::pair<index_t, index_t>>& nodes,
                     std::vector<index_t>* old_of_new) {
    const std::vector<NodeLevels> found =
        level_order_nodes(lower_.row_ptr, lower_.col_idx, nodes, old_of_new,
                          &plan_.new_of_old, pool_);
    bool moved = false;
    for (std::size_t nd = 0; nd < nodes.size(); ++nd) {
      // Level analysis of the node's block: one visit per nonzero + per row.
      plan_.host_ops += found[nd].nnz + (nodes[nd].second - nodes[nd].first);
      plan_.host_bytes +=
          found[nd].nnz * static_cast<std::int64_t>(sizeof(index_t) + sizeof(T));
      moved = moved || found[nd].nlevels > 1;
    }
    if (moved) {
      // One whole-matrix permutation pass per depth (ptr rebuild + scatter +
      // row sorts).
      plan_.host_ops += 2 * lower_.nnz() + plan_.n;
      plan_.host_bytes += 2 * lower_.nnz() *
                          static_cast<std::int64_t>(sizeof(index_t) + sizeof(T));
    }
    return moved;
  }

  const Csr<T>& lower_;
  const PlannerOptions& opt_;
  ThreadPool* pool_;
  std::vector<std::vector<std::pair<index_t, index_t>>> nodes_by_depth_;
  BlockPlan plan_;
};

}  // namespace

template <class T>
BlockPlan plan_recursive(const Csr<T>& lower, const PlannerOptions& opt,
                         Csr<T>* permuted, ThreadPool* pool) {
  BLOCKTRI_CHECK(lower.nrows == lower.ncols);
  BLOCKTRI_CHECK(opt.stop_rows >= 1);
  RecursivePlanner<T> planner(lower, opt, pool);
  return planner.run(permuted);
}

template BlockPlan plan_recursive(const Csr<float>&, const PlannerOptions&,
                                  Csr<float>*, ThreadPool*);
template BlockPlan plan_recursive(const Csr<double>&, const PlannerOptions&,
                                  Csr<double>*, ThreadPool*);

std::vector<std::vector<ExecStep>> compute_step_waves(
    const BlockPlan& plan, const std::vector<offset_t>& square_nnz) {
  struct Access {
    // Half-open row intervals per array; an empty interval is lo >= hi.
    index_t x_r0 = 0, x_r1 = 0;  // x range written (tri) or read (square)
    bool x_writes = false;
    index_t b_r0 = 0, b_r1 = 0;  // b range read (tri) or updated (square)
    bool b_writes = false;
  };
  auto access_of = [&](const ExecStep& step) {
    Access a;
    if (step.kind == ExecStep::Kind::kTri) {
      const auto t = static_cast<std::size_t>(step.index);
      a.x_r0 = plan.tri_bounds[t];
      a.x_r1 = plan.tri_bounds[t + 1];
      a.x_writes = true;
      a.b_r0 = a.x_r0;
      a.b_r1 = a.x_r1;
      a.b_writes = false;
    } else {
      const SquareBlockRef& sq =
          plan.squares[static_cast<std::size_t>(step.index)];
      a.x_r0 = sq.c0;
      a.x_r1 = sq.c1;
      a.x_writes = false;
      a.b_r0 = sq.r0;
      a.b_r1 = sq.r1;
      a.b_writes = true;  // y -= A·x is a read-modify-write
    }
    return a;
  };
  auto overlap = [](index_t a0, index_t a1, index_t b0, index_t b1) {
    return std::max(a0, b0) < std::min(a1, b1);
  };
  auto conflict = [&](const Access& a, const Access& b) {
    // Two steps conflict when they touch an overlapping range of the same
    // array and at least one writes it.
    if ((a.x_writes || b.x_writes) &&
        overlap(a.x_r0, a.x_r1, b.x_r0, b.x_r1))
      return true;
    if ((a.b_writes || b.b_writes) &&
        overlap(a.b_r0, a.b_r1, b.b_r0, b.b_r1))
      return true;
    return false;
  };

  std::vector<std::vector<ExecStep>> waves;
  std::vector<Access> wave_access;
  for (const ExecStep& step : plan.steps) {
    if (step.kind == ExecStep::Kind::kSquare &&
        !square_nnz.empty() &&
        square_nnz[static_cast<std::size_t>(step.index)] == 0)
      continue;  // empty square: a no-op, not a dependency
    const Access a = access_of(step);
    bool fits = !waves.empty();
    if (fits)
      for (const Access& w : wave_access)
        if (conflict(a, w)) {
          fits = false;
          break;
        }
    if (!fits) {
      waves.emplace_back();
      wave_access.clear();
    }
    waves.back().push_back(step);
    wave_access.push_back(a);
  }
  return waves;
}

bool equals(const BlockPlan& a, const BlockPlan& b) {
  return a.scheme == b.scheme && a.n == b.n && a.new_of_old == b.new_of_old &&
         a.tri_bounds == b.tri_bounds && a.squares == b.squares &&
         a.steps == b.steps && a.depth_used == b.depth_used &&
         a.host_ops == b.host_ops && a.host_bytes == b.host_bytes &&
         a.color_bounds == b.color_bounds &&
         a.hbmc_block_rows == b.hbmc_block_rows;
}

}  // namespace blocktri
