#include "core/plan.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "analysis/levels.hpp"
#include "common/prefix.hpp"
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
/// permutation. No intermediate matrix is built.
///
/// A top half needs no sweep of its own: its parent's sweep sorted the
/// parent's rows by level, so the top half holds the parent's lowest levels
/// and every in-node dependency of a top-half row is another top-half row
/// sorted before it. The half's own sweep would find the same levels and
/// keep the same order; its NodeLevels are read off the parent's sweep
/// (LevelNode::settled). Only bottom halves (and the root) are swept.
///
/// host_ops / host_bytes price the paper's per-depth algorithm — a level
/// analysis of every node's extracted diagonal block plus one whole-matrix
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

  BlockPlan run(Csr<T>* permuted, BlockNnz* block_nnz) {
    plan_.tri_bounds.push_back(0);
    if (plan_.n > 0) build_tree(0, plan_.n, 0, false);

    bool moved = false;
    if (opt_.reorder) {
      LevelOrderState state(plan_.n);
      std::vector<NodeLevels> found(nodes_.size());
      for (const auto& ids : nodes_by_depth_)
        moved = reorder_depth(ids, &state, &found) || moved;
      plan_.new_of_old = std::move(state.new_of_old);
      if (block_nnz != nullptr) *block_nnz = block_counts(found);
    } else {
      plan_.new_of_old.resize(static_cast<std::size_t>(plan_.n));
      std::iota(plan_.new_of_old.begin(), plan_.new_of_old.end(), 0);
    }
    if (permuted != nullptr)
      *permuted = moved ? permute_symmetric(lower_, plan_.new_of_old) : lower_;
    return std::move(plan_);
  }

 private:
  struct Node {
    index_t r0 = 0, r1 = 0;
    bool top = false;     // the top half of its parent
    index_t tri = -1;     // a leaf's triangle
    index_t square = -1;  // a split node's square, between its halves
    std::size_t top_half = 0, bottom_half = 0;  // split nodes only
  };

  std::size_t build_tree(index_t r0, index_t r1, int depth, bool top) {
    plan_.depth_used = std::max(plan_.depth_used, depth);
    if (nodes_by_depth_.size() <= static_cast<std::size_t>(depth))
      nodes_by_depth_.resize(static_cast<std::size_t>(depth) + 1);
    const std::size_t id = nodes_.size();
    nodes_by_depth_[static_cast<std::size_t>(depth)].push_back(id);
    nodes_.push_back({r0, r1, top});

    const index_t rows = r1 - r0;
    // §3.4 depth rule: split only while both halves stay at or above the
    // saturation size.
    if (rows / 2 < opt_.stop_rows || depth >= opt_.max_depth) {
      nodes_[id].tri = plan_.num_tri_blocks();
      plan_.tri_bounds.push_back(r1);  // leaf
      plan_.steps.push_back({ExecStep::Kind::kTri, nodes_[id].tri});
      return id;
    }
    const index_t mid = r0 + rows / 2;
    // Top triangle first (Alg. 6 line 5), then the square update, then the
    // bottom triangle (line 7).
    const std::size_t top_half = build_tree(r0, mid, depth + 1, true);
    nodes_[id].square = static_cast<index_t>(plan_.squares.size());
    plan_.squares.push_back({mid, r1, r0, mid});
    plan_.steps.push_back({ExecStep::Kind::kSquare, nodes_[id].square});
    const std::size_t bottom_half = build_tree(mid, r1, depth + 1, false);
    nodes_[id].top_half = top_half;
    nodes_[id].bottom_half = bottom_half;
    return id;
  }

  /// Level-orders every node range of one depth (nodes of one depth cover
  /// disjoint row ranges, so they run across the pool), records what each
  /// node held in `found`, and prices the per-depth algorithm. Returns
  /// whether any node had a row to move.
  bool reorder_depth(const std::vector<std::size_t>& ids,
                     LevelOrderState* state, std::vector<NodeLevels>* found) {
    std::vector<LevelNode> nodes;
    nodes.reserve(ids.size());
    for (const std::size_t id : ids)
      nodes.push_back({nodes_[id].r0, nodes_[id].r1, nodes_[id].top});
    const std::vector<NodeLevels> levels = level_order_nodes(
        lower_.row_ptr, lower_.col_idx, nodes, state, pool_);
    bool moved = false;
    for (std::size_t nd = 0; nd < nodes.size(); ++nd) {
      (*found)[ids[nd]] = levels[nd];
      // Level analysis of the node's block: one visit per nonzero + per row.
      plan_.host_ops += levels[nd].nnz + (nodes[nd].r1 - nodes[nd].r0);
      plan_.host_bytes += levels[nd].nnz * static_cast<std::int64_t>(
                                               sizeof(index_t) + sizeof(T));
      moved = moved || levels[nd].nlevels > 1;
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

  /// A leaf's triangle holds its node's block; a split node's square holds
  /// what its block has beyond its two halves' blocks.
  BlockNnz block_counts(const std::vector<NodeLevels>& found) const {
    BlockNnz out;
    out.tri.resize(static_cast<std::size_t>(plan_.num_tri_blocks()));
    out.squares.resize(plan_.squares.size());
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      const Node& nd = nodes_[id];
      if (nd.tri >= 0)
        out.tri[static_cast<std::size_t>(nd.tri)] = found[id].nnz;
      else
        out.squares[static_cast<std::size_t>(nd.square)] =
            found[id].nnz - found[nd.top_half].nnz -
            found[nd.bottom_half].nnz;
    }
    return out;
  }

  const Csr<T>& lower_;
  const PlannerOptions& opt_;
  ThreadPool* pool_;
  std::vector<Node> nodes_;  // in creation (pre-)order
  std::vector<std::vector<std::size_t>> nodes_by_depth_;
  BlockPlan plan_;
};

}  // namespace

template <class T>
BlockPlan plan_recursive(const Csr<T>& lower, const PlannerOptions& opt,
                         Csr<T>* permuted, ThreadPool* pool,
                         BlockNnz* block_nnz) {
  BLOCKTRI_CHECK(lower.nrows == lower.ncols);
  BLOCKTRI_CHECK(opt.stop_rows >= 1);
  RecursivePlanner<T> planner(lower, opt, pool);
  return planner.run(permuted, block_nnz);
}

template BlockPlan plan_recursive(const Csr<float>&, const PlannerOptions&,
                                  Csr<float>*, ThreadPool*, BlockNnz*);
template BlockPlan plan_recursive(const Csr<double>&, const PlannerOptions&,
                                  Csr<double>*, ThreadPool*, BlockNnz*);

SquareWindow::SquareWindow(const std::vector<SquareBlockRef>& squares)
    : squares_(squares), by_r0_(squares.size()) {
  std::iota(by_r0_.begin(), by_r0_.end(), std::size_t{0});
  std::stable_sort(by_r0_.begin(), by_r0_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return squares[a].r0 < squares[b].r0;
                   });
}

const std::vector<SquareWindow::Active>& SquareWindow::at(index_t row) {
  if (row >= first_end_) {
    active_.erase(
        std::remove_if(active_.begin(), active_.end(),
                       [row](const Active& s) { return s.r1 <= row; }),
        active_.end());
    first_end_ = std::numeric_limits<index_t>::max();
    for (const Active& a : active_) first_end_ = std::min(first_end_, a.r1);
  }
  for (; next_ < by_r0_.size() && squares_[by_r0_[next_]].r0 <= row;
       ++next_) {
    const SquareBlockRef& ref = squares_[by_r0_[next_]];
    if (ref.r1 <= row || ref.c1 <= ref.c0) continue;  // covers nothing
    const Active a{by_r0_[next_], ref.r0, ref.r1, ref.c0, ref.c1};
    first_end_ = std::min(first_end_, a.r1);
    active_.insert(std::upper_bound(active_.begin(), active_.end(), a.c0,
                                    [](index_t c, const Active& s) {
                                      return c < s.c0;
                                    }),
                   a);
  }
  return active_;
}

const SquareWindow::Active* SquareWindow::find(index_t c) const {
  const auto it = std::upper_bound(
      active_.begin(), active_.end(), c,
      [](index_t col, const Active& s) { return col < s.c0; });
  if (it == active_.begin() || c >= std::prev(it)->c1) return nullptr;
  return &*std::prev(it);
}

index_t SquareWindow::next_change() const {
  return next_ < by_r0_.size()
             ? std::min(first_end_, squares_[by_r0_[next_]].r0)
             : first_end_;
}

template <class T>
BlockNnz count_block_nnz(const Csr<T>& lower, const BlockPlan& plan) {
  BlockNnz out;
  out.tri.assign(static_cast<std::size_t>(plan.num_tri_blocks()), 0);
  out.squares.assign(plan.squares.size(), 0);
  const std::vector<index_t>& new_of_old = plan.new_of_old;
  const std::vector<index_t> old_of_new = invert_permutation(new_of_old);
  SquareWindow window(plan.squares);
  std::size_t t = 0;
  for (index_t ni = 0; ni < plan.n; ++ni) {
    while (plan.tri_bounds[t + 1] <= ni) ++t;
    const index_t r0 = plan.tri_bounds[t];
    window.at(ni);
    const auto oi =
        static_cast<std::size_t>(old_of_new[static_cast<std::size_t>(ni)]);
    for (offset_t k = lower.row_ptr[oi]; k < lower.row_ptr[oi + 1]; ++k) {
      const index_t c = new_of_old[static_cast<std::size_t>(
          lower.col_idx[static_cast<std::size_t>(k)])];
      if (c >= r0) {
        ++out.tri[t];
      } else if (const SquareWindow::Active* sq = window.find(c)) {
        ++out.squares[sq->q];
      }
    }
  }
  return out;
}

template BlockNnz count_block_nnz(const Csr<float>&, const BlockPlan&);
template BlockNnz count_block_nnz(const Csr<double>&, const BlockPlan&);

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
