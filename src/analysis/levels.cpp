#include "analysis/levels.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "common/prefix.hpp"

namespace blocktri {

namespace {

std::atomic<std::uint64_t> g_level_analysis_count{0};


/// Parallel grouping passes over contiguous row chunks, each with a private
/// per-level histogram; the combine step converts counts into per-chunk
/// starting cursors. Ascending chunks preserve the within-level ascending
/// original-index order the reordering relies on.
void group_levels_parallel(LevelSets& ls, index_t n, ThreadPool* pool) {
  const auto nlevels = static_cast<std::size_t>(ls.nlevels);
  const int nchunks = pool->size();
  std::vector<offset_t> cursor(static_cast<std::size_t>(nchunks) * nlevels, 0);

  pool->parallel_for(0, n, [&](index_t r0, index_t r1, int chunk) {
    offset_t* counts =
        cursor.data() + static_cast<std::size_t>(chunk) * nlevels;
    for (index_t i = r0; i < r1; ++i)
      ++counts[static_cast<std::size_t>(
          ls.level_of[static_cast<std::size_t>(i)])];
  });

  ls.level_ptr.assign(nlevels + 1, 0);
  offset_t running = 0;
  for (std::size_t l = 0; l < nlevels; ++l) {
    ls.level_ptr[l] = running;
    for (int ch = 0; ch < nchunks; ++ch) {
      offset_t& slot = cursor[static_cast<std::size_t>(ch) * nlevels + l];
      const offset_t count = slot;
      slot = running;
      running += count;
    }
  }
  ls.level_ptr[nlevels] = running;

  ls.level_item.resize(static_cast<std::size_t>(n));
  pool->parallel_for(0, n, [&](index_t r0, index_t r1, int chunk) {
    offset_t* cur = cursor.data() + static_cast<std::size_t>(chunk) * nlevels;
    for (index_t i = r0; i < r1; ++i) {
      const auto l = static_cast<std::size_t>(
          ls.level_of[static_cast<std::size_t>(i)]);
      ls.level_item[static_cast<std::size_t>(cur[l]++)] = i;
    }
  });
}

}  // namespace

namespace {

/// Böhnlein-style partition fix: fuse adjacent raw levels while the combined
/// component count stays at or under merge_width, relabelling level_of in
/// place so the grouping passes below build the fused partition directly.
/// The raw counts pass is O(n); the relabel map is O(nlevels).
void merge_adjacent_levels(LevelSets& ls, index_t n, index_t merge_width) {
  if (merge_width <= 0 || ls.nlevels <= 1) return;
  const auto nraw = static_cast<std::size_t>(ls.nlevels);
  std::vector<offset_t> raw_count(nraw, 0);
  for (index_t i = 0; i < n; ++i)
    ++raw_count[static_cast<std::size_t>(ls.level_of[static_cast<std::size_t>(i)])];

  std::vector<index_t> fused_of_raw(nraw, 0);
  index_t fused = 0;
  offset_t run = raw_count[0];
  for (std::size_t l = 1; l < nraw; ++l) {
    if (run + raw_count[l] <= static_cast<offset_t>(merge_width)) {
      run += raw_count[l];  // fuse into the current run
    } else {
      ++fused;
      run = raw_count[l];
    }
    fused_of_raw[l] = fused;
  }
  if (fused + 1 == ls.nlevels) return;  // nothing fused: keep raw labels
  for (index_t i = 0; i < n; ++i) {
    auto& l = ls.level_of[static_cast<std::size_t>(i)];
    l = fused_of_raw[static_cast<std::size_t>(l)];
  }
  ls.nlevels = fused + 1;
}

}  // namespace

LevelSets compute_level_sets(index_t n, const std::vector<offset_t>& row_ptr,
                             const std::vector<index_t>& col_idx,
                             ThreadPool* pool, index_t merge_width) {
  BLOCKTRI_CHECK(row_ptr.size() == static_cast<std::size_t>(n) + 1);
  g_level_analysis_count.fetch_add(1, std::memory_order_relaxed);
  LevelSets ls;
  ls.level_of.assign(static_cast<std::size_t>(n), 0);

  // Loop-carried dependence (level[i] needs level[j] for all j < i with a
  // nonzero): inherently serial.
  index_t max_level = -1;
  for (index_t i = 0; i < n; ++i) {
    index_t lvl = 0;
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const index_t j = col_idx[static_cast<std::size_t>(k)];
      BLOCKTRI_CHECK_MSG(j <= i, "compute_level_sets: matrix is not lower "
                                 "triangular");
      if (j == i) continue;  // diagonal is not a dependency
      lvl = std::max(lvl,
                     ls.level_of[static_cast<std::size_t>(j)] + index_t{1});
    }
    ls.level_of[static_cast<std::size_t>(i)] = lvl;
    max_level = std::max(max_level, lvl);
  }
  ls.nlevels = n == 0 ? 0 : max_level + 1;

  merge_adjacent_levels(ls, n, merge_width);

  // Parallel grouping pays off only when levels are much shorter than rows
  // (the histogram is nchunks × nlevels); chains fall back to serial.
  if (parallel_enabled(pool) && n >= 2 * kHostParallelMinNnz &&
      ls.nlevels <= n / 4) {
    group_levels_parallel(ls, n, pool);
    return ls;
  }
  return group_levels(std::move(ls.level_of), ls.nlevels);
}

LevelSets group_levels(std::vector<index_t> level_of, index_t nlevels) {
  LevelSets ls;
  ls.nlevels = nlevels;
  ls.level_of = std::move(level_of);
  const std::size_t n = ls.level_of.size();
  ls.level_ptr.assign(static_cast<std::size_t>(nlevels) + 1, 0);
  for (const index_t l : ls.level_of)
    ++ls.level_ptr[static_cast<std::size_t>(l)];
  exclusive_scan_in_place(ls.level_ptr);
  ls.level_item.resize(n);
  std::vector<offset_t> cursor(ls.level_ptr.begin(), ls.level_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    ls.level_item[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ls.level_of[i])]++)] =
        static_cast<index_t>(i);
  return ls;
}

std::uint64_t level_analysis_count() {
  return g_level_analysis_count.load(std::memory_order_relaxed);
}

void note_level_analysis() {
  g_level_analysis_count.fetch_add(1, std::memory_order_relaxed);
}

LevelOrderState::LevelOrderState(index_t n)
    : old_of_new(static_cast<std::size_t>(n)),
      new_of_old(static_cast<std::size_t>(n)),
      level(static_cast<std::size_t>(n)),
      nnz(static_cast<std::size_t>(n)) {
  std::iota(old_of_new.begin(), old_of_new.end(), 0);
  std::iota(new_of_old.begin(), new_of_old.end(), 0);
}

namespace {

/// One unsettled node of level_order_nodes: the compute_level_sets
/// recurrence over the node's rows in their current order, restricted to
/// the node's diagonal block, then a counting sort of the node's rows by
/// level (ascending current position within a level, as level_item orders
/// it) that carries each row's level and in-node count along.
NodeLevels level_order_node(const std::vector<offset_t>& row_ptr,
                            const std::vector<index_t>& col_idx, index_t r0,
                            index_t r1, LevelOrderState* st) {
  NodeLevels out;
  const auto rows = static_cast<std::size_t>(r1 - r0);
  std::vector<index_t> level(rows);
  std::vector<offset_t> count(rows);
  index_t max_level = -1;
  for (index_t p = r0; p < r1; ++p) {
    const auto i = static_cast<std::size_t>(st->old_of_new[p]);
    index_t lvl = 0;
    offset_t in_node = 0;
    for (offset_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const index_t c = st->new_of_old[static_cast<std::size_t>(
          col_idx[static_cast<std::size_t>(k)])];
      if (c < r0) continue;  // left of the node: not in its diagonal block
      ++in_node;
      BLOCKTRI_CHECK_MSG(c <= p, "level_order_nodes: matrix is not lower "
                                 "triangular");
      if (c == p) continue;  // diagonal is not a dependency
      lvl = std::max(lvl, level[static_cast<std::size_t>(c - r0)] + index_t{1});
    }
    level[static_cast<std::size_t>(p - r0)] = lvl;
    count[static_cast<std::size_t>(p - r0)] = in_node;
    out.nnz += in_node;
    max_level = std::max(max_level, lvl);
  }
  out.nlevels = max_level + 1;
  index_t* const old_of_new = st->old_of_new.data() + r0;
  index_t* const level_at = st->level.data() + r0;
  offset_t* const nnz_at = st->nnz.data() + r0;
  if (out.nlevels <= 1) {  // one level: the current order stands
    std::copy(level.begin(), level.end(), level_at);
    std::copy(count.begin(), count.end(), nnz_at);
    return out;
  }

  std::vector<index_t> cursor(static_cast<std::size_t>(out.nlevels) + 1, 0);
  for (const index_t l : level) ++cursor[static_cast<std::size_t>(l) + 1];
  for (std::size_t l = 1; l < cursor.size(); ++l) cursor[l] += cursor[l - 1];
  const std::vector<index_t> ids(old_of_new, old_of_new + rows);
  for (std::size_t q = 0; q < rows; ++q) {
    const auto to = static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(level[q])]++);
    old_of_new[to] = ids[q];
    level_at[to] = level[q];
    nnz_at[to] = count[q];
  }
  return out;
}

/// A settled node: its rows already carry the levels and in-node counts of
/// the sweep that ordered them, sorted by level.
NodeLevels settled_node(const LevelOrderState& st, index_t r0, index_t r1) {
  NodeLevels out;
  if (r1 <= r0) return out;
  out.nlevels = st.level[static_cast<std::size_t>(r1) - 1] + 1;
  for (index_t p = r0; p < r1; ++p)
    out.nnz += st.nnz[static_cast<std::size_t>(p)];
  return out;
}

}  // namespace

std::vector<NodeLevels> level_order_nodes(const std::vector<offset_t>& row_ptr,
                                          const std::vector<index_t>& col_idx,
                                          const std::vector<LevelNode>& nodes,
                                          LevelOrderState* state,
                                          ThreadPool* pool) {
  BLOCKTRI_CHECK(row_ptr.size() == state->old_of_new.size() + 1);
  g_level_analysis_count.fetch_add(1, std::memory_order_relaxed);
  std::vector<NodeLevels> out(nodes.size());
  const auto nnodes = static_cast<int>(nodes.size());
  auto for_each_node = [&](const auto& body) {
    if (parallel_enabled(pool) && nnodes > 1) {
      pool->run(nnodes, [&](int nd) { body(static_cast<std::size_t>(nd)); });
    } else {
      for (std::size_t nd = 0; nd < nodes.size(); ++nd) body(nd);
    }
  };
  // Every node reads new_of_old anywhere, so it is re-inverted only after
  // all sweeps finished; each node then rewrites the entries of its own rows.
  for_each_node([&](std::size_t nd) {
    const LevelNode& node = nodes[nd];
    out[nd] = node.settled
                  ? settled_node(*state, node.r0, node.r1)
                  : level_order_node(row_ptr, col_idx, node.r0, node.r1, state);
  });
  for_each_node([&](std::size_t nd) {
    if (nodes[nd].settled || out[nd].nlevels <= 1) return;
    for (index_t p = nodes[nd].r0; p < nodes[nd].r1; ++p)
      state->new_of_old[static_cast<std::size_t>(
          state->old_of_new[static_cast<std::size_t>(p)])] = p;
  });
  return out;
}

ParallelismStats parallelism_stats(const LevelSets& ls) {
  ParallelismStats st;
  if (ls.nlevels == 0) return st;
  st.min_width = ls.level_width(0);
  double total = 0.0;
  for (index_t l = 0; l < ls.nlevels; ++l) {
    const index_t w = ls.level_width(l);
    st.min_width = std::min(st.min_width, w);
    st.max_width = std::max(st.max_width, w);
    total += static_cast<double>(w);
  }
  st.avg_width = total / static_cast<double>(ls.nlevels);
  return st;
}

std::vector<index_t> level_order_permutation(const LevelSets& ls) {
  // level_item already lists components by (level, original index); the
  // permutation sends old index level_item[p] to new position p.
  return invert_permutation(ls.level_item);
}

}  // namespace blocktri
