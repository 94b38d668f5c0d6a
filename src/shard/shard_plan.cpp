#include "shard/shard_plan.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace blocktri::shard {

template <class T>
std::vector<index_t> compute_shard_cuts(const PlanArtifact<T>& art,
                                        int nshards) {
  const BlockPlan& p = art.plan;
  const auto nleaves = static_cast<std::size_t>(p.num_tri_blocks());
  BLOCKTRI_CHECK_MSG(nshards >= 1, "shard count must be positive");
  BLOCKTRI_CHECK(art.tri.size() == nleaves);

  // Per-leaf work weight: the triangle's nnz plus each overlapping square's
  // nnz apportioned by row share. Square row ranges are unions of leaves in
  // every scheme, but the proportional split keeps this correct (and
  // deterministic) even if that ever changes. +1 so empty leaves still
  // advance the prefix — a cut between two all-zero leaves stays strict.
  std::vector<double> weight(nleaves, 1.0);
  for (std::size_t t = 0; t < nleaves; ++t)
    weight[t] += static_cast<double>(art.tri[t].nnz);
  for (const SquareBlockArtifact<T>& q : art.squares) {
    const index_t rows = q.ref.r1 - q.ref.r0;
    if (rows <= 0 || q.nnz == 0) continue;
    const double per_row = static_cast<double>(q.nnz) / rows;
    for (std::size_t t = 0; t < nleaves; ++t) {
      const index_t lo = std::max(p.tri_bounds[t], q.ref.r0);
      const index_t hi = std::min(p.tri_bounds[t + 1], q.ref.r1);
      if (hi > lo) weight[t] += per_row * static_cast<double>(hi - lo);
    }
  }

  // Greedy prefix partition over leaves: advance each cut until the prefix
  // crosses the next 1/P share of the total. Forcing at least one leaf per
  // shard keeps the bounds strictly ascending; running out of leaves simply
  // yields fewer shards.
  std::vector<double> prefix(nleaves + 1, 0.0);
  for (std::size_t t = 0; t < nleaves; ++t)
    prefix[t + 1] = prefix[t] + weight[t];
  const double total = prefix.back();

  std::vector<index_t> bounds;
  bounds.push_back(0);
  std::size_t leaf = 0;
  const auto pshards = static_cast<std::size_t>(nshards);
  for (std::size_t s = 1; s < pshards && leaf + (pshards - s) < nleaves; ++s) {
    const double target = total * static_cast<double>(s) / nshards;
    std::size_t cut = leaf + 1;  // at least one leaf per shard
    while (cut < nleaves - (pshards - s - 1) && prefix[cut] < target) ++cut;
    // Snap to whichever neighbour is closer to the ideal share.
    if (cut > leaf + 1 &&
        target - prefix[cut - 1] < prefix[cut] - target)
      --cut;
    bounds.push_back(p.tri_bounds[cut]);
    leaf = cut;
  }
  bounds.push_back(p.n);
  return bounds;
}

namespace {

/// Rows [a, b) of a square's listed rows, re-based so the slice's row 0 is
/// `a`. The windows are global, so the kept rows keep their order: the
/// slice is a filter, and each kept row's entries are byte-identical.
template <class T>
Dcsr<T> slice_rows(const Dcsr<T>& rows, index_t a, index_t b) {
  Dcsr<T> out;
  out.nrows = b - a;
  out.ncols = rows.ncols;
  out.row_ptr.push_back(0);
  for (std::size_t p = 0; p < rows.row_ids.size(); ++p) {
    const index_t id = rows.row_ids[p];
    if (id < a || id >= b) continue;
    const auto lo = static_cast<std::ptrdiff_t>(rows.row_ptr[p]);
    const auto hi = static_cast<std::ptrdiff_t>(rows.row_ptr[p + 1]);
    out.row_ids.push_back(id - a);
    out.col_idx.insert(out.col_idx.end(), rows.col_idx.begin() + lo,
                       rows.col_idx.begin() + hi);
    out.val.insert(out.val.end(), rows.val.begin() + lo, rows.val.begin() + hi);
    out.row_ptr.push_back(static_cast<offset_t>(out.val.size()));
  }
  return out;
}

}  // namespace

template <class T>
PlanArtifact<T> slice_shard_artifact(const PlanArtifact<T>& full,
                                     const std::vector<index_t>& bounds,
                                     int shard_index,
                                     std::uint64_t worker_options) {
  const auto count = static_cast<int>(bounds.size()) - 1;
  BLOCKTRI_CHECK(shard_index >= 0 && shard_index < count);
  const index_t row_begin = bounds[static_cast<std::size_t>(shard_index)];
  const index_t row_end = bounds[static_cast<std::size_t>(shard_index) + 1];

  PlanArtifact<T> out;
  out.structure = full.structure;
  out.options = worker_options;
  out.plan = full.plan;
  out.waves = full.waves;
  out.nnz = full.nnz;
  out.norm_inf = full.norm_inf;  // and no value map: a slice installs nothing
  out.build_ops = full.build_ops;
  out.build_bytes = full.build_bytes;
  out.tuned = full.tuned;
  out.merge_width = full.merge_width;
  out.tune_fell_back = full.tune_fell_back;
  out.tune_device = full.tune_device;
  out.oracle_default_ns = full.oracle_default_ns;
  out.oracle_tuned_ns = full.oracle_tuned_ns;

  out.shard = true;
  out.shard_index = static_cast<std::uint32_t>(shard_index);
  out.shard_count = static_cast<std::uint32_t>(count);
  out.shard_row_begin = row_begin;
  out.shard_row_end = row_end;
  out.shard_bounds = bounds;

  out.tri.reserve(full.tri.size());
  for (const TriBlockArtifact<T>& t : full.tri) {
    if (t.r0 >= row_begin && t.r1 <= row_end) {
      TriBlockArtifact<T> local = t;
      local.populated = true;
      out.tri.push_back(std::move(local));
    } else {
      TriBlockArtifact<T> foreign;
      foreign.r0 = t.r0;
      foreign.r1 = t.r1;
      foreign.kind = t.kind;
      foreign.nlevels = t.nlevels;
      foreign.nnz = t.nnz;
      foreign.populated = false;
      out.tri.push_back(std::move(foreign));
    }
  }

  out.squares.reserve(full.squares.size());
  for (const SquareBlockArtifact<T>& q : full.squares) {
    SquareBlockArtifact<T> s;
    s.ref = q.ref;
    s.kind = q.kind;
    s.empty_ratio = q.empty_ratio;
    const index_t a = std::max(q.ref.r0, row_begin);
    const index_t b = std::min(q.ref.r1, row_end);
    if (b > a && q.nnz != 0) {
      if (a == q.ref.r0 && b == q.ref.r1)
        s.rows = q.rows;  // fully owned: the payload verbatim
      else
        s.rows = slice_rows(q.rows, a - q.ref.r0, b - q.ref.r0);
      s.nnz = s.rows.nnz();
      if (s.nnz != 0) {
        s.populated = true;
        s.ref = SquareBlockRef{a, b, q.ref.c0, q.ref.c1};
      }
    }
    if (s.nnz == 0) {
      // No rows (or no nonzeros) in this shard: metadata-only, the plan's
      // original ref, never executed.
      s.populated = false;
      s.ref = q.ref;
      s.rows = Dcsr<T>{};
    }
    out.squares.push_back(std::move(s));
  }
  return out;
}

template <class T>
std::vector<std::vector<LocalStep>> build_local_schedule(
    const PlanArtifact<T>& slice) {
  BLOCKTRI_CHECK_MSG(slice.shard, "schedule requires a shard slice");
  const std::vector<index_t>& bounds = slice.shard_bounds;
  const auto count = static_cast<int>(bounds.size()) - 1;
  const auto self = static_cast<int>(slice.shard_index);

  // Shard owning permuted row r: bounds are few, a linear scan is fine.
  const auto owner_of = [&](index_t r) {
    for (int s = 0; s < count; ++s)
      if (r < bounds[static_cast<std::size_t>(s) + 1]) return s;
    return count - 1;
  };

  std::vector<std::vector<LocalStep>> sched;
  for (const std::vector<ExecStep>& wave : slice.waves) {
    std::vector<LocalStep> local;
    for (const ExecStep& step : wave) {
      if (step.kind == ExecStep::Kind::kTri) {
        const TriBlockArtifact<T>& t =
            slice.tri[static_cast<std::size_t>(step.index)];
        if (!t.populated) continue;
        LocalStep ls;
        ls.step = step;
        ls.publish = t.r1;
        local.push_back(std::move(ls));
      } else {
        const SquareBlockArtifact<T>& q =
            slice.squares[static_cast<std::size_t>(step.index)];
        if (!q.populated) continue;
        LocalStep ls;
        ls.step = step;
        // The slice reads x[c0, c1): each upstream shard overlapping that
        // column range must have published up to its end of the overlap.
        // The own-shard portion needs no wait — local steps run in plan
        // order, so the local watermark already covers it.
        index_t c = q.ref.c0;
        while (c < q.ref.c1) {
          const int up = owner_of(c);
          const index_t up_end = bounds[static_cast<std::size_t>(up) + 1];
          const index_t need = std::min(q.ref.c1, up_end);
          if (up != self) ls.waits.push_back({up, need});
          c = need;
        }
        local.push_back(std::move(ls));
      }
    }
    if (!local.empty()) sched.push_back(std::move(local));
  }
  return sched;
}

#define BLOCKTRI_SHARD_PLAN_INSTANTIATE(T)                                   \
  template std::vector<index_t> compute_shard_cuts(const PlanArtifact<T>&,   \
                                                   int);                     \
  template PlanArtifact<T> slice_shard_artifact(                             \
      const PlanArtifact<T>&, const std::vector<index_t>&, int,              \
      std::uint64_t);                                                        \
  template std::vector<std::vector<LocalStep>> build_local_schedule(         \
      const PlanArtifact<T>&);

BLOCKTRI_SHARD_PLAN_INSTANTIATE(float)
BLOCKTRI_SHARD_PLAN_INSTANTIATE(double)

}  // namespace blocktri::shard
