// Block partition planning — the three schemes of §3.1 (Fig. 2) plus the
// recursive level-set reordering of §3.3 (Fig. 3).
//
// A BlockPlan is scheme-agnostic: a permutation (identity for the column/row
// schemes), the leaf triangular ranges, the rectangular/square blocks, and
// the execution sequence interleaving them exactly as the arrows in Fig. 2
// prescribe. The executor (core/solver) walks the steps; the traffic
// analysis of Tables 1–2 reads the block shapes.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

enum class BlockScheme {
  kColumn,     // Fig. 2(a), Algorithm 4
  kRow,        // Fig. 2(b), Algorithm 5
  kRecursive,  // Fig. 2(c), Algorithm 6 / §3.3 improved layout
  kHbmc,       // hierarchical block multi-color ordering (DESIGN.md §16)
};

std::string to_string(BlockScheme s);

struct PlannerOptions {
  /// Stop splitting when the next (half) block would have fewer rows than
  /// this. The paper's rule is 20 x GPU core count (§3.4: 92160 on the Titan
  /// RTX); benches on the scaled suite pass a proportionally scaled value.
  index_t stop_rows = 92160;
  int max_depth = 30;
  /// Apply the §3.3 recursive level-set reordering (recursive scheme only).
  bool reorder = true;
  /// Number of segments for the column/row schemes.
  index_t nseg = 4;

  // HBMC scheme knobs (DESIGN.md §16). `hbmc_block_rows` is the aggregation
  // target W: rows greedily absorbed into a parent's block until it holds W
  // rows (default one cache line of doubles). The planner doubles W until
  // the color count fits under `hbmc_max_colors` (or W reaches n), so the
  // sync-step count is bounded regardless of dependency depth.
  index_t hbmc_block_rows = 8;
  index_t hbmc_max_colors = 16;
};

struct SquareBlockRef {
  index_t r0, r1;  // row range of the block (global, post-permutation)
  index_t c0, c1;  // column range
};

struct ExecStep {
  enum class Kind { kTri, kSquare };
  Kind kind;
  index_t index;  // into tri_bounds (tri i spans [tri_bounds[i],
                  // tri_bounds[i+1])) or into squares
};

struct BlockPlan {
  BlockScheme scheme = BlockScheme::kRecursive;
  index_t n = 0;
  std::vector<index_t> new_of_old;  // §3.3 permutation; identity if disabled
  std::vector<index_t> tri_bounds;  // nleaves + 1 ascending boundaries
  std::vector<SquareBlockRef> squares;
  std::vector<ExecStep> steps;
  int depth_used = 0;  // recursion depth actually reached

  // HBMC only (empty / 0 for the other schemes): ncolors + 1 ascending color
  // boundaries in permuted row space — every value is also a tri_bounds entry
  // (a color is a contiguous run of whole blocks) — and the effective
  // aggregation width W after the planner's doubling loop.
  std::vector<index_t> color_bounds;
  index_t hbmc_block_rows = 0;

  index_t num_colors() const {
    return color_bounds.empty()
               ? index_t{0}
               : static_cast<index_t>(color_bounds.size()) - 1;
  }

  // Host-model preprocessing counters: they price the paper's per-depth
  // algorithm (a level analysis of every node's extracted block plus one
  // whole-matrix permutation per depth), not the host planner's own work.
  std::int64_t host_ops = 0;
  std::int64_t host_bytes = 0;

  index_t num_tri_blocks() const {
    return static_cast<index_t>(tri_bounds.size()) - 1;
  }

  /// Dense-model traffic counts for Tables 1 and 2: every SpMV updates all
  /// rows of its block and loads all columns of its block; every triangular
  /// solve consumes its b segment once (n total).
  std::int64_t b_items_updated() const;
  std::int64_t x_items_loaded() const;
};

/// Fig. 2(a): nseg column blocks; square si spans rows (b[si+1], n) x cols
/// segment si. No reordering. nseg is clamped to max(1, min(nseg, n)) so no
/// segment is ever empty.
BlockPlan plan_column(index_t n, index_t nseg);

/// Fig. 2(b): nseg row blocks; square si spans rows segment si x cols
/// [0, b[si]). No reordering. nseg is clamped to max(1, min(nseg, n)) so no
/// segment is ever empty.
BlockPlan plan_row(index_t n, index_t nseg);

/// Nonzeros of every block of a plan, each triangle's diagonal included:
/// what a build sizes its block arrays from.
struct BlockNnz {
  std::vector<offset_t> tri;      // per triangular leaf
  std::vector<offset_t> squares;  // per square, in plan order
};

/// Fig. 2(c) + §3.3: recursive halving with per-node level-set reordering.
/// Returns the plan — its decisions: the permutation, the blocks and their
/// order — and, when `permuted` is not null, the reordered matrix (one
/// permute_symmetric of `lower`, or `lower` itself when no row moved). The
/// reordering runs on index arrays: one level sweep over `lower` per
/// recursion depth, composing one permutation. A pool parallelises the
/// nodes of each depth (they cover disjoint row ranges); the resulting plan
/// is identical to the serial one. When `block_nnz` is given and the
/// reordering ran, it receives every block's nonzero count, read off the
/// sweeps; otherwise it is left empty.
template <class T>
BlockPlan plan_recursive(const Csr<T>& lower, const PlannerOptions& opt,
                         Csr<T>* permuted, ThreadPool* pool = nullptr,
                         BlockNnz* block_nnz = nullptr);

/// Where each value a built solver holds comes from. For every held value,
/// in the order the build walk writes them — each permuted row's covering
/// squares by first column, then its triangle row — the value's position
/// within its row of the caller's CSR, so an install reads the caller's
/// values through it with no gather or sort. Entries are `width` bytes in
/// native byte order: the narrowest of 1, 2 or 4 that holds a position in
/// the longest input row; width 0 until sized.
struct ValueMap {
  std::uint32_t width = 0;
  std::vector<std::uint8_t> bytes;

  /// A map of `count` entries for input rows of at most `max_row` entries.
  static ValueMap sized(std::size_t count, offset_t max_row) {
    ValueMap m;
    m.width = max_row <= 256 ? 1u : max_row <= 65536 ? 2u : 4u;
    m.bytes.resize(count * m.width);
    return m;
  }
  std::size_t size() const { return width == 0 ? 0 : bytes.size() / width; }
  /// Entry i of a map whose entries are W (the unsigned type of `width`
  /// bytes).
  template <class W>
  W at(std::size_t i) const {
    W v = 0;
    std::memcpy(&v, bytes.data() + i * sizeof(W), sizeof(W));
    return v;
  }
  void set(std::size_t i, std::uint32_t pos) {
    std::uint8_t* p = bytes.data() + i * width;
    if (width == 1) {
      *p = static_cast<std::uint8_t>(pos);
    } else if (width == 2) {
      const auto v = static_cast<std::uint16_t>(pos);
      std::memcpy(p, &v, sizeof v);
    } else {
      std::memcpy(p, &pos, sizeof pos);
    }
  }
};

/// Counts every block's nonzeros of `lower` under `plan` in one pass over
/// its rows — for plans whose planner did not report them. An entry no
/// block covers is not counted.
template <class T>
BlockNnz count_block_nnz(const Csr<T>& lower, const BlockPlan& plan);

/// A built solver holds each square's non-empty rows only, grouped by
/// global window of this many permuted rows — ⌊(r0 + id) / 256⌋ ascending,
/// where r0 is the square's first row and id a row within it — and inside
/// a window ordered by (row length, row id). The SpMV row bodies
/// then meet runs of equal-length rows, and a pass over the rows in
/// ascending order finds a window's rows of a square in one contiguous run
/// (DESIGN.md §10).
inline constexpr index_t kSquareWindowRows = 256;

/// The squares of a plan that cover one permuted row, for a pass that
/// visits the rows in ascending order: a square enters at its first row and
/// leaves after its last. Active squares are ordered by first column; their
/// column ranges are disjoint in every plan the planners make.
class SquareWindow {
 public:
  struct Active {
    std::size_t q = 0;  // index into the plan's squares
    index_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  };

  explicit SquareWindow(const std::vector<SquareBlockRef>& squares);

  /// Moves to permuted row `row` — not below the previous call's — and
  /// returns the squares covering it.
  const std::vector<Active>& at(index_t row);

  /// The active square whose column range holds `c`, or nullptr.
  const Active* find(index_t c) const;

  /// The first row past the last at() whose covering squares can differ:
  /// where an active square ends or the next one starts.
  index_t next_change() const;

 private:
  const std::vector<SquareBlockRef>& squares_;
  std::vector<std::size_t> by_r0_;
  std::size_t next_ = 0;
  std::vector<Active> active_;
  index_t first_end_ = 0;  // the first row past an active square
};

/// nseg+1 near-equal boundaries over [0, n].
std::vector<index_t> uniform_boundaries(index_t n, index_t nseg);

/// Exact equality of every plan field — the bitwise-identity checks of the
/// plan-persistence tests compare a deserialized plan against the cold one.
bool equals(const BlockPlan& a, const BlockPlan& b);

inline bool operator==(const SquareBlockRef& a, const SquareBlockRef& b) {
  return a.r0 == b.r0 && a.r1 == b.r1 && a.c0 == b.c0 && a.c1 == b.c1;
}

inline bool operator==(const ExecStep& a, const ExecStep& b) {
  return a.kind == b.kind && a.index == b.index;
}

/// Groups the plan's steps into "waves" of mutually independent steps for
/// the multithreaded executor: steps are taken in plan order and appended to
/// the current wave unless they conflict with a step already in it (tri
/// reads its b range and writes its x range; a square reads its x column
/// range and read-modify-writes its b row range). Barriers between waves
/// make any schedule of a wave's steps equivalent to the serial order.
/// `square_nnz[q]` (when provided, indexed like plan.squares) lets the
/// analysis drop empty square blocks — the no-op steps that otherwise chain
/// the two triangles of a block-diagonal matrix together.
std::vector<std::vector<ExecStep>> compute_step_waves(
    const BlockPlan& plan, const std::vector<offset_t>& square_nnz = {});

}  // namespace blocktri
