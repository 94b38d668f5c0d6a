#include "sptrsv/levelset.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/simd.hpp"
#include "sim/kernel_sim.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {

namespace {
constexpr double kDivideNs = 15.0;  // fp divide at the end of each component

bool level_merge_disabled() {
  const char* e = std::getenv("BLOCKTRI_NO_LEVEL_MERGE");
  return e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0;
}
}  // namespace

template <class T>
void LevelSetSolver<T>::compute_exec_groups() {
  group_lvl_.clear();
  group_lvl_.push_back(0);
  const bool merge = !level_merge_disabled();
  bool open_run = false;  // the last group is a run of mergeable levels
  for (index_t lvl = 0; lvl < ls_.nlevels; ++lvl) {
    const offset_t width = ls_.level_ptr[static_cast<std::size_t>(lvl) + 1] -
                           ls_.level_ptr[static_cast<std::size_t>(lvl)];
    const bool mergeable = merge && width <= merge_max_width_;
    if (mergeable && open_run) {
      group_lvl_.back() = lvl + 1;  // extend the open run
    } else {
      group_lvl_.push_back(lvl + 1);
      open_run = mergeable;
    }
  }
}

template <class T>
LevelSetSolver<T>::LevelSetSolver(Csr<T> lower, ThreadPool* pool,
                                  offset_t merge_max_width)
    : a_(std::move(lower)), merge_max_width_(merge_max_width) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(a_),
                     "LevelSetSolver requires a nonsingular lower triangle");
  ls_ = compute_level_sets(a_.nrows, a_.row_ptr, a_.col_idx, pool);
  compute_exec_groups();
}

template <class T>
LevelSetSolver<T>::LevelSetSolver(Csr<T> lower, LevelSets levels,
                                  offset_t merge_max_width)
    : a_(std::move(lower)),
      ls_(std::move(levels)),
      merge_max_width_(merge_max_width) {
  BLOCKTRI_CHECK_MSG(
      ls_.level_of.size() == static_cast<std::size_t>(a_.nrows) &&
          ls_.level_item.size() == static_cast<std::size_t>(a_.nrows) &&
          ls_.level_ptr.size() == static_cast<std::size_t>(ls_.nlevels) + 1,
      "LevelSetSolver: adopted level analysis does not match the matrix");
  compute_exec_groups();
}

template <class T>
void LevelSetSolver<T>::solve_many(const T* b, T* x, index_t k, index_t ld,
                                   ThreadPool* pool,
                                   const ExecControl* ctl) const {
  if (k <= 0) return;
  const auto rows_many = [&](offset_t p0, offset_t p1, index_t c0,
                             index_t c1) {
    simd::sptrsv_rows_many(a_.row_ptr.data(), a_.col_idx.data(),
                           a_.val.data(), ls_.level_item.data(), p0, p1, b, x,
                           c0, c1, ld);
  };
  const bool parallel = parallel_enabled(pool);
  const index_t ngroups = exec_groups();
  for (index_t g = 0; g < ngroups; ++g) {
    if (ctl != nullptr && !ctl->check()) return;
    const index_t g_lo = group_lvl_[static_cast<std::size_t>(g)];
    const index_t g_hi = group_lvl_[static_cast<std::size_t>(g) + 1];
    const offset_t lo = ls_.level_ptr[static_cast<std::size_t>(g_lo)];
    const offset_t hi = ls_.level_ptr[static_cast<std::size_t>(g_hi)];
    const bool single_level = g_hi - g_lo == 1;
    if (parallel && single_level && hi - lo >= 2 * pool->size()) {
      // Wide level: split the rows (each row owns its x entries in every
      // column), barrier at return.
      pool->parallel_for(static_cast<index_t>(lo), static_cast<index_t>(hi),
                         [&](index_t cb, index_t ce, int) {
                           rows_many(cb, ce, 0, k);
                         });
    } else if (parallel && k >= 2 * pool->size()) {
      // Narrow/merged group, many columns: split the columns instead; each
      // chunk walks the group's rows serially (level order → dependencies
      // satisfied) over its own column range.
      pool->parallel_for(0, k, [&](index_t c0, index_t c1, int) {
        rows_many(lo, hi, c0, c1);
      });
    } else {
      rows_many(lo, hi, 0, k);
    }
  }
}

template <class T>
void LevelSetSolver<T>::solve(const T* b, T* x, const TrsvSim* s,
                              ThreadPool* pool,
                              const ExecControl* ctl) const {
  const int elem = static_cast<int>(sizeof(T));
  const bool simulate = s != nullptr && s->active();
  std::uint64_t addrs[kWarp];

  // Rows within a level write distinct x entries and read x only from
  // earlier levels, so any per-level partition is race-free; parallel_for's
  // deterministic chunking makes it bitwise reproducible too. Items inside a
  // merged group are in level order, so one flat in-order pass over the
  // group respects every dependency.
  const bool parallel = !simulate && parallel_enabled(pool);
  const auto* rp = a_.row_ptr.data();
  const auto* ci = a_.col_idx.data();
  const auto* av = a_.val.data();
  const auto* items = ls_.level_item.data();

  if (!simulate) {
    const index_t ngroups = exec_groups();
    for (index_t g = 0; g < ngroups; ++g) {
      // Deadline/cancel checkpoint at the group boundary — between the same
      // barriers Alg. 2 already pays for, so the poll costs one relaxed load.
      if (ctl != nullptr && !ctl->check()) return;
      const index_t g_lo = group_lvl_[static_cast<std::size_t>(g)];
      const index_t g_hi = group_lvl_[static_cast<std::size_t>(g) + 1];
      const offset_t lo = ls_.level_ptr[static_cast<std::size_t>(g_lo)];
      const offset_t hi = ls_.level_ptr[static_cast<std::size_t>(g_hi)];
      if (parallel && g_hi - g_lo == 1 && hi - lo >= 2 * pool->size()) {
        pool->parallel_for(
            static_cast<index_t>(lo), static_cast<index_t>(hi),
            [&](index_t cb, index_t ce, int) {
              simd::sptrsv_rows(rp, ci, av, items, cb, ce, b, x);
            });  // parallel_for returns = the per-level barrier (Alg. 2 l. 20)
      } else {
        // Narrow level or merged run of tiny levels: one flat in-order pass.
        simd::sptrsv_rows(rp, ci, av, items, lo, hi, b, x);
      }
    }
    return;
  }

  std::optional<sim::KernelSim> ks;
  ks.emplace(*s->gpu, s->cache, s->fp64);

  for (index_t lvl = 0; lvl < ls_.nlevels; ++lvl) {
    for (offset_t p = ls_.level_ptr[static_cast<std::size_t>(lvl)];
         p < ls_.level_ptr[static_cast<std::size_t>(lvl) + 1]; ++p) {
      const index_t i = ls_.level_item[static_cast<std::size_t>(p)];
      const offset_t lo = a_.row_ptr[static_cast<std::size_t>(i)];
      const offset_t hi = a_.row_ptr[static_cast<std::size_t>(i) + 1];

      // Host execution: components within a level are independent, so the
      // sequential order here matches any parallel order numerically
      // (distinct x entries are written). The single-row simd call keeps the
      // simulated branch bitwise identical to the host branch above.
      simd::sptrsv_rows(rp, ci, av, &i, 0, 1, b, x);

      // One warp per component: gather the solved x entries of the row in
      // 32-lane groups, stream the row's structure, divide, write x[i].
      ks->begin_task();
      // Scattered row_ptr lookup (rows of a level are not contiguous).
      ks->touch(s->aux_base + static_cast<std::uint64_t>(i) * 8u, 8);
      ks->stream_bytes(static_cast<std::int64_t>(sizeof(offset_t)) +
                       (hi - lo) * (static_cast<std::int64_t>(
                                        sizeof(index_t)) +
                                    elem));
      for (offset_t k = lo; k < hi - 1; k += kWarp) {
        const int n = static_cast<int>(std::min<offset_t>(kWarp, hi - 1 - k));
        for (int l = 0; l < n; ++l)
          addrs[l] = s->x_base +
                     static_cast<std::uint64_t>(
                         a_.col_idx[static_cast<std::size_t>(k + l)]) *
                         static_cast<std::uint64_t>(elem);
        ks->gather(addrs, n, elem);
      }
      ks->touch(s->b_base + static_cast<std::uint64_t>(i) *
                                static_cast<std::uint64_t>(elem),
                elem);
      ks->flops(2 * (hi - lo));
      ks->serial_ns(s->gpu->divide_ns);
      ks->touch(s->x_base + static_cast<std::uint64_t>(i) *
                                static_cast<std::uint64_t>(elem),
                elem);
      ks->end_task();
    }
    // Barrier between levels = one kernel launch per level (Alg. 2 line 20).
    s->report->add_kernel_launch(ks->finish(), s->gpu->kernel_launch_ns);
  }
}

template class LevelSetSolver<float>;
template class LevelSetSolver<double>;

}  // namespace blocktri
