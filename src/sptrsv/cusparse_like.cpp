#include "sptrsv/cusparse_like.hpp"

#include <algorithm>
#include <optional>

#include "common/simd.hpp"
#include "sim/kernel_sim.hpp"
#include "sparse/triangular.hpp"

namespace blocktri {

namespace {
// One thread per row: val/col_idx reads are strided per lane, not coalesced
// (same factor as the scalar SpMV kernels — see spmv/kernels.cpp).
constexpr double kUncoalescedFactor = 4.0;

// Items per deadline poll when a control is armed: large enough that the
// check disappears against the memory traffic of a chunk, small enough that
// a deadline fires promptly even on huge flat blocks.
constexpr offset_t kCtlChunkItems = 8192;
}  // namespace

template <class T>
CusparseLikeSolver<T>::CusparseLikeSolver(Csr<T> lower,
                                          index_t merge_component_budget)
    : a_(std::move(lower)) {
  BLOCKTRI_CHECK_MSG(is_lower_triangular_nonsingular(a_),
                     "CusparseLikeSolver requires a nonsingular lower triangle");
  ls_ = compute_level_sets(a_);
  kernel_first_level_ = merge_schedule(ls_, merge_component_budget);
}

template <class T>
std::vector<index_t> CusparseLikeSolver<T>::merge_schedule(
    const LevelSets& levels, index_t merge_component_budget) {
  BLOCKTRI_CHECK(merge_component_budget > 0);
  // Pack consecutive levels into kernels until the component budget fills —
  // Naumov's small-level merging. Wide levels get kernels of their own.
  std::vector<index_t> first;
  index_t in_kernel = 0;
  for (index_t lvl = 0; lvl < levels.nlevels; ++lvl) {
    const index_t w = levels.level_width(lvl);
    if (first.empty() || in_kernel + w > merge_component_budget) {
      first.push_back(lvl);
      in_kernel = 0;
    }
    in_kernel += w;
  }
  return first;
}

template <class T>
CusparseLikeSolver<T>::CusparseLikeSolver(
    Csr<T> lower, LevelSets levels, std::vector<index_t> kernel_first_level)
    : a_(std::move(lower)),
      ls_(std::move(levels)),
      kernel_first_level_(std::move(kernel_first_level)) {
  BLOCKTRI_CHECK_MSG(
      ls_.level_of.size() == static_cast<std::size_t>(a_.nrows) &&
          ls_.level_item.size() == static_cast<std::size_t>(a_.nrows) &&
          ls_.level_ptr.size() == static_cast<std::size_t>(ls_.nlevels) + 1 &&
          (ls_.nlevels == 0 || !kernel_first_level_.empty()),
      "CusparseLikeSolver: adopted schedule does not match the matrix");
}

template <class T>
void CusparseLikeSolver<T>::solve_many(const T* b, T* x, index_t k, index_t ld,
                                       const ExecControl* ctl) const {
  if (k <= 0) return;
  const auto rows_many = [&](offset_t p0, offset_t p1) {
    simd::sptrsv_rows_many(a_.row_ptr.data(), a_.col_idx.data(),
                           a_.val.data(), ls_.level_item.data(), p0, p1, b, x,
                           0, k, ld);
  };
  // One flat pass over the level-ordered item list — in-order processing
  // satisfies every dependency, and the barriers only matter to the cost
  // model, not to host execution. With an armed control the pass is chunked
  // (identical item order, so identical results) to create poll points.
  const offset_t end = ls_.level_ptr[static_cast<std::size_t>(ls_.nlevels)];
  if (ctl != nullptr && ctl->armed()) {
    for (offset_t p = 0; p < end; p += kCtlChunkItems) {
      if (!ctl->check()) return;
      rows_many(p, std::min<offset_t>(p + kCtlChunkItems, end));
    }
    return;
  }
  if (ctl != nullptr && !ctl->check()) return;
  rows_many(0, end);
}

template <class T>
void CusparseLikeSolver<T>::solve(const T* b, T* x, const TrsvSim* s,
                                  const ExecControl* ctl) const {
  const int elem = static_cast<int>(sizeof(T));
  const bool simulate = s != nullptr && s->active();
  std::uint64_t addrs[kWarp];

  if (!simulate) {
    // Host execution: one flat in-order pass over the level-ordered items
    // (the per-level structure only matters to the simulated cost model).
    // With an armed control the pass is chunked — identical item order, so
    // identical results — to create deadline/cancel poll points.
    const offset_t end = ls_.level_ptr[static_cast<std::size_t>(ls_.nlevels)];
    if (ctl != nullptr && ctl->armed()) {
      for (offset_t p = 0; p < end; p += kCtlChunkItems) {
        if (!ctl->check()) return;
        simd::sptrsv_rows(a_.row_ptr.data(), a_.col_idx.data(), a_.val.data(),
                          ls_.level_item.data(), p,
                          std::min<offset_t>(p + kCtlChunkItems, end), b, x);
      }
      return;
    }
    if (ctl != nullptr && !ctl->check()) return;
    simd::sptrsv_rows(a_.row_ptr.data(), a_.col_idx.data(), a_.val.data(),
                      ls_.level_item.data(), 0, end, b, x);
    return;
  }

  std::optional<sim::KernelSim> ks;
  ks.emplace(*s->gpu, s->cache, s->fp64);

  std::size_t next_kernel = 0;
  for (index_t lvl = 0; lvl < ls_.nlevels; ++lvl) {
    const bool starts_kernel =
        next_kernel < kernel_first_level_.size() &&
        kernel_first_level_[next_kernel] == lvl;
    if (starts_kernel) ++next_kernel;

    const offset_t lvl_lo = ls_.level_ptr[static_cast<std::size_t>(lvl)];
    const offset_t lvl_hi = ls_.level_ptr[static_cast<std::size_t>(lvl) + 1];

    // Host execution (same order and simd path as the non-simulated branch,
    // so simulated solves stay bitwise identical to host solves).
    simd::sptrsv_rows(a_.row_ptr.data(), a_.col_idx.data(), a_.val.data(),
                      ls_.level_item.data(), lvl_lo, lvl_hi, b, x);

    if (simulate) {
      // Cost model: ONE THREAD per component (Naumov's csrsv-style kernel),
      // so a warp covers 32 components of the level and diverges to the
      // longest row among them — the scalar-kernel pathology on irregular
      // rows that §3.4 contrasts with warp-per-row processing.
      for (offset_t g = lvl_lo; g < lvl_hi; g += kWarp) {
        const int lanes = static_cast<int>(std::min<offset_t>(kWarp,
                                                              lvl_hi - g));
        ks->begin_task();
        offset_t max_len = 0;
        std::int64_t group_nnz = 0;
        for (int l = 0; l < lanes; ++l) {
          const index_t i = ls_.level_item[static_cast<std::size_t>(g + l)];
          const offset_t len = a_.row_nnz(i);
          max_len = std::max(max_len, len);
          group_nnz += len;
          // Rows of a level are scattered through the matrix, so each lane's
          // row_ptr lookup is a random access (modelled in the aux region) —
          // a real cost of level-scheduled execution that natural-order
          // kernels do not pay.
          addrs[l] = s->aux_base + static_cast<std::uint64_t>(i) * 8u;
        }
        ks->gather(addrs, lanes, 8);
        ks->stream_bytes(
            static_cast<std::int64_t>(lanes) *
                static_cast<std::int64_t>(sizeof(offset_t) +
                                          sizeof(index_t)) +
            static_cast<std::int64_t>(kUncoalescedFactor *
                                      static_cast<double>(group_nnz) *
                                      (sizeof(index_t) + elem)));
        for (offset_t it = 0; it + 1 < max_len; ++it) {
          int n = 0;
          for (int l = 0; l < lanes; ++l) {
            const index_t i = ls_.level_item[static_cast<std::size_t>(g + l)];
            const offset_t k = a_.row_ptr[static_cast<std::size_t>(i)] + it;
            if (k < a_.row_ptr[static_cast<std::size_t>(i) + 1] - 1)
              addrs[n++] =
                  s->x_base +
                  static_cast<std::uint64_t>(
                      a_.col_idx[static_cast<std::size_t>(k)]) *
                      static_cast<std::uint64_t>(elem);
          }
          if (n > 0) ks->gather(addrs, n, elem);
        }
        ks->flops(2 * group_nnz);
        ks->serial_ns(s->gpu->divide_ns);
        int n = 0;
        for (int l = 0; l < lanes; ++l)
          addrs[n++] = s->b_base +
                       static_cast<std::uint64_t>(ls_.level_item[
                           static_cast<std::size_t>(g + l)]) *
                           static_cast<std::uint64_t>(elem);
        ks->gather(addrs, n, elem);
        n = 0;
        for (int l = 0; l < lanes; ++l)
          addrs[n++] = s->x_base +
                       static_cast<std::uint64_t>(ls_.level_item[
                           static_cast<std::size_t>(g + l)]) *
                           static_cast<std::uint64_t>(elem);
        ks->gather(addrs, n, elem);
        ks->end_task();
      }

      // Every level ends at a synchronisation point, but only the first
      // level of a merged group pays a kernel launch; the following levels
      // of the group pay the cheaper intra-kernel device-wide barrier.
      const sim::KernelReport rep = ks->finish();
      if (starts_kernel) {
        s->report->add_kernel_launch(rep, s->gpu->kernel_launch_ns);
      } else {
        s->report->add_kernel_grid_sync(rep, s->gpu->grid_sync_ns);
      }
    }
  }
}

template class CusparseLikeSolver<float>;
template class CusparseLikeSolver<double>;

}  // namespace blocktri
