#include "model/kernels.hpp"

#include <algorithm>

#include "common/prefix.hpp"

namespace blocktri::model {

namespace {

// One-thread-per-row kernels walk val/col_idx at per-row strides, so
// consecutive lanes read non-adjacent addresses: each 8B access occupies a
// 32B memory sector, ~4x traffic amplification vs the coalesced streams of
// the warp-per-row kernels.
constexpr double kUncoalescedFactor = 4.0;

std::uint64_t elem_addr(std::uint64_t base, index_t i, int elem) {
  return base + static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(elem);
}

/// Alg. 3's column structure of the rows — rows ascending within each
/// column, the order csr_to_csc gives — built by counting sort for one
/// kernel. In a lower triangle each column's first entry is its diagonal.
void column_view(const TriView& v, std::vector<offset_t>* col_ptr,
                 std::vector<index_t>* row_idx) {
  col_ptr->assign(static_cast<std::size_t>(v.n) + 1, 0);
  for (const index_t c : v.col_idx) ++(*col_ptr)[static_cast<std::size_t>(c)];
  exclusive_scan_in_place(*col_ptr);
  row_idx->resize(v.col_idx.size());
  std::vector<offset_t> cursor(col_ptr->begin(), col_ptr->end() - 1);
  for (index_t i = 0; i < v.n; ++i)
    for (offset_t k = v.row_ptr[static_cast<std::size_t>(i)];
         k < v.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      (*row_idx)[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(
              v.col_idx[static_cast<std::size_t>(k)])]++)] = i;
}

void spmv_scalar(const SquareView& v, sim::KernelSim& ks, int elem,
                 std::uint64_t x_base, std::uint64_t y_base) {
  // One thread per (stored) row: a warp handles 32 consecutive rows and
  // runs for the longest row in the group (branch divergence). Iteration k
  // gathers the k-th nonzero's x entry for every lane that still has work.
  const std::int64_t ptr_entry_bytes = static_cast<std::int64_t>(
      v.dcsr ? sizeof(offset_t) + sizeof(index_t) : sizeof(offset_t));
  const std::size_t rows = v.row_ptr.size() - 1;
  std::uint64_t addrs[kWarp];
  for (std::size_t g = 0; g < rows; g += kWarp) {
    const std::size_t lanes = std::min<std::size_t>(kWarp, rows - g);
    ks.begin_task();
    offset_t max_len = 0;
    std::int64_t group_nnz = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const offset_t len = v.row_ptr[g + l + 1] - v.row_ptr[g + l];
      max_len = std::max(max_len, len);
      group_nnz += len;
    }
    // Streamed structure traffic: pointers (+ row ids for DCSR), indices and
    // values of the group's nonzeros — uncoalesced in a scalar kernel.
    ks.stream_bytes(static_cast<std::int64_t>(lanes) * ptr_entry_bytes +
                    static_cast<std::int64_t>(
                        kUncoalescedFactor *
                        static_cast<double>(group_nnz) *
                        (sizeof(index_t) + elem)));
    for (offset_t it = 0; it < max_len; ++it) {
      int n = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        const offset_t k = v.row_ptr[g + l] + it;
        if (k < v.row_ptr[g + l + 1])
          addrs[n++] = elem_addr(
              x_base, v.col_idx[static_cast<std::size_t>(k)], elem);
      }
      ks.gather(addrs, n, elem);
    }
    ks.flops(2 * group_nnz);
    // Read-modify-write of the y entries (contiguous rows for CSR, scattered
    // for DCSR — the row_ids indirection makes them potentially sparse).
    int n = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const index_t row =
          v.dcsr ? v.row_ids[g + l] : static_cast<index_t>(g + l);
      addrs[n++] = elem_addr(y_base, row, elem);
    }
    ks.gather(addrs, n, elem);
    ks.end_task();
  }
}

void spmv_vector(const SquareView& v, sim::KernelSim& ks, int elem,
                 std::uint64_t x_base, std::uint64_t y_base) {
  // One warp per (stored) row, gathering x in 32-lane groups and reducing
  // with warp shuffles.
  const std::int64_t ptr_entry_bytes = static_cast<std::int64_t>(
      v.dcsr ? sizeof(offset_t) + sizeof(index_t) : sizeof(offset_t));
  const std::size_t rows = v.row_ptr.size() - 1;
  std::uint64_t addrs[kWarp];
  for (std::size_t r = 0; r < rows; ++r) {
    const offset_t lo = v.row_ptr[r];
    const offset_t hi = v.row_ptr[r + 1];
    ks.begin_task();
    ks.stream_bytes(ptr_entry_bytes +
                    (hi - lo) * (static_cast<std::int64_t>(sizeof(index_t)) +
                                 elem));
    for (offset_t k = lo; k < hi; k += kWarp) {
      const int n = static_cast<int>(std::min<offset_t>(kWarp, hi - k));
      for (int l = 0; l < n; ++l)
        addrs[l] =
            elem_addr(x_base, v.col_idx[static_cast<std::size_t>(k + l)], elem);
      ks.gather(addrs, n, elem);
    }
    ks.flops(2 * (hi - lo));
    ks.serial_ns(ks.gpu().shuffle_reduce_ns);  // 5-step warp shuffle reduction
    const index_t row = v.dcsr ? v.row_ids[r] : static_cast<index_t>(r);
    ks.touch(elem_addr(y_base, row, elem), elem);
    ks.end_task();
  }
}

}  // namespace

void diagonal(index_t n, const TrsvSim& s) {
  const int elem = s.elem;
  sim::KernelSim ks(*s.gpu, s.cache, s.fp64);
  std::uint64_t addrs[kWarp];
  for (index_t g = 0; g < n; g += kWarp) {
    const int lanes = static_cast<int>(std::min<index_t>(kWarp, n - g));
    ks.begin_task();
    ks.stream_bytes(static_cast<std::int64_t>(lanes) * elem);  // diag values
    for (int l = 0; l < lanes; ++l) addrs[l] = elem_addr(s.b_base, g + l, elem);
    ks.gather(addrs, lanes, elem);
    for (int l = 0; l < lanes; ++l) addrs[l] = elem_addr(s.x_base, g + l, elem);
    ks.gather(addrs, lanes, elem);
    // GFlops convention as in the paper: 2 flops per nonzero (a diagonal
    // block has one nonzero per row).
    ks.flops(2 * lanes);
    ks.serial_ns(s.gpu->divide_ns);
    ks.end_task();
  }
  s.report->add_kernel_launch(ks.finish(), s.gpu->kernel_launch_ns);
}

void level_set(const TriView& v, const TrsvSim& s) {
  const int elem = s.elem;
  const LevelSets& ls = *v.levels;
  sim::KernelSim ks(*s.gpu, s.cache, s.fp64);
  std::uint64_t addrs[kWarp];
  for (index_t lvl = 0; lvl < ls.nlevels; ++lvl) {
    for (offset_t p = ls.level_ptr[static_cast<std::size_t>(lvl)];
         p < ls.level_ptr[static_cast<std::size_t>(lvl) + 1]; ++p) {
      const index_t i = ls.level_item[static_cast<std::size_t>(p)];
      const offset_t lo = v.row_ptr[static_cast<std::size_t>(i)];
      const offset_t hi = v.row_ptr[static_cast<std::size_t>(i) + 1];
      // One warp per component: gather the solved x entries of the row in
      // 32-lane groups, stream the row's structure, divide, write x[i].
      ks.begin_task();
      // Scattered row_ptr lookup (rows of a level are not contiguous).
      ks.touch(s.aux_base + static_cast<std::uint64_t>(i) * 8u, 8);
      ks.stream_bytes(static_cast<std::int64_t>(sizeof(offset_t)) +
                      (hi - lo) * (static_cast<std::int64_t>(
                                       sizeof(index_t)) +
                                   elem));
      for (offset_t k = lo; k < hi - 1; k += kWarp) {
        const int n = static_cast<int>(std::min<offset_t>(kWarp, hi - 1 - k));
        for (int l = 0; l < n; ++l)
          addrs[l] = elem_addr(
              s.x_base, v.col_idx[static_cast<std::size_t>(k + l)], elem);
        ks.gather(addrs, n, elem);
      }
      ks.touch(elem_addr(s.b_base, i, elem), elem);
      ks.flops(2 * (hi - lo));
      ks.serial_ns(s.gpu->divide_ns);
      ks.touch(elem_addr(s.x_base, i, elem), elem);
      ks.end_task();
    }
    // Barrier between levels = one kernel launch per level (Alg. 2 line 20).
    s.report->add_kernel_launch(ks.finish(), s.gpu->kernel_launch_ns);
  }
}

void sync_free(const TriView& v, const TrsvSim& s) {
  const index_t n = v.n;
  const int elem = s.elem;
  // Alg. 3's data flow over CSC: a left_sum accumulator per component,
  // updated column by column.
  std::vector<offset_t> col_ptr;
  std::vector<index_t> row_idx;
  column_view(v, &col_ptr, &row_idx);
  sim::KernelSim ks(*s.gpu, s.cache, s.fp64);
  std::uint64_t addrs[kWarp];
  // Reset kernel: left_sum must be zeroed and in_degree restored before
  // every solve (Alg. 3's counters are consumed by the previous run) — a
  // real extra launch the level-set methods do not pay.
  ks.begin_task();
  ks.stream_bytes(static_cast<std::int64_t>(n) * (elem + 4));
  ks.end_task();
  s.report->add_kernel_launch(ks.finish(), s.gpu->kernel_launch_ns);
  // Scratch address layout: left_sum[i] then in_degree[i] per component.
  const std::uint64_t ls_base = s.aux_base;
  const std::uint64_t deg_base =
      s.aux_base +
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(elem);

  for (index_t i = 0; i < n; ++i) {
    const offset_t clo = col_ptr[static_cast<std::size_t>(i)];
    const offset_t chi = col_ptr[static_cast<std::size_t>(i) + 1];
    ks.begin_task();
    // Busy-wait: at minimum one read of the in-degree counter; the real
    // waiting time is produced by the scheduler through the dependency
    // edges below (row i's strict entries; the slot is held while waiting).
    for (offset_t k = v.row_ptr[static_cast<std::size_t>(i)];
         k < v.row_ptr[static_cast<std::size_t>(i) + 1] - 1; ++k)
      ks.dep(v.col_idx[static_cast<std::size_t>(k)]);
    ks.touch(deg_base + static_cast<std::uint64_t>(i) * 4u, 4);

    // Compute x_i: read b_i and left_sum_i, stream the diagonal value,
    // divide, write x_i.
    ks.touch(elem_addr(s.b_base, i, elem), elem);
    ks.touch(elem_addr(ls_base, i, elem), elem);
    ks.stream_bytes(static_cast<std::int64_t>(sizeof(offset_t)) + elem);
    ks.serial_ns(s.gpu->divide_ns);
    ks.touch(elem_addr(s.x_base, i, elem), elem);

    // Notify dependents: stream the column structure, one atomic add on
    // left_sum and one atomic decrement on in_degree per entry below the
    // diagonal (Alg. 3 lines 12–15), issued by the warp's lanes in 32-wide
    // groups.
    const offset_t col_len = chi - (clo + 1);
    ks.stream_bytes(col_len * (static_cast<std::int64_t>(sizeof(index_t)) +
                               elem));
    ks.flops(2 * col_len + 2);
    for (offset_t k = clo + 1; k < chi; k += kWarp) {
      const int g = static_cast<int>(std::min<offset_t>(kWarp, chi - k));
      for (int l = 0; l < g; ++l)
        addrs[l] = elem_addr(ls_base, row_idx[static_cast<std::size_t>(k + l)],
                             elem);
      ks.atomic(addrs, g, elem);
      for (int l = 0; l < g; ++l)
        addrs[l] = deg_base + static_cast<std::uint64_t>(
                                  row_idx[static_cast<std::size_t>(k + l)]) *
                                  4u;
      ks.atomic(addrs, g, 4);
    }
    ks.end_task();
  }
  // The whole solve is one kernel launch — the algorithm's selling point.
  s.report->add_kernel_launch(ks.finish(), s.gpu->kernel_launch_ns);
}

void cusparse_like(const TriView& v, const TrsvSim& s) {
  const int elem = s.elem;
  const LevelSets& ls = *v.levels;
  const auto row_end = [&](index_t i) {
    return v.row_ptr[static_cast<std::size_t>(i) + 1];
  };
  sim::KernelSim ks(*s.gpu, s.cache, s.fp64);
  std::uint64_t addrs[kWarp];
  // Naumov's small-level merging: consecutive levels pack into one kernel
  // until their combined component count would pass the budget.
  BLOCKTRI_CHECK(v.merge_budget > 0);
  index_t in_kernel = 0;
  for (index_t lvl = 0; lvl < ls.nlevels; ++lvl) {
    const index_t width = ls.level_width(lvl);
    const bool starts_kernel =
        lvl == 0 || in_kernel + width > v.merge_budget;
    if (starts_kernel) in_kernel = 0;
    in_kernel += width;

    const offset_t lvl_lo = ls.level_ptr[static_cast<std::size_t>(lvl)];
    const offset_t lvl_hi = ls.level_ptr[static_cast<std::size_t>(lvl) + 1];
    const auto item = [&](offset_t p) {
      return ls.level_item[static_cast<std::size_t>(p)];
    };
    // ONE THREAD per component (Naumov's csrsv-style kernel), so a warp
    // covers 32 components of the level and diverges to the longest row
    // among them — the scalar-kernel pathology on irregular rows that §3.4
    // contrasts with warp-per-row processing.
    for (offset_t g = lvl_lo; g < lvl_hi; g += kWarp) {
      const int lanes = static_cast<int>(std::min<offset_t>(kWarp, lvl_hi - g));
      ks.begin_task();
      offset_t max_len = 0;
      std::int64_t group_nnz = 0;
      for (int l = 0; l < lanes; ++l) {
        const index_t i = item(g + l);
        const offset_t len = row_end(i) - v.row_ptr[static_cast<std::size_t>(i)];
        max_len = std::max(max_len, len);
        group_nnz += len;
        // Rows of a level are scattered through the matrix, so each lane's
        // row_ptr lookup is a random access (modelled in the aux region) —
        // a real cost of level-scheduled execution that natural-order
        // kernels do not pay.
        addrs[l] = s.aux_base + static_cast<std::uint64_t>(i) * 8u;
      }
      ks.gather(addrs, lanes, 8);
      ks.stream_bytes(
          static_cast<std::int64_t>(lanes) *
              static_cast<std::int64_t>(sizeof(offset_t) + sizeof(index_t)) +
          static_cast<std::int64_t>(kUncoalescedFactor *
                                    static_cast<double>(group_nnz) *
                                    (sizeof(index_t) + elem)));
      for (offset_t it = 0; it + 1 < max_len; ++it) {
        int n = 0;
        for (int l = 0; l < lanes; ++l) {
          const index_t i = item(g + l);
          const offset_t k = v.row_ptr[static_cast<std::size_t>(i)] + it;
          if (k < row_end(i) - 1)
            addrs[n++] = elem_addr(
                s.x_base, v.col_idx[static_cast<std::size_t>(k)], elem);
        }
        if (n > 0) ks.gather(addrs, n, elem);
      }
      ks.flops(2 * group_nnz);
      ks.serial_ns(s.gpu->divide_ns);
      for (int l = 0; l < lanes; ++l)
        addrs[l] = elem_addr(s.b_base, item(g + l), elem);
      ks.gather(addrs, lanes, elem);
      for (int l = 0; l < lanes; ++l)
        addrs[l] = elem_addr(s.x_base, item(g + l), elem);
      ks.gather(addrs, lanes, elem);
      ks.end_task();
    }

    // Every level ends at a synchronisation point, but only the first level
    // of a merged group pays a kernel launch; the following levels of the
    // group pay the cheaper intra-kernel device-wide barrier.
    const sim::KernelReport rep = ks.finish();
    if (starts_kernel) {
      s.report->add_kernel_launch(rep, s.gpu->kernel_launch_ns);
    } else {
      s.report->add_kernel_grid_sync(rep, s.gpu->grid_sync_ns);
    }
  }
}

void triangle(TriKernelKind kind, const TriView& v, const TrsvSim& s) {
  switch (kind) {
    case TriKernelKind::kCompletelyParallel:
      diagonal(v.n, s);
      return;
    case TriKernelKind::kLevelSet:
      level_set(v, s);
      return;
    case TriKernelKind::kSyncFree:
      sync_free(v, s);
      return;
    case TriKernelKind::kCusparseLike:
      cusparse_like(v, s);
      return;
  }
  BLOCKTRI_CHECK_MSG(false, "unknown triangular kernel kind");
}

void spmv(SpmvKernelKind kind, const SquareView& v, sim::KernelSim& ks,
          int elem, std::uint64_t x_base, std::uint64_t y_base) {
  BLOCKTRI_CHECK_MSG(v.dcsr == is_dcsr(kind),
                     "SpMV kernel kind does not match the square's view");
  if (kind == SpmvKernelKind::kScalarCsr ||
      kind == SpmvKernelKind::kScalarDcsr) {
    spmv_scalar(v, ks, elem, x_base, y_base);
  } else {
    spmv_vector(v, ks, elem, x_base, y_base);
  }
}

}  // namespace blocktri::model
