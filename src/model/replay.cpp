#include "model/replay.hpp"

#include <algorithm>
#include <utility>

namespace blocktri::model {

void replay(std::span<const Step> steps, index_t n, const sim::GpuSpec& gpu,
            sim::CacheModel* cache, bool fp64, int elem,
            sim::SolveReport* report, BlockSolveBreakdown* breakdown) {
  BLOCKTRI_CHECK(report != nullptr);
  sim::AddressSpace as;
  const auto n_u = static_cast<std::uint64_t>(n);
  const auto elem_u = static_cast<std::uint64_t>(elem);
  const std::uint64_t x_base = as.reserve(n_u * elem_u);
  const std::uint64_t b_base = as.reserve(n_u * elem_u);
  const std::uint64_t aux_base = as.reserve(n_u * (elem_u + 4));

  for (const Step& step : steps) {
    const double ns_before = report->ns;
    const auto r0 = static_cast<std::uint64_t>(step.r0);
    if (step.square == nullptr) {
      TrsvSim ts;
      ts.gpu = &gpu;
      ts.cache = cache;
      ts.fp64 = fp64;
      ts.elem = elem;
      ts.x_base = x_base + r0 * elem_u;
      ts.b_base = b_base + r0 * elem_u;
      ts.aux_base = aux_base + r0 * (elem_u + 4);
      ts.report = report;
      const int launches_before = report->kernel_launches;
      triangle(step.tri_kind, step.tri, ts);
      if (breakdown != nullptr) {
        breakdown->tri_ns += report->ns - ns_before;
        breakdown->tri_kernels += report->kernel_launches - launches_before;
      }
    } else {
      // Every square is one launch, an empty one too.
      sim::KernelSim ks(gpu, cache, fp64);
      spmv(step.square_kind, *step.square, ks, elem,
           x_base + static_cast<std::uint64_t>(step.c0) * elem_u,
           b_base + r0 * elem_u);
      report->add_kernel_launch(ks.finish(), gpu.kernel_launch_ns);
      if (breakdown != nullptr) {
        breakdown->spmv_ns += report->ns - ns_before;
        ++breakdown->spmv_kernels;
      }
    }
  }
}

sim::SolveReport replay_warm(std::span<const Step> steps, index_t n,
                             const sim::GpuSpec& gpu, bool fp64, int elem) {
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  sim::SolveReport warm;
  replay(steps, n, gpu, &cache, fp64, elem, &warm);
  sim::SolveReport rep;
  replay(steps, n, gpu, &cache, fp64, elem, &rep);
  return rep;
}

template <class T>
TriStructure tri_structure(const Csr<T>& rows, ThreadPool* pool) {
  TriStructure s;
  s.n = rows.nrows;
  s.row_ptr = rows.row_ptr;
  s.col_idx = rows.col_idx;
  s.levels = compute_level_sets(rows.nrows, rows.row_ptr, rows.col_idx, pool);
  return s;
}

namespace {

/// The view of kind `kind` of rows held in any order: `ids[p]` is the row of
/// the p-th held row, which spans [ptr[p], ptr[p + 1]) of `col`.
SquareView listed_view(SpmvKernelKind kind, index_t nrows,
                       std::span<const index_t> ids,
                       std::span<const offset_t> ptr,
                       std::span<const index_t> col) {
  std::vector<std::pair<index_t, std::size_t>> order(ids.size());
  for (std::size_t p = 0; p < order.size(); ++p) order[p] = {ids[p], p};
  std::sort(order.begin(), order.end());
  SquareView v;
  v.dcsr = is_dcsr(kind);
  v.row_ptr.reserve((v.dcsr ? order.size() : static_cast<std::size_t>(nrows)) +
                    1);
  v.col_idx.reserve(col.size());
  if (v.dcsr) v.row_ids.reserve(order.size());
  index_t next = 0;  // CSR: the next row to store
  const auto stored = [&] {
    return static_cast<offset_t>(v.col_idx.size());
  };
  for (const auto& [id, p] : order) {
    if (v.dcsr) {
      v.row_ids.push_back(id);
    } else {
      for (; next < id; ++next) v.row_ptr.push_back(stored());  // empty rows
      next = id + 1;
    }
    v.col_idx.insert(v.col_idx.end(),
                     col.begin() + static_cast<std::ptrdiff_t>(ptr[p]),
                     col.begin() + static_cast<std::ptrdiff_t>(ptr[p + 1]));
    v.row_ptr.push_back(stored());
  }
  if (!v.dcsr)
    for (; next < nrows; ++next) v.row_ptr.push_back(stored());
  return v;
}

}  // namespace

template <class T>
SquareView square_view(SpmvKernelKind kind, const Csr<T>& a) {
  SquareView v;
  v.dcsr = is_dcsr(kind);
  if (!v.dcsr) {
    v.row_ptr = a.row_ptr;
    v.col_idx = a.col_idx;
    return v;
  }
  v.col_idx = a.col_idx;  // empty rows hold no entries
  for (index_t i = 0; i < a.nrows; ++i) {
    if (a.row_nnz(i) == 0) continue;
    v.row_ids.push_back(i);
    v.row_ptr.push_back(a.row_ptr[static_cast<std::size_t>(i) + 1]);
  }
  return v;
}

template <class T>
SquareView square_view(SpmvKernelKind kind, const Dcsr<T>& a) {
  return listed_view(kind, a.nrows, a.row_ids, a.row_ptr, a.col_idx);
}

#define BLOCKTRI_INSTANTIATE(T)                                              \
  template TriStructure tri_structure(const Csr<T>&, ThreadPool*);           \
  template SquareView square_view(SpmvKernelKind, const Csr<T>&);            \
  template SquareView square_view(SpmvKernelKind, const Dcsr<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri::model
