// The host SpMV update the block algorithms need for their square and
// rectangular blocks (Algorithms 4–6):   y ← y − A·x
// over the block's local index space. There is one body per storage format:
//
//   * a CSR block — every row, in order;
//   * a listed-row block (Dcsr) — only its listed rows, in the order they
//     are held (a built BlockSolver's squares list their non-empty rows by
//     window and length, core/plan.hpp).
//
// Each format has a single-RHS and a panel (multi-RHS) form. The paper's
// four SpMV kinds (scalar/vector × CSR/DCSR, §3.4) are GPU thread mappings:
// model/kernels.hpp accounts them, and on the host every kind runs these
// bodies, which compute each row's sum in the same order.
#pragma once

#include <vector>

#include "common/thread_pool.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

// Every body accepts an optional thread pool: the rows (listed rows for a
// Dcsr) are partitioned into contiguous nnz-balanced chunks
// (balanced_row_partition), one per thread. Each row writes its own y entry,
// so the parallel result is bitwise identical to the serial one, at any
// thread count. A null pool — or a block below kHostParallelMinNnz — takes
// the serial path.

template <class T>
void spmv_update(const Csr<T>& a, const T* x, T* y, ThreadPool* pool = nullptr);

template <class T>
void spmv_update(const Dcsr<T>& a, const T* x, T* y,
                 ThreadPool* pool = nullptr);

// SpMM-style Y ← Y − A·X over row-interleaved multi-RHS panels: X has k
// columns with row stride `ldx` (element (i, c) at x[i·ldx + c]), Y with
// `ldy`. Each row streams its structure once and updates all k columns in
// kRhsTile-wide stack-accumulated groups, so the block's arrays are read
// once per solve step instead of once per RHS. Every row writes only its
// own y entries across every column, so the result is bitwise identical to
// k single-RHS calls at any thread count.

template <class T>
void spmv_update_many(const Csr<T>& a, const T* x, T* y, index_t k,
                      index_t ldx, index_t ldy, ThreadPool* pool = nullptr);

template <class T>
void spmv_update_many(const Dcsr<T>& a, const T* x, T* y, index_t k,
                      index_t ldx, index_t ldy, ThreadPool* pool = nullptr);

/// Plain y = A·x convenience used by examples/tests.
template <class T>
std::vector<T> spmv_apply(const Csr<T>& a, const std::vector<T>& x);

}  // namespace blocktri
