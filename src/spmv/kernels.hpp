// The four SpMV kernels of §3.4, used for the square/rectangular blocks of
// the block algorithms:
//
//   * scalar-CSR  — one thread per row. Best for short rows; a warp covers 32
//                   consecutive rows and diverges to the longest row in the
//                   group (modelled).
//   * vector-CSR  — one 32-lane warp per row. Best for long rows.
//   * scalar-DCSR / vector-DCSR — same, but iterating only the non-empty
//                   rows of a doubly-compressed block (§3.3); wins when
//                   emptyratio is high because no threads are wasted on
//                   empty rows.
//
// All kernels compute the *update* form the block algorithms need
// (Algorithms 4–6):   y ← y − A·x
// over the block's local index space. Each function optionally accounts its
// cost into a sim::KernelSim; the caller composes kernels into launches.
#pragma once

#include <cstdint>
#include <string>

#include "common/thread_pool.hpp"
#include "sim/kernel_sim.hpp"
#include "sparse/formats.hpp"

namespace blocktri {

enum class SpmvKernelKind {
  kScalarCsr,
  kVectorCsr,
  kScalarDcsr,
  kVectorDcsr,
};

std::string to_string(SpmvKernelKind k);

/// Simulation context for one SpMV call: where the x and y segments live in
/// the simulator's address space. Null `ks` disables cost accounting.
struct SpmvSim {
  sim::KernelSim* ks = nullptr;
  std::uint64_t x_base = 0;
  std::uint64_t y_base = 0;
};

// Host execution of every kernel accepts an optional thread pool: the rows
// (listed rows for DCSR) are partitioned into contiguous nnz-balanced chunks
// (balanced_row_partition), one per thread. Each row writes its own y entry,
// so the parallel result is bitwise identical to the serial one, at any
// thread count. A null pool — or a block below kHostParallelMinNnz — takes
// the untouched serial path.

template <class T>
void spmv_scalar_csr(const Csr<T>& a, const T* x, T* y, const SpmvSim* s,
                     ThreadPool* pool = nullptr);

template <class T>
void spmv_vector_csr(const Csr<T>& a, const T* x, T* y, const SpmvSim* s,
                     ThreadPool* pool = nullptr);

template <class T>
void spmv_scalar_dcsr(const Dcsr<T>& a, const T* x, T* y, const SpmvSim* s,
                      ThreadPool* pool = nullptr);

template <class T>
void spmv_vector_dcsr(const Dcsr<T>& a, const T* x, T* y, const SpmvSim* s,
                      ThreadPool* pool = nullptr);

/// Dispatch by kind on a CSR block (DCSR kinds convert on the fly — only used
/// by the calibration harness; a built BlockSolver holds every square as
/// listed rows and runs them through the DCSR body).
template <class T>
void spmv_update(SpmvKernelKind kind, const Csr<T>& a, const T* x, T* y,
                 const SpmvSim* s, ThreadPool* pool = nullptr);

// --- Batched (multi-RHS) update kernels -------------------------------------
//
// SpMM-style Y ← Y − A·X over row-interleaved multi-RHS panels: X has k
// columns with row stride `ldx` (element (i, c) at x[i·ldx + c]), Y with
// `ldy`. Each (listed) row streams its structure once and updates all k
// columns in kRhsTile-wide stack-accumulated groups, so the CSR/DCSR arrays
// are read once per solve step instead of once per RHS. Host only (no
// simulation context — the batched path is the wall-clock execution
// backend). Every row writes only its own y entries across every column, so
// the result is bitwise identical to k single-RHS calls at any thread count.

template <class T>
void spmv_scalar_csr_many(const Csr<T>& a, const T* x, T* y, index_t k,
                          index_t ldx, index_t ldy,
                          ThreadPool* pool = nullptr);

template <class T>
void spmv_vector_csr_many(const Csr<T>& a, const T* x, T* y, index_t k,
                          index_t ldx, index_t ldy,
                          ThreadPool* pool = nullptr);

template <class T>
void spmv_scalar_dcsr_many(const Dcsr<T>& a, const T* x, T* y, index_t k,
                           index_t ldx, index_t ldy,
                           ThreadPool* pool = nullptr);

template <class T>
void spmv_vector_dcsr_many(const Dcsr<T>& a, const T* x, T* y, index_t k,
                           index_t ldx, index_t ldy,
                           ThreadPool* pool = nullptr);

/// Plain y = A·x convenience used by examples/tests (no simulation).
template <class T>
std::vector<T> spmv_apply(const Csr<T>& a, const std::vector<T>& x);

}  // namespace blocktri
