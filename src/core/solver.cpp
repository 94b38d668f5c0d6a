#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <tuple>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "order/hbmc.hpp"
#include "persist/artifact.hpp"
#include "persist/plan_cache.hpp"
#include "sparse/permute.hpp"
#include "sparse/triangular.hpp"
#include "sptrsv/serial.hpp"

namespace blocktri {

namespace {
/// Whether v[0], v[stride], ..., v[(n−1)·stride] are all finite.
template <class T>
bool all_finite(const T* v, index_t n, index_t stride = 1) {
  for (index_t i = 0; i < n; ++i)
    if (!std::isfinite(static_cast<double>(
            v[static_cast<std::size_t>(i) * static_cast<std::size_t>(stride)])))
      return false;
  return true;
}

/// Fused entry permutation: scatters the caller's rhs straight into the
/// permuted workspace in one pass (the old path materialised a permuted
/// vector and copied it).
template <class T>
void scatter_permuted(const T* src, const std::vector<index_t>& new_of_old,
                      T* dst) {
  const std::size_t n = new_of_old.size();
  for (std::size_t i = 0; i < n; ++i)
    dst[static_cast<std::size_t>(new_of_old[i])] = src[i];
}

/// Fused exit permutation: gathers the permuted solution into the caller's
/// storage in one pass.
template <class T>
void gather_permuted(const T* src, const std::vector<index_t>& new_of_old,
                     T* dst) {
  const std::size_t n = new_of_old.size();
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = src[static_cast<std::size_t>(new_of_old[i])];
}

/// `total` elements of `v` from its first 64-byte-aligned one. When a row
/// slab of an interleaved panel (k elements) is a cache-line multiple, every
/// tile-wide gather/update in the batched kernels then touches exactly the
/// lines it covers — an unaligned base would spill each slab across one
/// extra line.
template <class T>
T* aligned_panel(std::vector<T>& v, std::size_t total) {
  v.resize(total + 64 / sizeof(T) - 1);
  const auto u = reinterpret_cast<std::uintptr_t>(v.data());
  return reinterpret_cast<T*>((u + 63u) & ~std::uintptr_t{63u});
}

/// Fused entry permutation of a panel: the caller's column-major n × k
/// panel — column c at B + c·n, or at Bs[c] when B is null — transposed
/// into the row-interleaved permuted workspace, element (new_of_old[i], c)
/// at bw[new_of_old[i]·k + c].
template <class T>
void scatter_panel(const T* B, const T* const* Bs,
                   const std::vector<index_t>& new_of_old, index_t k, T* bw) {
  const std::size_t n = new_of_old.size();
  const auto ku = static_cast<std::size_t>(k);
  if (Bs != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      T* row = bw + static_cast<std::size_t>(new_of_old[i]) * ku;
      for (std::size_t c = 0; c < ku; ++c) row[c] = Bs[c][i];
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    T* row = bw + static_cast<std::size_t>(new_of_old[i]) * ku;
    const T* bi = B + i;
    for (std::size_t c = 0; c < ku; ++c) row[c] = bi[c * n];
  }
}

/// Fused exit permutation of a panel, scatter_panel's inverse: the
/// interleaved permuted solution back to the caller's column-major X, or to
/// the columns Xs[c] when X is null.
template <class T>
void gather_panel(const T* xw, const std::vector<index_t>& new_of_old,
                  index_t k, T* X, T* const* Xs) {
  const std::size_t n = new_of_old.size();
  const auto ku = static_cast<std::size_t>(k);
  if (Xs != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      const T* row = xw + static_cast<std::size_t>(new_of_old[i]) * ku;
      for (std::size_t c = 0; c < ku; ++c) Xs[c][i] = row[c];
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const T* row = xw + static_cast<std::size_t>(new_of_old[i]) * ku;
    T* xi = X + i;
    for (std::size_t c = 0; c < ku; ++c) xi[c * n] = row[c];
  }
}

/// Decrements the solver's in-flight counter on scope exit, so early returns
/// and exceptions cannot leave the strict-reentrancy guard stuck.
struct InFlightGuard {
  std::atomic<int>* counter;
  ~InFlightGuard() { counter->fetch_sub(1, std::memory_order_relaxed); }
};

/// One rung of the whole-solve degradation ladder: which executor pool the
/// attempt may use and which SIMD lowering it forces (-1 = leave the active
/// path alone). `entered_by` describes the demotion that leads *into* this
/// rung, recorded as a DegradeEvent when the ladder steps down.
struct LadderRung {
  bool use_pool = false;
  int forced_path = -1;
  DegradeEvent::Kind entered_by = DegradeEvent::Kind::kParallelToSerial;
};

/// Builds the rung list for one checked solve: the configured executor
/// first, then serial, then the demoted SIMD lowerings (each rung strictly
/// more conservative than the one before). Rungs that would not change
/// anything are skipped.
inline std::vector<LadderRung> build_ladder(bool have_pool, bool fallback) {
  std::vector<LadderRung> rungs;
  rungs.push_back({have_pool, -1, DegradeEvent::Kind::kParallelToSerial});
  if (!fallback) return rungs;
  if (have_pool)
    rungs.push_back({false, -1, DegradeEvent::Kind::kParallelToSerial});
  const simd::Path active = simd::active_path();
  if (active == simd::Path::kVector)
    rungs.push_back({false, static_cast<int>(simd::Path::kBlockedScalar),
                     DegradeEvent::Kind::kVectorToBlocked});
  if (active != simd::Path::kStrictScalar)
    rungs.push_back({false, static_cast<int>(simd::Path::kStrictScalar),
                     DegradeEvent::Kind::kBlockedToStrict});
  return rungs;
}

/// check_lower_triangular + structure_hash in one pass, throwing the
/// Status: the validation the public cold constructor runs before
/// delegating.
template <class T>
std::uint64_t checked_structure_hash(const Csr<T>& lower) {
  std::uint64_t structure = 0;
  throw_if_error(check_lower_triangular(lower, &structure));
  return structure;
}

/// Rehydration copies of a captured block array: everything, or (for the
/// install paths) the index arrays plus a value array of the right length
/// that install_values then fills. An artifact its owner gives up is not
/// copied at all (see the rehydration constructor).
template <class T>
Csr<T> adopt(const Csr<T>& m, bool with_values) {
  if (with_values) return m;
  Csr<T> out;
  out.nrows = m.nrows;
  out.ncols = m.ncols;
  out.row_ptr = m.row_ptr;
  out.col_idx = m.col_idx;
  out.val.resize(m.val.size());
  return out;
}

template <class T>
Dcsr<T> adopt(const Dcsr<T>& m, bool with_values) {
  if (with_values) return m;
  Dcsr<T> out;
  out.nrows = m.nrows;
  out.ncols = m.ncols;
  out.row_ids = m.row_ids;
  out.row_ptr = m.row_ptr;
  out.col_idx = m.col_idx;
  out.val.resize(m.val.size());
  return out;
}
}  // namespace

template <class T>
BlockSolver<T>::BlockSolver(const Csr<T>& lower, const Options& opt)
    : BlockSolver(lower, opt, checked_structure_hash(lower)) {}

template <class T>
BlockSolver<T>::BlockSolver(const Csr<T>& lower, const Options& opt,
                            std::uint64_t structure)
    : opt_(opt) {
  nnz_ = lower.nnz();
  structure_hash_ = structure;

  // The pool exists before planning so preprocessing (the recursive
  // planner's sweeps) can use it too.
  threads_ = resolve_threads(opt.threads);
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);

  // --- Partition (and, for the recursive scheme, reorder): the planners
  // return their decisions only; the blocks are built from `lower` below.
  BlockNnz counts;
  // The tuner's plan and per-block decisions (kRecursive + tune.enabled
  // only); the build then adopts its kernels instead of selecting.
  tune::TunedPlan<T> tp;
  switch (opt.scheme) {
    case BlockScheme::kColumn:
      plan_ = plan_column(lower.nrows, opt.planner.nseg);
      break;
    case BlockScheme::kRow:
      plan_ = plan_row(lower.nrows, opt.planner.nseg);
      break;
    case BlockScheme::kRecursive:
      if (opt.tune.enabled) {
        // Cost-model-driven plan search (DESIGN.md §13): calibration is paid
        // once per device (in-process + on-disk cache), the search once per
        // (matrix, options) — warm artifact/PlanCache paths re-run neither.
        const tune::CostModel& model =
            tune::ensure_cost_model(opt.tune.gpu, opt.tune.model_path);
        tp = tune::autotune_recursive(lower, opt.planner, opt.thresholds,
                                      model, opt.tune, pool_.get());
        plan_ = std::move(tp.plan);
        merge_width_ = tp.merge_width;
        tune_stats_ = tp.stats;
        tuned_ = true;
      } else {
        plan_ = plan_recursive<T>(lower, opt.planner, nullptr, pool_.get(),
                                  &counts);
      }
      break;
    case BlockScheme::kHbmc:
      // The executor's calibrated run-merge width doubles as the HBMC
      // color-fusion bound (DESIGN.md §16); untuned it is the constant
      // kLevelMergeMaxWidth, so the plan stays a pure function of the
      // options fingerprint.
      plan_ = order::plan_hbmc<T>(lower, opt.planner,
                                  static_cast<index_t>(merge_width_), nullptr,
                                  pool_.get());
      break;
  }

  build_blocks(lower, std::move(counts), tuned_ ? &tp : nullptr);

  // Wave analysis for the multithreaded executor; the empty-square list lets
  // independent triangles (block-diagonal structure) share a wave. Computed
  // at every thread count so capture_artifact always has the waves — a plan
  // captured at threads = 1 must replay bitwise at threads > 1.
  {
    std::vector<offset_t> square_nnz(squares_.size());
    for (std::size_t q = 0; q < squares_.size(); ++q)
      square_nnz[q] = squares_[q].info.nnz;
    waves_ = compute_step_waves(plan_, square_nnz);
  }

  ws_pool_ = std::make_unique<WorkspacePool<SolveWorkspace>>(
      typename WorkspacePool<SolveWorkspace>::Options{
          opt_.session.max_workspaces, opt_.session.block_when_exhausted});

  // Deterministic fault hook: a stalled row makes the sync-free threaded
  // spin-wait unfinishable, exercising the bounded-spin timeout (the serial
  // and batched paths have no ready flags).
  if (opt_.fault.stuck_spin && opt_.fault.tri_block >= 0 &&
      opt_.fault.tri_block < static_cast<index_t>(tri_.size())) {
    TriBlock& blk = tri_[static_cast<std::size_t>(opt_.fault.tri_block)];
    if (blk.syncfree != nullptr) blk.syncfree->stall_row_for_testing(0);
  }
}

template <class T>
void BlockSolver<T>::exec_tri(const TriBlock& blk, const T* b, T* x,
                              ThreadPool* pool,
                              const ExecControl* ctl) const {
  switch (blk.info.kind) {
    case TriKernelKind::kCompletelyParallel:
      blk.diag->solve(b, x, pool, ctl);
      return;
    case TriKernelKind::kSyncFree:
      blk.syncfree->solve(b, x, pool, ctl);
      return;
    case TriKernelKind::kLevelSet:
      blk.levelset->solve(b, x, pool, ctl);
      return;
    case TriKernelKind::kCusparseLike:
      blk.cusparse->solve(b, x, ctl);  // host path intentionally serial
      return;
  }
  BLOCKTRI_CHECK_MSG(false, "unknown triangular kernel kind");
}

template <class T>
model::TriView BlockSolver<T>::tri_view(const TriBlock& blk) {
  switch (blk.info.kind) {
    case TriKernelKind::kCompletelyParallel:
      return model::tri_view(*blk.diag);
    case TriKernelKind::kSyncFree:
      return model::tri_view(*blk.syncfree);
    case TriKernelKind::kLevelSet:
      return model::tri_view(*blk.levelset);
    case TriKernelKind::kCusparseLike:
      return model::tri_view(*blk.cusparse);
  }
  BLOCKTRI_CHECK_MSG(false, "unknown triangular kernel kind");
  return {};
}

template <class T>
const Csr<T>& BlockSolver<T>::tri_rows(const TriBlock& blk,
                                       Csr<T>& built) const {
  switch (blk.info.kind) {
    case TriKernelKind::kCompletelyParallel: {
      const std::vector<T>& d = blk.diag->diag();
      const auto n = static_cast<index_t>(d.size());
      built.nrows = built.ncols = n;
      built.row_ptr.resize(static_cast<std::size_t>(n) + 1);
      built.col_idx.resize(static_cast<std::size_t>(n));
      for (index_t i = 0; i <= n; ++i)
        built.row_ptr[static_cast<std::size_t>(i)] = i;
      for (index_t i = 0; i < n; ++i)
        built.col_idx[static_cast<std::size_t>(i)] = i;
      built.val = d;
      return built;
    }
    case TriKernelKind::kLevelSet:
      return blk.levelset->matrix();
    case TriKernelKind::kSyncFree:
      return blk.syncfree->matrix();
    case TriKernelKind::kCusparseLike:
      return blk.cusparse->matrix();
  }
  BLOCKTRI_CHECK_MSG(false, "unknown triangular kernel kind");
  return built;
}

template <class T>
void BlockSolver<T>::exec_square(const SquareBlock& blk, const T* x, T* y,
                                 ThreadPool* pool) const {
  // The kinds differ in how the paper's GPU kernels map rows to threads; on
  // the host every kind runs the one listed-row body.
  spmv_update(blk.rows, x, y, pool);
}

template <class T>
void BlockSolver<T>::exec_step(const ExecStep& step, T* bw, T* xw,
                               ThreadPool* pool,
                               const ExecControl* ctl) const {
  if (step.kind == ExecStep::Kind::kTri) {
    const TriBlock& blk = tri_[static_cast<std::size_t>(step.index)];
    exec_tri(blk, bw + blk.info.r0, xw + blk.info.r0, pool, ctl);
  } else {
    const SquareBlock& blk = squares_[static_cast<std::size_t>(step.index)];
    if (blk.info.nnz == 0) return;  // skipped, like the wave executor
    exec_square(blk, xw + blk.info.ref.c0, bw + blk.info.ref.r0, pool);
  }
}

template <class T>
void BlockSolver<T>::exec_tri_many(const TriBlock& blk, const T* b, T* x,
                                   index_t k, ThreadPool* pool,
                                   const ExecControl* ctl, index_t ld) const {
  switch (blk.info.kind) {
    case TriKernelKind::kCompletelyParallel:
      blk.diag->solve_many(b, x, k, ld, pool, ctl);
      return;
    case TriKernelKind::kLevelSet:
      blk.levelset->solve_many(b, x, k, ld, pool, ctl);
      return;
    case TriKernelKind::kSyncFree:
      blk.syncfree->solve_many(b, x, k, ld, pool, ctl);
      return;
    case TriKernelKind::kCusparseLike:
      blk.cusparse->solve_many(b, x, k, ld, ctl);
      return;
  }
  BLOCKTRI_CHECK_MSG(false, "unknown triangular kernel kind");
}

template <class T>
void BlockSolver<T>::exec_square_many(const SquareBlock& blk, const T* x,
                                      T* y, index_t k, ThreadPool* pool,
                                      index_t ld) const {
  // Every kind runs the one listed-row body, as in exec_square.
  spmv_update_many(blk.rows, x, y, k, ld, ld, pool);
}

template <class T>
void BlockSolver<T>::exec_step_many(const ExecStep& step, T* bw, T* xw,
                                    index_t c0, index_t c1, ThreadPool* pool,
                                    const ExecControl* ctl,
                                    index_t ld) const {
  const index_t k = c1 - c0;
  if (k <= 0) return;
  // The sub-panel [c0, c1) is base + c0 with the same row stride; a block's
  // rows start r0·ld further in.
  const auto at = [&](T* base, index_t r) {
    return base + static_cast<std::size_t>(r) * static_cast<std::size_t>(ld) +
           static_cast<std::size_t>(c0);
  };
  if (step.kind == ExecStep::Kind::kTri) {
    const TriBlock& blk = tri_[static_cast<std::size_t>(step.index)];
    exec_tri_many(blk, at(bw, blk.info.r0), at(xw, blk.info.r0), k, pool, ctl,
                  ld);
  } else {
    const SquareBlock& blk = squares_[static_cast<std::size_t>(step.index)];
    if (blk.info.nnz == 0) return;  // skipped, like the wave executor
    exec_square_many(blk, at(xw, blk.info.ref.c0), at(bw, blk.info.ref.r0), k,
                     pool, ld);
  }
}

template <class T>
std::vector<T> BlockSolver<T>::solve(const std::vector<T>& b) const {
  BLOCKTRI_CHECK(b.size() == static_cast<std::size_t>(plan_.n));
  std::vector<T> x(b.size());
  solve(b.data(), x.data());
  return x;
}

template <class T>
auto BlockSolver<T>::acquire_workspace(const ExecControl* ctl) const ->
    typename WorkspacePool<SolveWorkspace>::Lease {
  // Every buffer grows on first use and never shrinks.
  const auto init = [](SolveWorkspace&) {};
  if (ctl == nullptr || !ctl->armed() || !ws_pool_->blocking())
    return ws_pool_->acquire(init);
  // Armed controls race the blocking acquisition: a waiter parked on the
  // exhausted pool wakes with the caller's kCancelled / kDeadlineExceeded
  // instead of sleeping until a workspace frees.
  StatusCode denial = StatusCode::kPoolExhausted;
  auto lease = ws_pool_->acquire(init, ctl->deadline(), ctl->cancel(),
                                 &denial);
  if (!lease && denial != StatusCode::kPoolExhausted) ctl->trip(denial);
  return lease;
}

template <class T>
Status BlockSolver<T>::pool_exhausted_status() const {
  return Status(StatusCode::kPoolExhausted,
                "all " + std::to_string(ws_pool_->capacity()) +
                    " solve workspaces are leased and "
                    "Options::session.block_when_exhausted is false");
}

template <class T>
void BlockSolver<T>::solve(const T* b, T* x) const {
  // The legacy entry point cannot report: session faults (pool exhaustion in
  // failing mode, strict-reentrancy violations, spin timeouts) surface as
  // thrown blocktri::Error. Default controls are unarmed, so a healthy solve
  // behaves exactly as before.
  throw_if_error(solve(b, x, SolveControls{}, nullptr));
}

template <class T>
Status BlockSolver<T>::solve(const T* b, T* x, const SolveControls& controls,
                             SolveReport* rep) const {
  if (Status st = whole_matrix(); !st.ok()) return st;
  const int prev = in_flight_.fetch_add(1, std::memory_order_relaxed);
  InFlightGuard in_flight_guard{&in_flight_};
  if (prev > 0 && opt_.session.strict_reentrancy)
    return Status(StatusCode::kReentrantSolve,
                  "another solve is in flight on this solver and "
                  "Options::session.strict_reentrancy is set");
  const ExecControl ctl(controls);
  SolveReport local_rep;
  SolveReport* r = rep != nullptr ? rep : &local_rep;
  r->steps_total = static_cast<index_t>(plan_.steps.size());
  r->steps_completed = 0;
  if (!ctl.check()) return ctl.to_status("before the solve started");

  auto lease = acquire_workspace(&ctl);
  if (!lease)
    return ctl.tripped() ? ctl.to_status("while waiting for a solve workspace")
                         : pool_exhausted_status();
  SolveWorkspace& ws = *lease;
  if (opt_.fault.hold_lease_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.fault.hold_lease_ms));

  const std::size_t n = static_cast<std::size_t>(plan_.n);
  // resize() never shrinks capacity, so after the first solve of each shape
  // these are no-ops and the whole path is allocation free.
  ws.bw.resize(n);
  ws.xw.resize(n);
  T* bw = ws.bw.data();
  T* xw = ws.xw.data();
  scatter_permuted(b, plan_.new_of_old, bw);
  // No zero fill of xw: the triangular blocks tile the diagonal, so every
  // entry is written before anything reads it.

  // Pool arbitration: the try_lock winner drives the wave executor; every
  // other concurrent caller (and any caller at threads = 1) runs serial —
  // the fork-join pool is not reentrant and must not be shared.
  std::unique_lock<std::mutex> pool_lk(exec_mu_, std::defer_lock);
  ThreadPool* epool =
      pool_ != nullptr && pool_lk.try_lock() ? pool_.get() : nullptr;

  if (epool == nullptr) {
    for (const ExecStep& step : plan_.steps) {
      if (!ctl.check()) break;
      exec_step(step, bw, xw, nullptr, &ctl);
      if (ctl.tripped()) break;  // e.g. a sync-free spin timeout mid-step
      ++r->steps_completed;
    }
  } else {
    // Threaded executor: a single-step wave parallelises inside the kernel;
    // a multi-step wave runs its (independent) steps concurrently with
    // serial kernels inside.
    for (const std::vector<ExecStep>& wave : waves_) {
      if (!ctl.check()) break;
      if (wave.size() == 1) {
        exec_step(wave[0], bw, xw, epool, &ctl);
      } else {
        epool->run(static_cast<int>(wave.size()), [&](int s) {
          exec_step(wave[static_cast<std::size_t>(s)], bw, xw, nullptr, &ctl);
        });
      }
      if (ctl.tripped()) break;
      r->steps_completed += static_cast<index_t>(wave.size());
    }
  }
  // Partial progress is gathered back even on a trip — diagnostic only.
  gather_permuted(xw, plan_.new_of_old, x);
  if (ctl.tripped())
    return ctl.to_status("after " + std::to_string(r->steps_completed) +
                         " of " + std::to_string(r->steps_total) +
                         " plan steps");
  return Status::Ok();
}

template <class T>
std::vector<T> BlockSolver<T>::solve_many(const std::vector<T>& B,
                                          index_t k) const {
  BLOCKTRI_CHECK_MSG(k >= 0, "solve_many requires k >= 0");
  BLOCKTRI_CHECK_MSG(
      B.size() == static_cast<std::size_t>(plan_.n) *
                      static_cast<std::size_t>(k),
      "solve_many panel must hold n * k entries, column-major");
  if (k == 0) return {};
  std::vector<T> X(B.size());
  solve_many(B.data(), X.data(), k);
  return X;
}

template <class T>
void BlockSolver<T>::solve_many(const T* B, T* X, index_t k) const {
  // Same wrapper contract as the raw solve() above.
  throw_if_error(solve_many(B, X, k, SolveControls{}, nullptr));
}

template <class T>
Status BlockSolver<T>::solve_many(const T* B, T* X, index_t k,
                                  const SolveControls& controls,
                                  SolveReport* rep) const {
  return solve_many_impl(B, nullptr, X, nullptr, k, controls, rep);
}

template <class T>
Status BlockSolver<T>::solve_many(const T* const* Bs, T* const* Xs, index_t k,
                                  const SolveControls& controls,
                                  SolveReport* rep) const {
  return solve_many_impl(nullptr, Bs, nullptr, Xs, k, controls, rep);
}

template <class T>
Status BlockSolver<T>::solve_many_impl(const T* B, const T* const* Bs, T* X,
                                       T* const* Xs, index_t k,
                                       const SolveControls& controls,
                                       SolveReport* rep) const {
  if (Status st = whole_matrix(); !st.ok()) return st;
  if (k <= 0) return Status::Ok();
  const int prev = in_flight_.fetch_add(1, std::memory_order_relaxed);
  InFlightGuard in_flight_guard{&in_flight_};
  if (prev > 0 && opt_.session.strict_reentrancy)
    return Status(StatusCode::kReentrantSolve,
                  "another solve is in flight on this solver and "
                  "Options::session.strict_reentrancy is set");
  const ExecControl ctl(controls);
  SolveReport local_rep;
  SolveReport* r = rep != nullptr ? rep : &local_rep;
  r->steps_total = static_cast<index_t>(plan_.steps.size());
  r->steps_completed = 0;
  if (!ctl.check()) return ctl.to_status("before the solve started");

  auto lease = acquire_workspace(&ctl);
  if (!lease)
    return ctl.tripped() ? ctl.to_status("while waiting for a solve workspace")
                         : pool_exhausted_status();
  SolveWorkspace& ws = *lease;
  if (opt_.fault.hold_lease_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.fault.hold_lease_ms));

  const std::size_t total =
      static_cast<std::size_t>(plan_.n) * static_cast<std::size_t>(k);
  // The workspace panel is row-interleaved (element (i, c) at i·k + c): every
  // row visit in the batched kernels then reads and writes all k panel
  // entries of a nonzero from one or two cache lines instead of one line per
  // column, which is where the per-RHS amortisation beyond structure
  // streaming comes from. The caller-facing layout stays column-major; the
  // fused entry permutation transposes on the way in.
  T* bw = aligned_panel(ws.bw, total);
  T* xw = aligned_panel(ws.xw, total);
  scatter_panel(B, Bs, plan_.new_of_old, k, bw);

  // Pool arbitration: same contract as the single-RHS path above.
  std::unique_lock<std::mutex> pool_lk(exec_mu_, std::defer_lock);
  ThreadPool* epool =
      pool_ != nullptr && pool_lk.try_lock() ? pool_.get() : nullptr;

  if (epool == nullptr) {
    for (const ExecStep& step : plan_.steps) {
      if (!ctl.check()) break;
      exec_step_many(step, bw, xw, 0, k, nullptr, &ctl, k);
      if (ctl.tripped()) break;
      ++r->steps_completed;
    }
  } else {
    // Threaded executor over steps × column chunks. A wave whose steps alone
    // can occupy the pool runs one task per step (each batched kernel serial
    // inside — the fork-join pool is not reentrant); a narrow wave
    // additionally splits the panel columns so idle threads get work. A
    // single-task wave instead hands the pool to the batched kernel itself.
    // All batched kernels are deterministic, so any shape gives the
    // bitwise-identical panel. Chunks are whole cache lines of a row: the
    // kernels read the x rows other chunks write, and two chunks sharing a
    // line would trade it on every row.
    constexpr index_t kLine = 64 / sizeof(T);  // panel columns per line
    const index_t lines = (k + kLine - 1) / kLine;
    for (const std::vector<ExecStep>& wave : waves_) {
      if (!ctl.check()) break;
      const int nsteps = static_cast<int>(wave.size());
      const int nchunks =
          (lines > 1 && nsteps < threads_)
              ? static_cast<int>(std::min<index_t>(
                    lines,
                    static_cast<index_t>((threads_ + nsteps - 1) / nsteps)))
              : 1;
      if (nsteps * nchunks == 1) {
        exec_step_many(wave[0], bw, xw, 0, k, epool, &ctl, k);
      } else {
        epool->run(nsteps * nchunks, [&](int t) {
          const int s = t / nchunks;
          const int ch = t % nchunks;
          const index_t c0 = std::min<index_t>(
              k, kLine * static_cast<index_t>(
                             static_cast<std::int64_t>(lines) * ch / nchunks));
          const index_t c1 = std::min<index_t>(
              k, kLine * static_cast<index_t>(
                             static_cast<std::int64_t>(lines) * (ch + 1) /
                             nchunks));
          exec_step_many(wave[static_cast<std::size_t>(s)], bw, xw, c0, c1,
                         nullptr, &ctl, k);
        });
      }
      if (ctl.tripped()) break;
      r->steps_completed += static_cast<index_t>(wave.size());
    }
  }
  // Fused exit permutation, scattering back to the caller's columns.
  gather_panel(xw, plan_.new_of_old, k, X, Xs);
  if (ctl.tripped())
    return ctl.to_status("after " + std::to_string(r->steps_completed) +
                         " of " + std::to_string(r->steps_total) +
                         " plan steps");
  return Status::Ok();
}

template <class T>
std::vector<T> BlockSolver<T>::solve_simulated(
    const std::vector<T>& b, const sim::GpuSpec& gpu, sim::CacheModel* cache,
    sim::SolveReport* report, BlockSolveBreakdown* breakdown,
    bool fp64) const {
  throw_if_error(whole_matrix());
  BLOCKTRI_CHECK(b.size() == static_cast<std::size_t>(plan_.n));
  BLOCKTRI_CHECK(report != nullptr);
  std::vector<T> bw = permute_vector(b, plan_.new_of_old);
  std::vector<T> xw(static_cast<std::size_t>(plan_.n));
  for (const ExecStep& step : plan_.steps)
    exec_step(step, bw.data(), xw.data(), nullptr, nullptr);

  // The model reads each triangle's held structure and each square as the
  // paper stores its kind.
  std::vector<model::SquareView> squares;
  squares.reserve(squares_.size());
  for (const SquareBlock& blk : squares_)
    squares.push_back(model::square_view(blk.info.kind, blk.rows));
  std::vector<model::Step> steps(plan_.steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const ExecStep& step = plan_.steps[s];
    const auto idx = static_cast<std::size_t>(step.index);
    if (step.kind == ExecStep::Kind::kTri) {
      steps[s].r0 = tri_[idx].info.r0;
      steps[s].tri = tri_view(tri_[idx]);
      steps[s].tri_kind = tri_[idx].info.kind;
    } else {
      steps[s].r0 = squares_[idx].info.ref.r0;
      steps[s].c0 = squares_[idx].info.ref.c0;
      steps[s].square = &squares[idx];
      steps[s].square_kind = squares_[idx].info.kind;
    }
  }
  model::replay(steps, plan_.n, gpu, cache, fp64, static_cast<int>(sizeof(T)),
                report, breakdown);
  return unpermute_vector(xw, plan_.new_of_old);
}

template <class T>
Status BlockSolver<T>::create(const Csr<T>& lower, const Options& opt,
                              std::unique_ptr<BlockSolver<T>>* out,
                              PlanCache<T>* cache) {
  BLOCKTRI_CHECK(out != nullptr);
  std::uint64_t structure = 0;
  if (Status st = check_lower_triangular(lower, &structure); !st.ok())
    return st;
  // The cold build, its invariant throws (e.g. a planner layout the build
  // walk rejects) returned as the Status this factory promises.
  const auto build_cold = [&]() -> Status {
    try {
      out->reset(new BlockSolver<T>(lower, opt, structure));
    } catch (const Error& e) {
      return e.status();
    }
    return Status::Ok();
  };
  if (cache != nullptr) {
    const PlanCacheKey key{structure, options_fingerprint(opt)};
    bool hit_failed = false;
    bool trusted = false;
    if (std::shared_ptr<const PlanArtifact<T>> art =
            cache->lookup(key, &trusted)) {
      // A hit's artifact was captured from a pattern with this very hash
      // (the key), so the values go in without re-checking or re-hashing.
      // A trusted entry (captured here, or validated by load_artifact) is
      // not validated again; a caller-inserted one is, once.
      Status st = trusted ? Status::Ok() : validate_artifact(*art);
      if (st.ok() && !trusted) cache->mark_trusted(key, art.get());
      std::unique_ptr<BlockSolver<T>> warm;
      if (st.ok()) st = warm_start(*art, lower, opt, &warm);
      if (st.ok()) {
        cache->report_hit_success(key);
        *out = std::move(warm);
        return Status::Ok();
      }
      // A mismatched entry (e.g. a hash collision or a shard slice) falls
      // through to the cold build — the cache is an accelerator, never a
      // correctness gate. Repeated failures on the same key tombstone it
      // (quarantine), so a poisoned entry stops being re-admitted every miss.
      hit_failed = true;
      cache->report_hit_failure(key);
    }
    if (Status st = build_cold(); !st.ok()) return st;
    // When the cached entry just failed the warm path, overwrite it: leaving
    // it in place would make every future create() for this key pay the
    // failed warm attempt plus a cold build forever. (A quarantined key
    // rejects the insert until its tombstone expires.) A capture from a live
    // solver is trusted: its hits skip validate_artifact.
    cache->insert_entry(
        std::make_shared<PlanArtifact<T>>((*out)->capture_artifact()),
        /*overwrite=*/hit_failed, /*trusted=*/true);
    return Status::Ok();
  }
  return build_cold();
}

template <class T>
std::uint64_t BlockSolver<T>::options_fingerprint(const Options& opt) {
  const auto f64 = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  std::uint64_t h = 0x62706c616e763101ULL;  // "bplanv1" | fingerprint version
  h = hash_combine(h, static_cast<std::uint64_t>(opt.scheme));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.planner.stop_rows));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.planner.max_depth));
  h = hash_combine(h, opt.planner.reorder ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(opt.planner.nseg));
  h = hash_combine(h, opt.adaptive ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(opt.forced_tri));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.forced_square));
  h = hash_combine(h, f64(opt.thresholds.tri_nnz_row_levelset));
  h = hash_combine(h, static_cast<std::uint64_t>(
                          opt.thresholds.tri_nlevels_levelset));
  h = hash_combine(h, static_cast<std::uint64_t>(
                          opt.thresholds.tri_nlevels_unit_row));
  h = hash_combine(h, static_cast<std::uint64_t>(
                          opt.thresholds.tri_nlevels_cusparse));
  h = hash_combine(h, f64(opt.thresholds.sq_nnz_row_scalar));
  h = hash_combine(h, f64(opt.thresholds.sq_empty_scalar));
  h = hash_combine(h, f64(opt.thresholds.sq_empty_vector));
  // Runtime-only fields (threads, the verify knobs, fault injection) do not
  // affect the plan. Tuning fields join only when enabled, so an untuned
  // fingerprint does not depend on the tuner's settings.
  if (opt.tune.enabled) {
    h = hash_combine(h, 0x74756e65u);  // "tune"
    h = hash_combine(h, tune::device_fingerprint(opt.tune.gpu));
    h = hash_combine(h, static_cast<std::uint64_t>(opt.tune.sa_iterations));
    h = hash_combine(h, opt.tune.seed);
    // The search may swap the whole scheme for kHbmc, so its gate and the
    // HBMC planner knobs shape tuned plans even under kRecursive.
    h = hash_combine(h, opt.tune.consider_hbmc ? 1 : 0);
    h = hash_combine(h,
                     static_cast<std::uint64_t>(opt.planner.hbmc_block_rows));
    h = hash_combine(h,
                     static_cast<std::uint64_t>(opt.planner.hbmc_max_colors));
    h = hash_combine(h, f64(opt.thresholds.hbmc_depth_per_color));
  }
  // HBMC-only fields join under the same rule: every pre-HBMC fingerprint
  // is unchanged.
  if (opt.scheme == BlockScheme::kHbmc) {
    h = hash_combine(h, 0x68626d63u);  // "hbmc"
    h = hash_combine(h,
                     static_cast<std::uint64_t>(opt.planner.hbmc_block_rows));
    h = hash_combine(h,
                     static_cast<std::uint64_t>(opt.planner.hbmc_max_colors));
  }
  return h;
}

template <class T>
PlanArtifact<T> BlockSolver<T>::capture_artifact() const {
  throw_if_error(whole_matrix());
  PlanArtifact<T> art;
  art.structure = structure_hash_;
  art.options = options_fingerprint(opt_);
  art.plan = plan_;
  art.waves = waves_;
  art.nnz = nnz_;
  art.norm_inf = norm_inf_;
  art.value_map = value_map_;
  art.build_ops = build_ops_;
  art.build_bytes = build_bytes_;
  art.tuned = tuned_;
  art.merge_width = merge_width_;
  art.tune_fell_back = tune_stats_.fell_back;
  art.tune_device = tuned_ ? tune::device_fingerprint(opt_.tune.gpu) : 0;
  art.oracle_default_ns = tune_stats_.oracle_default_ns;
  art.oracle_tuned_ns = tune_stats_.oracle_tuned_ns;

  art.tri.reserve(tri_.size());
  for (const TriBlock& blk : tri_) {
    TriBlockArtifact<T> t;
    t.r0 = blk.info.r0;
    t.r1 = blk.info.r1;
    t.kind = blk.info.kind;
    t.nlevels = blk.info.nlevels;
    t.nnz = blk.info.nnz;
    switch (blk.info.kind) {
      case TriKernelKind::kCompletelyParallel:
        t.diag = blk.diag->diag();
        break;
      case TriKernelKind::kLevelSet:
        t.kernel_csr = blk.levelset->matrix();
        t.levels = blk.levelset->levels();
        break;
      case TriKernelKind::kSyncFree:
        t.kernel_csr = blk.syncfree->matrix();
        break;
      case TriKernelKind::kCusparseLike:
        t.kernel_csr = blk.cusparse->matrix();
        t.levels = blk.cusparse->levels();
        t.kernel_first_level = blk.cusparse->kernel_first_levels();
        break;
    }
    art.tri.push_back(std::move(t));
  }

  art.squares.reserve(squares_.size());
  for (const SquareBlock& blk : squares_) {
    SquareBlockArtifact<T> q;
    q.ref = blk.info.ref;
    q.kind = blk.info.kind;
    q.nnz = blk.info.nnz;
    q.empty_ratio = blk.info.empty_ratio;
    q.rows = blk.rows;
    art.squares.push_back(std::move(q));
  }
  return art;
}

template <class T>
Status BlockSolver<T>::save_artifact(const std::string& path) const {
  if (Status st = whole_matrix(); !st.ok()) return st;
  return blocktri::save_artifact(path, capture_artifact());
}

template <class T>
template <class Art>
  requires std::same_as<std::remove_cvref_t<Art>, PlanArtifact<T>>
BlockSolver<T>::BlockSolver(Art&& art, const Options& opt, bool with_values)
    : opt_(opt) {
  // An artifact given up by its owner (an rvalue) hands over its arrays;
  // a shared one is copied, its value arrays only when asked for.
  constexpr bool steal = !std::is_lvalue_reference_v<Art>;
  const auto take = [](auto& field) {
    if constexpr (steal)
      return std::move(field);
    else
      return field;
  };
  const auto adopt_block = [&](auto& m) {
    if constexpr (steal)
      return std::move(m);
    else
      return adopt(m, with_values);
  };
  structure_hash_ = art.structure;
  threads_ = resolve_threads(opt.threads);
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);

  plan_ = take(art.plan);
  waves_ = take(art.waves);
  nnz_ = art.nnz;
  norm_inf_ = art.norm_inf;  // install_values recomputes it
  value_map_ = take(art.value_map);
  build_ops_ = art.build_ops;
  build_bytes_ = art.build_bytes;
  tuned_ = art.tuned;
  merge_width_ = art.merge_width;
  tune_stats_.fell_back = art.tune_fell_back;
  tune_stats_.merge_width = art.merge_width;
  tune_stats_.oracle_default_ns = art.oracle_default_ns;
  tune_stats_.oracle_tuned_ns = art.oracle_tuned_ns;
  if (art.shard)
    slice_ = "shard slice " + std::to_string(art.shard_index) + " of " +
             std::to_string(art.shard_count) + " (rows [" +
             std::to_string(art.shard_row_begin) + ", " +
             std::to_string(art.shard_row_end) + "))";

  tri_.resize(art.tri.size());
  for (std::size_t t = 0; t < art.tri.size(); ++t) {
    auto& in = art.tri[t];
    TriBlock& out = tri_[t];
    out.info.r0 = in.r0;
    out.info.r1 = in.r1;
    out.info.kind = in.kind;
    out.info.nlevels = in.nlevels;
    out.info.nnz = in.nnz;
    if (!in.populated) {
      // Foreign leaf of a shard slice: metadata only. The shard worker's
      // local schedule never issues this block, so no kernel is built.
      tri_info_.push_back(out.info);
      continue;
    }
    switch (in.kind) {
      case TriKernelKind::kCompletelyParallel:
        // The captured pivots even without values: the solver rejects a
        // zero pivot, and install_values overwrites every one.
        out.diag = std::make_unique<DiagonalSolver<T>>(take(in.diag));
        break;
      case TriKernelKind::kLevelSet:
        out.levelset = std::make_unique<LevelSetSolver<T>>(
            adopt_block(in.kernel_csr), take(in.levels), merge_width_);
        break;
      case TriKernelKind::kSyncFree:
        out.syncfree = std::make_unique<SyncFreeSolver<T>>(
            adopt_block(in.kernel_csr), typename SyncFreeSolver<T>::Adopt{});
        break;
      case TriKernelKind::kCusparseLike:
        out.cusparse = std::make_unique<CusparseLikeSolver<T>>(
            adopt_block(in.kernel_csr), take(in.levels),
            take(in.kernel_first_level));
        break;
    }
    tri_info_.push_back(out.info);
  }

  squares_.resize(art.squares.size());
  for (std::size_t q = 0; q < art.squares.size(); ++q) {
    auto& in = art.squares[q];
    SquareBlock& out = squares_[q];
    out.info.ref = in.ref;
    out.info.kind = in.kind;
    out.info.nnz = in.nnz;
    out.info.empty_ratio = in.empty_ratio;
    out.rows = adopt_block(in.rows);
    square_info_.push_back(out.info);
  }

  ws_pool_ = std::make_unique<WorkspacePool<SolveWorkspace>>(
      typename WorkspacePool<SolveWorkspace>::Options{
          opt_.session.max_workspaces, opt_.session.block_when_exhausted});

  // Deterministic fault hook, as in the cold constructor.
  if (opt_.fault.stuck_spin && opt_.fault.tri_block >= 0 &&
      opt_.fault.tri_block < static_cast<index_t>(tri_.size())) {
    TriBlock& blk = tri_[static_cast<std::size_t>(opt_.fault.tri_block)];
    if (blk.syncfree != nullptr) blk.syncfree->stall_row_for_testing(0);
  }
}

template <class T>
Status BlockSolver<T>::create_from_artifact(
    std::shared_ptr<const PlanArtifact<T>> art, const Options& opt,
    std::unique_ptr<BlockSolver<T>>* out) {
  BLOCKTRI_CHECK(out != nullptr);
  if (art == nullptr)
    return Status(StatusCode::kInvalidArgument, "artifact is null");
  return rehydrate(*art, opt, /*validated=*/false, /*with_values=*/true, out);
}

template <class T>
template <class Art>
Status BlockSolver<T>::rehydrate(Art&& art, const Options& opt,
                                 bool validated, bool with_values,
                                 std::unique_ptr<BlockSolver<T>>* out) {
  if (options_fingerprint(opt) != art.options)
    return Status(
        StatusCode::kInvalidArgument,
        "options fingerprint differs from the one the artifact was captured "
        "under (plan-affecting fields — scheme, planner, kernel selection, "
        "thresholds — must match exactly)");
  if (!validated) {
    if (Status st = validate_artifact(art); !st.ok()) return st;
  }
  // validate_artifact should have rejected anything the sub-solver adoption
  // checks would trip over, but an invariant throw from artifact-derived
  // state must still come back as a Status — this is a Status-returning
  // entry point, and create()'s fall-back-to-cold-build contract depends on
  // seeing the failure rather than an escaping exception.
  try {
    out->reset(new BlockSolver<T>(std::forward<Art>(art), opt, with_values));
  } catch (const Error& e) {
    return e.status();
  }
  return Status::Ok();
}

template <class T>
template <class Art>
Status BlockSolver<T>::warm_start(Art&& art, const Csr<T>& lower,
                                  const Options& opt,
                                  std::unique_ptr<BlockSolver<T>>* out) {
  std::unique_ptr<BlockSolver<T>> solver;
  if (Status st = rehydrate(std::forward<Art>(art), opt, /*validated=*/true,
                            /*with_values=*/false, &solver);
      !st.ok())
    return st;
  if (Status st = solver->install_values(lower); !st.ok()) return st;
  *out = std::move(solver);
  return Status::Ok();
}

template <class T>
Status BlockSolver<T>::create_from_file(const std::string& path,
                                        const Csr<T>& lower,
                                        const Options& opt,
                                        std::unique_ptr<BlockSolver<T>>* out,
                                        PlanCache<T>* cache) {
  BLOCKTRI_CHECK(out != nullptr);
  std::uint64_t structure = 0;
  if (Status st = check_lower_triangular(lower, &structure); !st.ok())
    return st;

  // Transient I/O failures (kIoError: racing writers, flaky network mounts)
  // retry with jittered exponential backoff; permanent artifact rejections
  // (checksum, version, malformed sections) fail immediately — retrying a
  // deterministic failure only adds latency.
  auto art = std::make_shared<PlanArtifact<T>>();
  const int attempts = std::max(1, opt.session.artifact_retry_attempts);
  Rng jitter_rng(0x61727472792aULL ^
                 static_cast<std::uint64_t>(
                     std::chrono::steady_clock::now().time_since_epoch()
                         .count()));
  Status load = Status::Ok();
  for (int a = 0; a < attempts; ++a) {
    if (a > 0) {
      const double base_ms = opt.session.artifact_retry_backoff_ms *
                             static_cast<double>(1 << (a - 1));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(
              base_ms * jitter_rng.uniform(0.5, 1.5)));
    }
    load = load_artifact(path, art.get());
    if (load.ok()) {
      if (a > 0 && cache != nullptr) cache->note_retry_success();
      break;
    }
    if (load.code() != StatusCode::kIoError) return load;  // permanent
  }
  if (!load.ok()) return load;

  if (structure != art->structure)
    return Status(StatusCode::kStructureMismatch,
                  "artifact '" + path +
                      "' was captured from a matrix with a different "
                      "sparsity pattern");
  // load_artifact has already run validate_artifact on this artifact.
  // Without a cache nobody else reads it, so the solver takes its arrays.
  std::unique_ptr<BlockSolver<T>> solver;
  const Status st = cache == nullptr
                        ? warm_start(std::move(*art), lower, opt, &solver)
                        : warm_start(*art, lower, opt, &solver);
  if (!st.ok()) return st;
  // Only a fully warmed artifact is worth caching; first-writer-wins keeps
  // an existing (already proven) entry. load_artifact validated it, so the
  // entry is trusted and its hits skip validate_artifact.
  if (cache != nullptr)
    cache->insert_entry(std::move(art), /*overwrite=*/false,
                        /*trusted=*/true);
  *out = std::move(solver);
  return Status::Ok();
}

template <class T>
Status BlockSolver<T>::refresh_values(const Csr<T>& lower) {
  std::uint64_t structure = 0;
  if (Status st = check_lower_triangular(lower, &structure); !st.ok())
    return st;
  if (structure != structure_hash_)
    return Status(StatusCode::kStructureMismatch,
                  "refresh_values requires the exact sparsity pattern this "
                  "solver was analyzed for");
  return install_values(lower);
}

namespace {

/// One row of a block array the build walk appends to: the row ends where
/// its last entry lands, bounded by the array's exact length.
template <class T>
struct RowSink {
  offset_t* ptr = nullptr;
  index_t* col = nullptr;
  T* val = nullptr;
  std::size_t row = 0;
  offset_t pos = 0, end = 0;

  RowSink(offset_t* p, index_t* c, T* v, std::size_t r, offset_t len)
      : ptr(p), col(c), val(v), row(r), pos(p[r]), end(len) {}

  bool put(index_t c, T v) {
    if (pos >= end) return false;
    col[pos] = c;
    val[pos++] = v;
    return true;
  }
  void close() { ptr[row + 1] = pos; }
};

/// One CSR array set the build walk fills: its row pointers, column
/// indices and values.
template <class T>
struct Target {
  offset_t* ptr = nullptr;
  index_t* col = nullptr;
  T* val = nullptr;
  offset_t len = 0;

  static Target of(Csr<T>& m) {
    return {m.row_ptr.data(), m.col_idx.data(), m.val.data(),
            static_cast<offset_t>(m.val.size())};
  }
  RowSink<T> row(std::size_t r) const { return {ptr, col, val, r, len}; }
};

/// The window (kSquareWindowRows) of permuted row `row`.
inline index_t window_of(index_t row) { return row / kSquareWindowRows; }

/// A pass over the permuted rows window by window: for rows [s0, s1) of one
/// window, the squares covering any of them, by first column, each with its
/// run of listed rows in that window — one contiguous run, since a square
/// lists its rows by window. Successive calls move forward through the
/// rows; a square's run starts where its previous window's ended.
template <class T>
class WindowRuns {
 public:
  struct Run {
    SquareWindow::Active a;
    std::size_t lo = 0, hi = 0;  // its listed rows [lo, hi)
  };

  /// `rows[q]` holds square q's listed rows.
  WindowRuns(const std::vector<SquareBlockRef>& squares,
             std::vector<const Dcsr<T>*> rows)
      : window_(squares),
        rows_(std::move(rows)),
        joined_(rows_.size(), -1),
        next_(rows_.size(), kNone) {}

  /// Rows [s0, s1) of one window, not below the previous call's.
  const std::vector<Run>& at(index_t s0, index_t s1) {
    const index_t w = window_of(s0);
    runs_.clear();
    for (index_t row = s0; row < s1; row = window_.next_change())
      for (const SquareWindow::Active& a : window_.at(row)) {
        if (joined_[a.q] == w) continue;
        joined_[a.q] = w;
        const std::vector<index_t>& ids = rows_[a.q]->row_ids;
        const auto before = [&](index_t id) {
          return window_of(a.r0 + id) < w;
        };
        std::size_t lo = next_[a.q];
        if (lo == kNone)  // the pass meets the square first
          lo = static_cast<std::size_t>(
              std::partition_point(ids.begin(), ids.end(), before) -
              ids.begin());
        std::size_t hi = lo;
        while (hi < ids.size() && window_of(a.r0 + ids[hi]) == w) ++hi;
        next_[a.q] = hi;
        if (hi > lo) runs_.push_back({a, lo, hi});
      }
    std::sort(runs_.begin(), runs_.end(), [](const Run& x, const Run& y) {
      return x.a.c0 < y.a.c0;
    });
    return runs_;
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  SquareWindow window_;
  std::vector<const Dcsr<T>*> rows_;
  std::vector<index_t> joined_;     // per square: the window it last joined
  std::vector<std::size_t> next_;   // per square: its next listed row
  std::vector<Run> runs_;
};

/// An empty CSR of the given shape with room for exactly `nnz` entries.
template <class T>
Csr<T> sized_csr(index_t nrows, index_t ncols, offset_t nnz) {
  Csr<T> m;
  m.nrows = nrows;
  m.ncols = ncols;
  m.row_ptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  m.col_idx.resize(static_cast<std::size_t>(nnz));
  m.val.resize(static_cast<std::size_t>(nnz));
  return m;
}

}  // namespace

template <class T>
struct BlockSolver<T>::BuildState {
  std::vector<Csr<T>> tri;       // each triangle's rows, diagonal last
  std::vector<index_t> level;    // per permuted row: its level in its triangle
  std::vector<index_t> nlevels;  // per triangle
  ValueMap map;                  // where each written value came from
};

template <class T>
void BlockSolver<T>::build_blocks(const Csr<T>& lower, BlockNnz counts,
                                  const tune::TunedPlan<T>* tuned) {
  const index_t ntri = plan_.num_tri_blocks();
  const std::size_t nsq = plan_.squares.size();
  if (counts.tri.size() != static_cast<std::size_t>(ntri) ||
      counts.squares.size() != nsq)
    counts = count_block_nnz(lower, plan_);

  // Every array at its exact final length, so the walk only writes.
  BuildState b;
  b.tri.reserve(static_cast<std::size_t>(ntri));
  for (index_t t = 0; t < ntri; ++t) {
    const index_t rows = plan_.tri_bounds[static_cast<std::size_t>(t) + 1] -
                         plan_.tri_bounds[static_cast<std::size_t>(t)];
    b.tri.push_back(
        sized_csr<T>(rows, rows, counts.tri[static_cast<std::size_t>(t)]));
  }
  b.level.resize(static_cast<std::size_t>(plan_.n));
  b.nlevels.assign(static_cast<std::size_t>(ntri), 0);
  squares_.resize(nsq);
  for (std::size_t q = 0; q < nsq; ++q) {
    // Values at their exact length; the listed rows are appended, at most
    // one per row and one per value.
    const SquareBlockRef& ref = plan_.squares[q];
    const offset_t nnz = counts.squares[q];
    Dcsr<T>& rows = squares_[q].rows;
    rows.nrows = ref.r1 - ref.r0;
    rows.ncols = ref.c1 - ref.c0;
    const auto listed =
        static_cast<std::size_t>(std::min<offset_t>(rows.nrows, nnz));
    rows.row_ids.reserve(listed);
    rows.row_ptr.reserve(listed + 1);
    rows.row_ptr.push_back(0);
    rows.col_idx.resize(static_cast<std::size_t>(nnz));
    rows.val.resize(static_cast<std::size_t>(nnz));
  }
  offset_t max_row = 0;
  for (index_t i = 0; i < lower.nrows; ++i)
    max_row = std::max(max_row, lower.row_nnz(i));
  b.map = ValueMap::sized(static_cast<std::size_t>(lower.nnz()), max_row);

  throw_if_error(walk_rows(lower, &b));
  note_level_analysis();  // the walk computed every triangle's levels
  value_map_ = std::move(b.map);
  // --- Triangles: select each kernel from (rows, nnz, nlevels) and hand it
  // the rows; level-scheduled kernels adopt the walk's levels.
  const auto elem = static_cast<std::int64_t>(sizeof(index_t) + sizeof(T));
  tri_.resize(static_cast<std::size_t>(ntri));
  for (index_t t = 0; t < ntri; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    Csr<T>& rows = b.tri[ts];
    TriBlock& out = tri_[ts];
    out.info.r0 = plan_.tri_bounds[ts];
    out.info.r1 = plan_.tri_bounds[ts + 1];
    out.info.nnz = rows.nnz();
    out.info.nlevels = b.nlevels[ts];
    build_ops_ += rows.nnz() + rows.nrows;
    build_bytes_ += rows.nnz() * elem;

    TriKernelKind kind;
    if (tuned != nullptr) {
      BLOCKTRI_CHECK_MSG(tuned->tri_nlevels[ts] == out.info.nlevels,
                         "tuner and build disagree on a block's levels");
      kind = tuned->tri_kinds[ts];
    } else {
      TriangularFeatures feat;
      feat.base.nrows = feat.base.ncols = rows.nrows;
      feat.base.nnz = rows.nnz();
      if (rows.nrows > 0)
        feat.base.nnz_per_row = static_cast<double>(rows.nnz()) /
                                static_cast<double>(rows.nrows);
      feat.nlevels = out.info.nlevels;
      kind = opt_.adaptive ? select_tri_kernel(feat, opt_.thresholds)
                           : opt_.forced_tri;
    }
    // A forced kernel still degrades gracefully on a diagonal block: every
    // kernel handles it, so honour the forced choice except that the
    // diagonal fast path requires an actually-diagonal block.
    if (kind == TriKernelKind::kCompletelyParallel && out.info.nlevels > 1)
      kind = TriKernelKind::kSyncFree;
    out.info.kind = kind;

    const auto levels = [&] {
      return group_levels(
          std::vector<index_t>(b.level.begin() + out.info.r0,
                               b.level.begin() + out.info.r1),
          out.info.nlevels);
    };
    switch (kind) {
      case TriKernelKind::kCompletelyParallel:
        // One level: no strict entry, so the values are the pivots.
        out.diag = std::make_unique<DiagonalSolver<T>>(std::move(rows.val));
        break;
      case TriKernelKind::kLevelSet:
        out.levelset = std::make_unique<LevelSetSolver<T>>(
            std::move(rows), levels(), merge_width_);
        build_ops_ += out.info.nnz;  // level analysis in the sub-solver
        break;
      case TriKernelKind::kSyncFree:
        out.syncfree = std::make_unique<SyncFreeSolver<T>>(
            std::move(rows), typename SyncFreeSolver<T>::Adopt{});
        // Alg. 3's preprocessing as the Table 5 host model prices it (CSC
        // conversion + in-degrees); the host keeps the rows as they are.
        build_ops_ += 2 * out.info.nnz;
        build_bytes_ += 2 * out.info.nnz * elem;
        break;
      case TriKernelKind::kCusparseLike: {
        LevelSets ls = levels();
        std::vector<index_t> first =
            CusparseLikeSolver<T>::merge_schedule(ls);
        out.cusparse = std::make_unique<CusparseLikeSolver<T>>(
            std::move(rows), std::move(ls), std::move(first));
        build_ops_ += out.info.nnz;
        break;
      }
    }
    tri_info_.push_back(out.info);
  }

  // --- Squares: select each kernel from (rows, nnz, non-empty rows). Every
  // kind keeps the walk's listed rows.
  for (std::size_t q = 0; q < nsq; ++q) {
    SquareBlock& out = squares_[q];
    const SquareBlockRef ref = plan_.squares[q];
    const index_t rows = ref.r1 - ref.r0;
    out.info.ref = ref;
    out.info.nnz = out.rows.nnz();
    build_ops_ += out.info.nnz + rows;
    build_bytes_ += out.info.nnz * elem;
    if (out.info.nnz == 0) {
      // Empty square: a no-op both executors skip (compute_step_waves drops
      // it from the waves, exec_step returns early), so adaptive selection
      // would be pure waste. Mark it canonically as scalar-CSR so serial,
      // wave and introspection paths agree.
      out.info.kind = SpmvKernelKind::kScalarCsr;
      out.info.empty_ratio = rows > 0 ? 1.0 : 0.0;
      square_info_.push_back(out.info);
      continue;
    }
    if (tuned != nullptr) {
      out.info.empty_ratio = tuned->square_empty_ratio[q];
      out.info.kind = tuned->square_kinds[q];
    } else {
      MatrixFeatures feat;
      feat.nrows = rows;
      feat.ncols = ref.c1 - ref.c0;
      feat.nnz = out.info.nnz;
      feat.nnz_per_row =
          static_cast<double>(feat.nnz) / static_cast<double>(rows);
      feat.empty_ratio = static_cast<double>(rows - out.rows.nnz_rows()) /
                         static_cast<double>(rows);
      out.info.empty_ratio = feat.empty_ratio;
      out.info.kind = opt_.adaptive
                          ? select_square_kernel(feat, opt_.thresholds)
                          : opt_.forced_square;
    }
    // Table 5's host model prices the paper's DCSR conversion (§3.3).
    if (out.info.kind == SpmvKernelKind::kScalarDcsr ||
        out.info.kind == SpmvKernelKind::kVectorDcsr)
      build_ops_ += rows;
    square_info_.push_back(out.info);
  }
}

template <class T>
Status BlockSolver<T>::walk_rows(const Csr<T>& lower, BuildState* build) {
  const auto fail = [](const char* what) {
    return Status(StatusCode::kInternal,
                  std::string("block build: ") + what +
                      " (the plan's layout is inconsistent)");
  };
  const index_t n = plan_.n;

  // A permuting plan orders every row as permute_symmetric does; so does an
  // HBMC plan, whose planner defines its blocks on its permuted matrix even
  // when no row moved. An identity plan keeps a sorted row as given.
  const std::vector<index_t>& new_of_old = plan_.new_of_old;
  std::vector<index_t> old_of_new(static_cast<std::size_t>(n));
  bool identity = true;
  for (index_t i = 0; i < n; ++i) {
    const index_t ni = new_of_old[static_cast<std::size_t>(i)];
    old_of_new[static_cast<std::size_t>(ni)] = i;
    identity = identity && ni == i;
  }
  const bool sort_rows = !identity || plan_.scheme == BlockScheme::kHbmc;

  SquareWindow window(plan_.squares);
  Target<T> tri;  // the current triangle's rows

  // A window's square runs wait in `runs`, their entries in `pend_col` and
  // `pend_val`, until the window ends. Then every square appends its runs
  // of the window by (length, row id): a stable counting sort by length (a
  // stable sort when the lengths are too spread for buckets) keeps each
  // length's runs in row order. The window's entries are still in cache
  // when they are placed.
  struct Run {
    std::size_t at;  // its first entry in pend_col / pend_val
    index_t q;       // the square
    index_t id;      // the row within the square
    index_t len;
  };
  std::vector<Run> runs;
  std::vector<std::uint32_t> order;  // the window's runs by (length, row)
  std::vector<index_t> pend_col;     // columns within the square
  std::vector<T> pend_val;
  std::vector<std::uint32_t> bucket;
  index_t longest = 0;  // the window's longest run
  const auto place_window = [&]() {
    order.resize(runs.size());
    if (static_cast<std::size_t>(longest) <= 4 * runs.size() + 64) {
      bucket.assign(static_cast<std::size_t>(longest) + 2, 0);
      for (const Run& r : runs) ++bucket[static_cast<std::size_t>(r.len) + 1];
      for (std::size_t i = 1; i < bucket.size(); ++i)
        bucket[i] += bucket[i - 1];
      for (std::size_t i = 0; i < runs.size(); ++i)
        order[bucket[static_cast<std::size_t>(runs[i].len)]++] =
            static_cast<std::uint32_t>(i);
    } else {
      std::iota(order.begin(), order.end(), std::uint32_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t x, std::uint32_t y) {
                         return runs[x].len < runs[y].len;
                       });
    }
    for (const std::uint32_t i : order) {
      const Run& r = runs[i];
      Dcsr<T>& d = squares_[static_cast<std::size_t>(r.q)].rows;
      const offset_t pos = d.row_ptr.back();
      if (r.len > d.nnz() - pos) return false;
      index_t* col = d.col_idx.data() + pos;
      T* val = d.val.data() + pos;
      for (index_t e = 0; e < r.len; ++e) {
        col[e] = pend_col[r.at + static_cast<std::size_t>(e)];
        val[e] = pend_val[r.at + static_cast<std::size_t>(e)];
      }
      d.row_ids.push_back(r.id);
      d.row_ptr.push_back(pos + r.len);
    }
    runs.clear();
    pend_col.clear();
    pend_val.clear();
    longest = 0;
    return true;
  };

  const auto by_col = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  // (permuted column, position in the caller's row): the values are read
  // through the positions, which the value map records.
  std::vector<std::pair<index_t, index_t>> row;
  std::size_t mapped = 0;  // value-map entries written
  double norm = 0.0;
  std::size_t t = 0;
  for (index_t ni = 0; ni < n; ++ni) {
    if (ni % kSquareWindowRows == 0 && !place_window())
      return fail("a square block");
    // The triangle holding this row; entering one fetches its arrays.
    while (plan_.tri_bounds[t + 1] <= ni) ++t;
    const index_t r0 = plan_.tri_bounds[t];
    const auto li = static_cast<std::size_t>(ni - r0);
    if (ni == r0) tri = Target<T>::of(build->tri[t]);

    // Gather the input row through the permutation and order it: the same
    // comparison on the same sequence as permute_symmetric, so a column
    // held twice keeps that order.
    const auto oi =
        static_cast<std::size_t>(old_of_new[static_cast<std::size_t>(ni)]);
    const offset_t klo = lower.row_ptr[oi];
    const offset_t khi = lower.row_ptr[oi + 1];
    const T* vals = lower.val.data() + klo;
    row.resize(static_cast<std::size_t>(khi - klo));
    for (offset_t k = klo; k < khi; ++k)
      row[static_cast<std::size_t>(k - klo)] = {
          new_of_old[static_cast<std::size_t>(
              lower.col_idx[static_cast<std::size_t>(k)])],
          static_cast<index_t>(k - klo)};
    if (sort_rows || !std::is_sorted(row.begin(), row.end(), by_col))
      std::sort(row.begin(), row.end(), by_col);
    // Sorted, the row holds its square entries (left of the triangle) first
    // and its triangle entries after them, ending in the diagonal: the value
    // map's order.
    if (row.empty() || row.back().first != ni)
      return fail("a row that does not end in its diagonal");
    const std::size_t m = row.size();
    const auto p0 = static_cast<std::size_t>(
        std::lower_bound(row.begin(), row.end(), std::make_pair(r0, 0),
                         by_col) -
        row.begin());

    // ‖L‖∞ sums the whole row, in the order the blocks store it.
    double row_sum = 0.0;
    for (const auto& e : row) {
      row_sum += std::fabs(static_cast<double>(vals[e.second]));
      build->map.set(mapped++, static_cast<std::uint32_t>(e.second));
    }
    norm = std::max(norm, row_sum);

    // Square entries: each covering square takes one contiguous run, which
    // waits for the window's end; a square lists only the rows it holds.
    std::size_t p = 0;
    for (const SquareWindow::Active& a : window.at(ni)) {
      if (p < p0 && row[p].first < a.c0) break;  // a column no square holds
      const std::size_t run = p;
      while (p < p0 && row[p].first < a.c1) ++p;
      if (p == run) continue;
      const auto len = static_cast<index_t>(p - run);
      runs.push_back({pend_col.size(), static_cast<index_t>(a.q), ni - a.r0,
                      len});
      longest = std::max(longest, len);
      for (std::size_t e = run; e < p; ++e) {
        pend_col.push_back(row[e].first - a.c0);
        pend_val.push_back(vals[row[e].second]);
      }
    }
    if (p < p0) return fail("an entry no square covers");

    // Triangle entries: the block's rows, each levelled as it is written.
    RowSink<T> sink = tri.row(li);
    index_t level = 0;
    for (std::size_t e = p0; e < m; ++e) {
      if (e + 1 < m)
        level = std::max(
            level, build->level[static_cast<std::size_t>(row[e].first)] + 1);
      if (!sink.put(row[e].first - r0, vals[row[e].second]))
        return fail("a triangular block");
    }
    sink.close();
    build->level[static_cast<std::size_t>(ni)] = level;
    build->nlevels[t] = std::max(build->nlevels[t], level + 1);
  }

  if (!place_window()) return fail("a square block");

  // Every array was sized from a count; each must end exactly full.
  for (const Csr<T>& m : build->tri)
    if (m.row_ptr.back() != m.nnz()) return fail("a triangular block");
  for (const SquareBlock& blk : squares_)
    if (blk.rows.row_ptr.back() != blk.rows.nnz())
      return fail("a square block");
  norm_inf_ = norm;
  return Status::Ok();
}

template <class T>
Status BlockSolver<T>::whole_matrix() const {
  if (slice_.empty()) return Status::Ok();
  return Status(StatusCode::kInvalidArgument,
                "plan is " + slice_ +
                    ": it holds only its shard's blocks and serves only a "
                    "shard worker's steps, not the whole matrix");
}

template <class T>
Status BlockSolver<T>::install_values(const Csr<T>& lower) {
  if (Status st = whole_matrix(); !st.ok()) return st;
  if (lower.nrows != plan_.n || lower.nnz() != nnz_ ||
      value_map_.size() != static_cast<std::size_t>(nnz_))
    return Status(StatusCode::kStructureMismatch,
                  "value install: the matrix size disagrees with the plan");
  switch (value_map_.width) {
    case 1: return install_through<std::uint8_t>(lower);
    case 2: return install_through<std::uint16_t>(lower);
    case 4: return install_through<std::uint32_t>(lower);
    default: break;
  }
  return Status(StatusCode::kStructureMismatch,
                "value install: the value map has no valid entry width");
}

template <class T>
template <class W>
Status BlockSolver<T>::install_through(const Csr<T>& lower) {
  const auto fail = [](const char* what) {
    return Status(StatusCode::kStructureMismatch,
                  std::string("value install: ") + what +
                      " disagrees with the sparsity pattern of the values");
  };
  const index_t n = plan_.n;
  const std::vector<index_t>& new_of_old = plan_.new_of_old;
  std::vector<index_t> old_of_new(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    old_of_new[static_cast<std::size_t>(
        new_of_old[static_cast<std::size_t>(i)])] = i;

  // Every held value array, as the pass reads it. Each slot is visited at
  // most once and each row must take exactly its caller row's entries, so
  // when the arrays hold nnz values every one of them is written.
  offset_t held = 0;
  std::vector<const Dcsr<T>*> square_rows(squares_.size());
  for (std::size_t q = 0; q < squares_.size(); ++q) {
    square_rows[q] = &squares_[q].rows;
    held += squares_[q].rows.nnz();
  }
  // A triangle's rows come from its kernel, or are a diagonal block's
  // pivots alone.
  const auto tri_of = [](TriBlock& blk) -> std::pair<const Csr<T>*, T*> {
    switch (blk.info.kind) {
      case TriKernelKind::kCompletelyParallel:
        return {nullptr, blk.diag->values().data()};
      case TriKernelKind::kLevelSet:
        return {&blk.levelset->matrix(), blk.levelset->values().data()};
      case TriKernelKind::kSyncFree:
        return {&blk.syncfree->matrix(), blk.syncfree->values().data()};
      case TriKernelKind::kCusparseLike:
        return {&blk.cusparse->matrix(), blk.cusparse->values().data()};
    }
    return {nullptr, nullptr};
  };
  for (TriBlock& blk : tri_) {
    const Csr<T>* rows = tri_of(blk).first;
    held += rows != nullptr ? rows->nnz()
                            : static_cast<offset_t>(blk.diag->diag().size());
  }
  if (held != nnz_) return fail("the number of held values");

  // The rows go window by window (kSquareWindowRows). In a window, every
  // covering square hands over its run of listed rows in storage order,
  // the squares by first column, and then each row its triangle row: each
  // row takes its slots in the order the build walk read them, which is
  // the order of its map entries. Row i of the window reads them from
  // rows[i].next on, through the caller's row at rows[i].cols/vals.
  constexpr index_t kW = kSquareWindowRows;
  struct Row {
    const index_t* cols = nullptr;
    const T* vals = nullptr;
    std::size_t first = 0, next = 0, end = 0;  // its map entries
    double sum = 0.0;                          // its ‖·‖ in slot order
  };
  std::vector<Row> rows(static_cast<std::size_t>(kW));
  std::vector<std::uint8_t> taken;  // per map entry of the window
  std::size_t window_first = 0;     // the window's first map entry
  // The next slot of row `r`, which holds permuted column `col`, takes the
  // caller's entry its map entry names: inside the row, not yet taken, and
  // in that column.
  const auto take = [&](Row& r, index_t col, T* dst) {
    if (r.next == r.end) return false;
    const W e = value_map_.at<W>(r.next++);
    if (e >= r.end - r.first) return false;
    std::uint8_t& once = taken[r.first - window_first + e];
    if (once != 0) return false;
    once = 1;
    if (new_of_old[static_cast<std::size_t>(r.cols[e])] != col) return false;
    *dst = r.vals[e];
    r.sum += std::fabs(static_cast<double>(r.vals[e]));
    return true;
  };

  WindowRuns<T> runs(plan_.squares, std::move(square_rows));
  const Csr<T>* tri = nullptr;
  T* tri_val = nullptr;
  std::size_t pos = 0;  // map entries of the rows before this window
  double norm = 0.0;
  std::size_t t = 0;
  for (index_t w0 = 0; w0 < n; w0 += kW) {
    const index_t w1 = std::min(w0 + kW, n);
    window_first = pos;
    for (index_t i = w0; i < w1; ++i) {
      const auto oi =
          static_cast<std::size_t>(old_of_new[static_cast<std::size_t>(i)]);
      const auto base = static_cast<std::size_t>(lower.row_ptr[oi]);
      const auto m = static_cast<std::size_t>(lower.row_ptr[oi + 1]) - base;
      rows[static_cast<std::size_t>(i - w0)] = {lower.col_idx.data() + base,
                                                lower.val.data() + base, pos,
                                                pos, pos + m, 0.0};
      pos += m;
    }
    taken.assign(pos - window_first, 0);

    for (const typename WindowRuns<T>::Run& run : runs.at(w0, w1)) {
      Dcsr<T>& d = squares_[run.a.q].rows;
      for (std::size_t p = run.lo; p < run.hi; ++p) {
        Row& r = rows[static_cast<std::size_t>(run.a.r0 + d.row_ids[p] - w0)];
        for (offset_t e = d.row_ptr[p]; e < d.row_ptr[p + 1]; ++e)
          if (!take(r, d.col_idx[static_cast<std::size_t>(e)] + run.a.c0,
                    d.val.data() + e))
            return fail("a square block");
      }
    }
    for (index_t i = w0; i < w1; ++i) {
      while (plan_.tri_bounds[t + 1] <= i) ++t;
      const index_t r0 = plan_.tri_bounds[t];
      if (i == r0) std::tie(tri, tri_val) = tri_of(tri_[t]);
      Row& r = rows[static_cast<std::size_t>(i - w0)];
      const auto li = static_cast<std::size_t>(i - r0);
      if (tri == nullptr) {
        if (!take(r, i, tri_val + li)) return fail("a diagonal block");
      } else {
        for (offset_t e = tri->row_ptr[li]; e < tri->row_ptr[li + 1]; ++e)
          if (!take(r, tri->col_idx[static_cast<std::size_t>(e)] + r0,
                    tri_val + e))
            return fail("a triangular block");
      }
      if (r.next != r.end) return fail("a row's entry count");
      norm = std::max(norm, r.sum);
    }
  }
  norm_inf_ = norm;
  return Status::Ok();
}

template <class T>
Status BlockSolver<T>::run_steps_checked(std::vector<T>& bw,
                                         std::vector<T>& xw, SolveReport* rep,
                                         ThreadPool* epool,
                                         const ExecControl* ctl) const {
  // Steps stay sequential here — the ladder needs each block's output
  // inspected before its dependents run — but kernels still use this call's
  // arbitrated pool.
  rep->steps_completed = 0;  // progress of this pass (attempt or refinement)
  for (const ExecStep& step : plan_.steps) {
    if (ctl != nullptr && !ctl->check())
      return ctl->to_status("after " + std::to_string(rep->steps_completed) +
                            " of " + std::to_string(plan_.steps.size()) +
                            " plan steps");
    if (step.kind != ExecStep::Kind::kTri) {
      const SquareBlock& blk = squares_[static_cast<std::size_t>(step.index)];
      if (blk.info.nnz == 0) continue;  // skipped, like the plain executors
      exec_square(blk, xw.data() + blk.info.ref.c0,
                  bw.data() + blk.info.ref.r0, epool);
      ++rep->steps_completed;
      continue;
    }
    const TriBlock& blk = tri_[static_cast<std::size_t>(step.index)];
    const index_t len = blk.info.r1 - blk.info.r0;
    const T* bb = bw.data() + blk.info.r0;
    T* xx = xw.data() + blk.info.r0;

    int attempt = 0;
    auto run = [&](auto&& solve_fn) {
      solve_fn();
      if (ctl != nullptr && ctl->tripped()) {
        // A spin timeout is healable — the rungs below never spin — so with
        // the ladder enabled it is consumed and treated as a failed attempt.
        // Deadline/cancel trips stay tripped; the check after the ladder
        // turns them into the terminal typed Status.
        if (opt_.verify.fallback) ctl->consume_spin_trip();
        return false;
      }
      if (step.index == this->opt_.fault.tri_block &&
          attempt < this->opt_.fault.corrupt_attempts && len > 0)
        xx[0] = std::numeric_limits<T>::quiet_NaN();
      ++attempt;
      return all_finite(xx, len);
    };

    bool ok = run([&] { exec_tri(blk, bb, xx, epool, ctl); });
    if (!ok && ctl != nullptr && ctl->tripped())
      return ctl->to_status("in triangular block " +
                            std::to_string(step.index));
    if (!ok && opt_.verify.fallback) {
      Csr<T> built;
      const Csr<T>& rows = tri_rows(blk, built);
      if (blk.info.kind != TriKernelKind::kLevelSet) {
        rep->fallbacks.push_back({step.index, blk.info.kind,
                                  FallbackEvent::Rung::kLevelSet});
        const LevelSetSolver<T> ls(rows);
        ok = run([&] { ls.solve(bb, xx, nullptr); });
      }
      if (!ok) {
        rep->fallbacks.push_back(
            {step.index, blk.info.kind, FallbackEvent::Rung::kSerial});
        ok = run([&] { sptrsv_serial_raw(rows, bb, xx); });
      }
    }
    if (!ok)
      return Status(StatusCode::kNumericalBreakdown,
                    "triangular block " + std::to_string(step.index) +
                        " (rows " + std::to_string(blk.info.r0) + ".." +
                        std::to_string(blk.info.r1) +
                        ") produced non-finite output on every rung of the "
                        "fallback ladder");
    ++rep->steps_completed;
  }
  return Status::Ok();
}

template <class T>
void BlockSolver<T>::residual_into(const T* xw, const T* bw0, T* r, index_t k,
                                   ThreadPool* epool) const {
  // Rows [i0, i1), i0 a leaf bound, go in segments of one window
  // (kSquareWindowRows) each. The walk read each sorted row as one run per
  // covering square, by ascending first column, then the triangle entries,
  // diagonal last. In a segment, every square covering one of its rows adds
  // its listed rows of the window — one contiguous run — and the squares go
  // by first column, so each row takes its squares' entries in the row's
  // order; then each row adds its triangle entries. Every row of every
  // column thus accumulates in the order the row holds its entries,
  // kRhsTile columns at a time.
  constexpr index_t kW = kSquareWindowRows;
  const auto ku = static_cast<std::size_t>(k);
  const auto row_range = [&](index_t i0, index_t i1) {
    std::vector<const Dcsr<T>*> square_rows(squares_.size());
    for (std::size_t q = 0; q < squares_.size(); ++q)
      square_rows[q] = &squares_[q].rows;
    WindowRuns<T> runs(plan_.squares, std::move(square_rows));
    auto t = static_cast<std::size_t>(
        std::upper_bound(plan_.tri_bounds.begin(), plan_.tri_bounds.end(),
                         i0) -
        plan_.tri_bounds.begin() - 1);
    double acc[kW * kRhsTile];
    Csr<T> unused;  // tri_rows' scratch, which only a diagonal leaf needs
    // A leaf's kernel rows, or null for a diagonal leaf's pivots.
    const auto leaf_rows = [&](std::size_t lt) -> const Csr<T>* {
      const TriBlock& leaf = tri_[lt];
      return leaf.info.kind == TriKernelKind::kCompletelyParallel
                 ? nullptr
                 : &tri_rows(leaf, unused);
    };
    for (index_t s0 = i0; s0 < i1;) {
      const index_t s1 = std::min((window_of(s0) + 1) * kW, i1);
      const std::vector<typename WindowRuns<T>::Run>& sq = runs.at(s0, s1);
      const auto len = static_cast<std::size_t>(s1 - s0);
      while (plan_.tri_bounds[t + 1] <= s0) ++t;
      simd::detail::for_each_rhs_tile(0, k, [&](index_t ct, auto nt) {
        constexpr int W = decltype(nt)::value;
        const auto cu = static_cast<std::size_t>(ct);
        std::fill(acc, acc + len * W, 0.0);
        for (const typename WindowRuns<T>::Run& run : sq) {
          const Dcsr<T>& b = squares_[run.a.q].rows;
          const T* const xs = xw + static_cast<std::size_t>(run.a.c0) * ku;
          for (std::size_t p = run.lo; p < run.hi; ++p) {
            const index_t g = run.a.r0 + b.row_ids[p];
            if (g < s0 || g >= s1) continue;  // a row outside [i0, i1)
            const auto at = static_cast<std::size_t>(g - s0);
            // Through locals that stay in registers.
            double s[W];
            for (int c = 0; c < W; ++c) s[c] = acc[at * W + c];
            for (offset_t e = b.row_ptr[p]; e < b.row_ptr[p + 1]; ++e) {
              const T* xe =
                  xs + static_cast<std::size_t>(b.col_idx[e]) * ku + cu;
              for (int c = 0; c < W; ++c)
                s[c] += static_cast<double>(b.val[e]) *
                        static_cast<double>(xe[c]);
            }
            for (int c = 0; c < W; ++c) acc[at * W + c] = s[c];
          }
        }
        // The triangle entries come last; each row's sums then give r.
        std::size_t lt = t;
        const Csr<T>* rows = leaf_rows(lt);
        for (std::size_t q = 0; q < len; ++q) {
          const index_t row = s0 + static_cast<index_t>(q);
          if (plan_.tri_bounds[lt + 1] <= row) {
            while (plan_.tri_bounds[lt + 1] <= row) ++lt;
            rows = leaf_rows(lt);
          }
          const TriBlock& leaf = tri_[lt];
          const auto tl = static_cast<std::size_t>(row - leaf.info.r0);
          const std::size_t i = static_cast<std::size_t>(row) * ku + cu;
          double s[W];
          for (int c = 0; c < W; ++c) s[c] = acc[q * W + c];
          if (rows != nullptr) {
            const T* const xt =
                xw + static_cast<std::size_t>(leaf.info.r0) * ku;
            for (offset_t e = rows->row_ptr[tl]; e < rows->row_ptr[tl + 1];
                 ++e) {
              const auto j = static_cast<std::size_t>(rows->col_idx[e]);
              const T* xe = xt + j * ku + cu;
              for (int c = 0; c < W; ++c)
                s[c] += static_cast<double>(rows->val[e]) *
                        static_cast<double>(xe[c]);
            }
          } else {
            const double d = static_cast<double>(leaf.diag->diag()[tl]);
            for (int c = 0; c < W; ++c)
              s[c] += d * static_cast<double>(xw[i + c]);
          }
          for (int c = 0; c < W; ++c)
            r[i + c] = static_cast<T>(static_cast<double>(bw0[i + c]) - s[c]);
        }
      });
      s0 = s1;
    }
  };
  const index_t ntri = plan_.num_tri_blocks();
  if (!parallel_enabled(epool) || nnz_ < kHostParallelMinNnz || ntri < 2) {
    row_range(0, plan_.n);
    return;
  }
  // Chunks of whole leaves, balanced by nnz: a leaf weighs its triangle plus
  // its rows' share of every square's nonzeros.
  std::vector<offset_t> leaf_nnz(static_cast<std::size_t>(ntri) + 1, 0);
  for (index_t t = 0; t < ntri; ++t)
    leaf_nnz[static_cast<std::size_t>(t) + 1] =
        tri_[static_cast<std::size_t>(t)].info.nnz;
  for (const SquareBlock& sq : squares_) {
    if (sq.info.nnz == 0) continue;
    const SquareBlockRef& ref = sq.info.ref;
    auto t = static_cast<std::size_t>(
        std::upper_bound(plan_.tri_bounds.begin(), plan_.tri_bounds.end(),
                         ref.r0) -
        plan_.tri_bounds.begin() - 1);
    for (; t < static_cast<std::size_t>(ntri) && plan_.tri_bounds[t] < ref.r1;
         ++t) {
      const index_t lo = std::max(ref.r0, plan_.tri_bounds[t]);
      const index_t hi = std::min(ref.r1, plan_.tri_bounds[t + 1]);
      leaf_nnz[t + 1] += sq.info.nnz * (hi - lo) / (ref.r1 - ref.r0);
    }
  }
  std::partial_sum(leaf_nnz.begin(), leaf_nnz.end(), leaf_nnz.begin());
  std::vector<index_t> bounds =
      balanced_row_partition(leaf_nnz, ntri, epool->size());
  for (index_t& b : bounds) b = plan_.tri_bounds[static_cast<std::size_t>(b)];
  epool->run_partition(bounds,
                       [&](index_t i0, index_t i1, int) { row_range(i0, i1); });
}

template <class T>
void BlockSolver<T>::residual_norms(const T* xw, const T* bw0, index_t k,
                                    T* r, double* norms,
                                    ThreadPool* epool) const {
  const auto n = static_cast<std::size_t>(plan_.n);
  const auto ku = static_cast<std::size_t>(k);
  residual_into(xw, bw0, r, k, epool);
  // Per column ‖r‖∞ (in norms), ‖x‖∞ and ‖b‖∞, each over the rows in order.
  std::fill(norms, norms + ku, 0.0);
  std::vector<double> xb(2 * ku, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < ku; ++c) {
      const std::size_t e = i * ku + c;
      norms[c] = std::max(norms[c], std::fabs(static_cast<double>(r[e])));
      xb[c] = std::max(xb[c], std::fabs(static_cast<double>(xw[e])));
      xb[ku + c] = std::max(xb[ku + c], std::fabs(static_cast<double>(bw0[e])));
    }
  for (std::size_t c = 0; c < ku; ++c) {
    const double denom = norm_inf_ * xb[c] + xb[ku + c];
    if (denom != 0.0) norms[c] /= denom;
  }
}

template <class T>
void BlockSolver<T>::accumulate_op_stats(SolveReport* rep) const {
  const auto idx_val =
      static_cast<std::int64_t>(sizeof(index_t) + sizeof(T));
  const auto row_overhead =
      static_cast<std::int64_t>(sizeof(offset_t) + 2 * sizeof(T));
  for (const TriBlock& blk : tri_) {
    rep->flops += 2 * static_cast<std::int64_t>(blk.info.nnz);
    rep->bytes += static_cast<std::int64_t>(blk.info.nnz) * idx_val +
                  static_cast<std::int64_t>(blk.info.r1 - blk.info.r0) *
                      row_overhead;
    if (blk.info.kind == TriKernelKind::kLevelSet &&
        blk.levelset != nullptr) {
      const index_t groups = blk.levelset->exec_groups();
      rep->levels_executed += groups;
      rep->levels_merged += blk.info.nlevels - groups;
    }
  }
  for (const SquareBlock& blk : squares_) {
    if (blk.info.nnz == 0) continue;
    rep->flops += 2 * static_cast<std::int64_t>(blk.info.nnz);
    // Every kind iterates only the listed (non-empty) rows, each of which
    // also streams its row id.
    const auto rows = static_cast<std::int64_t>(blk.rows.row_ids.size());
    const auto per_row =
        row_overhead + static_cast<std::int64_t>(sizeof(index_t));
    rep->bytes +=
        static_cast<std::int64_t>(blk.info.nnz) * idx_val + rows * per_row;
  }
}

template <class T>
double BlockSolver<T>::default_residual_tolerance() const {
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  return 100.0 * static_cast<double>(std::max<index_t>(plan_.n, 1)) * eps;
}

template <class T>
SolveResult<T> BlockSolver<T>::solve_checked(const std::vector<T>& b) const {
  return solve_checked(b, SolveControls{});
}

template <class T>
SolveResult<T> BlockSolver<T>::solve_checked(
    const std::vector<T>& b, const SolveControls& controls) const {
  SolveResult<T> res;
  if (Status st = whole_matrix(); !st.ok()) {
    res.status = std::move(st);
    return res;
  }
  if (b.size() != static_cast<std::size_t>(plan_.n)) {
    res.status = Status(StatusCode::kInvalidArgument,
                        "rhs has " + std::to_string(b.size()) +
                            " entries, expected " + std::to_string(plan_.n));
    return res;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (!std::isfinite(static_cast<double>(b[i]))) {
      res.status = Status(StatusCode::kNonFinite,
                          "rhs entry " + std::to_string(i) + " is not finite",
                          static_cast<std::int64_t>(i));
      return res;
    }
  }

  const int prev = in_flight_.fetch_add(1, std::memory_order_relaxed);
  InFlightGuard in_flight_guard{&in_flight_};
  if (prev > 0 && opt_.session.strict_reentrancy) {
    res.status = Status(StatusCode::kReentrantSolve,
                        "another solve is in flight on this solver and "
                        "Options::session.strict_reentrancy is set");
    return res;
  }
  const ExecControl ctl(controls);

  res.report.tolerance = opt_.verify.tolerance > 0.0
                             ? opt_.verify.tolerance
                             : default_residual_tolerance();
  if (opt_.collect_stats) accumulate_op_stats(&res.report);
  res.report.steps_total = static_cast<index_t>(plan_.steps.size());

  auto lease = acquire_workspace(&ctl);
  if (!lease) {
    res.status = ctl.tripped()
                     ? ctl.to_status("while waiting for a solve workspace")
                     : pool_exhausted_status();
    return res;
  }
  SolveWorkspace& ws = *lease;
  if (opt_.fault.hold_lease_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.fault.hold_lease_ms));

  const std::size_t n = static_cast<std::size_t>(plan_.n);
  ws.bw0.resize(n);
  ws.bw.resize(n);
  ws.xw.resize(n);
  // One fused scatter produces the pristine permuted rhs; each attempt's
  // solve input is a plain copy of it — the residual and refinement rounds
  // reuse ws.bw0 instead of re-permuting b each time.
  scatter_permuted(b.data(), plan_.new_of_old, ws.bw0.data());

  // Pool arbitration (see the unchecked solve): losing the try_lock is
  // itself a whole-solve degradation — recorded, then run serial.
  std::unique_lock<std::mutex> pool_lk(exec_mu_, std::defer_lock);
  const bool have_pool = pool_ != nullptr && pool_lk.try_lock();
  if (pool_ != nullptr && !have_pool)
    res.report.degrades.push_back({DegradeEvent::Kind::kParallelToSerial,
                                   StatusCode::kReentrantSolve});

  // The whole-solve degradation ladder. Rung 0 is the configured execution;
  // each further rung demotes one axis (parallel → serial, then SIMD
  // vector → blocked → strict). Demoted SIMD rungs run serial, so the
  // thread-local path override is seen by every kernel of the attempt.
  const std::vector<LadderRung> rungs =
      build_ladder(have_pool, opt_.verify.fallback);
  const SolveReport base_report = res.report;  // pre-attempt snapshot
  Status final_status = Status::Ok();
  for (std::size_t a = 0; a < rungs.size(); ++a) {
    const LadderRung& rung = rungs[a];
    SolveReport rep = base_report;  // fallbacks describe this attempt only
    rep.degrades = std::move(res.report.degrades);  // accumulate across rungs
    rep.attempts = static_cast<int>(a) + 1;
    ThreadPool* epool = rung.use_pool ? pool_.get() : nullptr;
    std::optional<simd::ScopedPathOverride> demoted;
    if (rung.forced_path >= 0)
      demoted.emplace(static_cast<simd::Path>(rung.forced_path));

    std::copy(ws.bw0.begin(), ws.bw0.end(), ws.bw.begin());
    // On breakdown the partial solution is returned for diagnosis; zeroing
    // the reused workspace keeps untouched rows at 0 as a fresh vector had.
    std::fill(ws.xw.begin(), ws.xw.end(), T(0));

    Status st = run_steps_checked(ws.bw, ws.xw, &rep, epool, &ctl);
    double resid = 0.0;
    if (st.ok()) {
      // Deterministic fault hook: a wrong-but-finite solution slips past the
      // per-block finiteness checks, so only the residual can reject it.
      if (rep.attempts <= opt_.fault.corrupt_solve_attempts && n > 0)
        ws.xw[0] = T(1e30);

      // Normwise residual in the permuted space; permutations preserve max
      // norms, so this equals the residual of the user-facing system.
      ws.rw.resize(n);
      residual_norms(ws.xw.data(), ws.bw0.data(), 1, ws.rw.data(), &resid,
                     epool);
      rep.residual_checked = true;
      for (int it = 0;
           it < opt_.verify.max_refinements && resid > rep.tolerance &&
           ctl.check();
           ++it) {
        // One round of iterative refinement: solve L d = b − L x, x += d.
        ws.dw.resize(n);
        residual_into(ws.xw.data(), ws.bw0.data(), ws.rw.data(), 1, epool);
        const index_t attempt_steps = rep.steps_completed;
        const bool refined =
            run_steps_checked(ws.rw, ws.dw, &rep, epool, &ctl).ok();
        rep.steps_completed = attempt_steps;
        if (!refined) break;
        for (std::size_t i = 0; i < n; ++i) ws.xw[i] += ws.dw[i];
        residual_norms(ws.xw.data(), ws.bw0.data(), 1, ws.rw.data(), &resid,
                       epool);
        ++rep.refinements;
      }
      rep.residual = resid;
      st = resid <= rep.tolerance
               ? Status::Ok()
               : Status(StatusCode::kResidualTooLarge,
                        "residual " + std::to_string(resid) +
                            " exceeds tolerance " +
                            std::to_string(rep.tolerance));
    }

    res.report = std::move(rep);
    final_status = std::move(st);
    if (final_status.ok()) break;
    // Deadline/cancel (and spin timeouts the disabled ladder left tripped)
    // are terminal: retrying against an expired budget only burns time.
    if (ctl.tripped()) break;
    if (a + 1 < rungs.size())
      res.report.degrades.push_back(
          {rungs[a + 1].entered_by, final_status.code()});
  }

  res.status = std::move(final_status);
  res.x.resize(n);
  gather_permuted(ws.xw.data(), plan_.new_of_old, res.x.data());
  return res;
}

template <class T>
Status BlockSolver<T>::run_steps_checked_many(T* bw, T* xw, index_t k,
                                              std::vector<SolveReport>* reps,
                                              ThreadPool* epool,
                                              const ExecControl* ctl, T* bc,
                                              T* xc) const {
  const auto ku = static_cast<std::size_t>(k);
  index_t done = 0;  // panel-level progress, mirrored into every report
  const auto set_progress = [&] {
    for (SolveReport& rp : *reps) rp.steps_completed = done;
  };
  for (const ExecStep& step : plan_.steps) {
    if (ctl != nullptr && !ctl->check()) {
      set_progress();
      return ctl->to_status("after " + std::to_string(done) + " of " +
                            std::to_string(plan_.steps.size()) +
                            " plan steps");
    }
    if (step.kind != ExecStep::Kind::kTri) {
      const SquareBlock& blk = squares_[static_cast<std::size_t>(step.index)];
      if (blk.info.nnz == 0) continue;  // skipped, like the plain executors
      exec_step_many(step, bw, xw, 0, k, epool, ctl, k);
      ++done;
      continue;
    }
    const TriBlock& blk = tri_[static_cast<std::size_t>(step.index)];
    const index_t len = blk.info.r1 - blk.info.r0;

    // Attempt 0: the selected kernel over the whole panel, as the plain
    // executor runs it. The batched sync-free path never spins (it is the
    // serial column-split algorithm), so a trip here can only be a
    // deadline/cancel — terminal.
    exec_step_many(step, bw, xw, 0, k, epool, ctl, k);
    if (ctl != nullptr && ctl->tripped()) {
      set_progress();
      return ctl->to_status("in triangular block " +
                            std::to_string(step.index));
    }
    T* const xr = xw + static_cast<std::size_t>(blk.info.r0) * ku;
    const T* const br = bw + static_cast<std::size_t>(blk.info.r0) * ku;
    const bool faulted = step.index == opt_.fault.tri_block &&
                         opt_.fault.corrupt_attempts > 0 && len > 0 &&
                         opt_.fault.column >= 0 && opt_.fault.column < k;
    if (faulted)
      xr[static_cast<std::size_t>(opt_.fault.column)] =
          std::numeric_limits<T>::quiet_NaN();

    // A column that came out non-finite degrades alone through the
    // single-RHS rungs, its slices gathered into contiguous scratch and the
    // result scattered back; the healthy columns keep the batched result.
    for (index_t c = 0; c < k; ++c) {
      if (all_finite(xr + c, len, k)) continue;

      bool ok = false;
      if (opt_.verify.fallback) {
        for (index_t i = 0; i < len; ++i)
          bc[i] = br[static_cast<std::size_t>(i) * ku +
                     static_cast<std::size_t>(c)];
        int attempt = 1;  // the batched kernel above was attempt 0
        auto run = [&](auto&& solve_fn) {
          solve_fn();
          if (faulted && c == this->opt_.fault.column &&
              attempt < this->opt_.fault.corrupt_attempts)
            xc[0] = std::numeric_limits<T>::quiet_NaN();
          ++attempt;
          return all_finite(xc, len);
        };
        SolveReport& rep = (*reps)[static_cast<std::size_t>(c)];
        Csr<T> built;
        const Csr<T>& rows = tri_rows(blk, built);
        if (blk.info.kind != TriKernelKind::kLevelSet) {
          rep.fallbacks.push_back(
              {step.index, blk.info.kind, FallbackEvent::Rung::kLevelSet});
          const LevelSetSolver<T> ls(rows);
          ok = run([&] { ls.solve(bc, xc, nullptr); });
        }
        if (!ok) {
          rep.fallbacks.push_back(
              {step.index, blk.info.kind, FallbackEvent::Rung::kSerial});
          ok = run([&] { sptrsv_serial_raw(rows, bc, xc); });
        }
        for (index_t i = 0; i < len; ++i)
          xr[static_cast<std::size_t>(i) * ku + static_cast<std::size_t>(c)] =
              xc[i];
      }
      if (!ok) {
        set_progress();
        return Status(StatusCode::kNumericalBreakdown,
                      "triangular block " + std::to_string(step.index) +
                          " (rows " + std::to_string(blk.info.r0) + ".." +
                          std::to_string(blk.info.r1) +
                          ") produced non-finite output for panel column " +
                          std::to_string(c) +
                          " on every rung of the fallback ladder",
                      static_cast<std::int64_t>(c));
      }
    }
    ++done;
  }
  set_progress();
  return Status::Ok();
}

template <class T>
SolveManyResult<T> BlockSolver<T>::solve_many_checked(const std::vector<T>& B,
                                                      index_t k) const {
  return solve_many_checked(B, k, SolveControls{});
}

template <class T>
SolveManyResult<T> BlockSolver<T>::solve_many_checked(
    const std::vector<T>& B, index_t k, const SolveControls& controls) const {
  SolveManyResult<T> res;
  if (Status st = whole_matrix(); !st.ok()) {
    res.status = std::move(st);
    return res;
  }
  const std::size_t n = static_cast<std::size_t>(plan_.n);
  if (k < 0 || B.size() != n * static_cast<std::size_t>(k)) {
    res.status = Status(StatusCode::kInvalidArgument,
                        "panel has " + std::to_string(B.size()) +
                            " entries, expected n * k = " +
                            std::to_string(n * static_cast<std::size_t>(
                                                   std::max<index_t>(k, 0))));
    return res;
  }
  if (k == 0) return res;
  for (std::size_t i = 0; i < B.size(); ++i) {
    if (!std::isfinite(static_cast<double>(B[i]))) {
      res.status =
          Status(StatusCode::kNonFinite,
                 "panel entry " + std::to_string(i % n) + " of column " +
                     std::to_string(i / n) + " is not finite",
                 static_cast<std::int64_t>(i));
      return res;
    }
  }

  const int prev = in_flight_.fetch_add(1, std::memory_order_relaxed);
  InFlightGuard in_flight_guard{&in_flight_};
  if (prev > 0 && opt_.session.strict_reentrancy) {
    res.status = Status(StatusCode::kReentrantSolve,
                        "another solve is in flight on this solver and "
                        "Options::session.strict_reentrancy is set");
    return res;
  }
  const ExecControl ctl(controls);

  const double tol = opt_.verify.tolerance > 0.0
                         ? opt_.verify.tolerance
                         : default_residual_tolerance();
  res.reports.resize(static_cast<std::size_t>(k));
  for (SolveReport& rep : res.reports) {
    rep.tolerance = tol;
    rep.steps_total = static_cast<index_t>(plan_.steps.size());
  }
  if (opt_.collect_stats)
    for (SolveReport& rep : res.reports) accumulate_op_stats(&rep);

  auto lease = acquire_workspace(&ctl);
  if (!lease) {
    res.status = ctl.tripped()
                     ? ctl.to_status("while waiting for a solve workspace")
                     : pool_exhausted_status();
    return res;
  }
  SolveWorkspace& ws = *lease;
  if (opt_.fault.hold_lease_ms > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.fault.hold_lease_ms));

  const auto ku = static_cast<std::size_t>(k);
  const std::size_t total = n * ku;
  // The interleaved panels of solve_many. The fused entry permutation fills
  // the pristine permuted panel once; each attempt's solve input is a copy
  // of it, and the residual check below reads bw0 directly instead of
  // re-permuting B.
  T* const bw0 = aligned_panel(ws.bw0, total);
  T* const bw = aligned_panel(ws.bw, total);
  T* const xw = aligned_panel(ws.xw, total);
  scatter_panel<T>(B.data(), nullptr, plan_.new_of_old, k, bw0);
  ws.xc.resize(n);
  ws.bc.resize(n);

  // Pool arbitration, as in solve_checked; panel-level degradations are
  // mirrored into every column's report.
  std::unique_lock<std::mutex> pool_lk(exec_mu_, std::defer_lock);
  const bool have_pool = pool_ != nullptr && pool_lk.try_lock();
  std::vector<DegradeEvent> degrades;
  if (pool_ != nullptr && !have_pool)
    degrades.push_back({DegradeEvent::Kind::kParallelToSerial,
                        StatusCode::kReentrantSolve});

  // Whole-solve ladder at panel granularity: a batched breakdown or any
  // column whose residual survives refinement retries the entire panel on
  // the next rung (per-column rescue inside run_steps_checked_many remains
  // the first line of defence).
  const std::vector<LadderRung> rungs =
      build_ladder(have_pool, opt_.verify.fallback);
  const std::vector<SolveReport> base_reports = res.reports;
  Status final_status = Status::Ok();
  for (std::size_t a = 0; a < rungs.size(); ++a) {
    const LadderRung& rung = rungs[a];
    res.reports = base_reports;  // fallbacks describe this attempt only
    for (SolveReport& rep : res.reports)
      rep.attempts = static_cast<int>(a) + 1;
    ThreadPool* epool = rung.use_pool ? pool_.get() : nullptr;
    std::optional<simd::ScopedPathOverride> demoted;
    if (rung.forced_path >= 0)
      demoted.emplace(static_cast<simd::Path>(rung.forced_path));

    std::copy(bw0, bw0 + total, bw);
    // Same partial-solution contract as solve_checked: untouched rows read 0.
    std::fill(xw, xw + total, T(0));
    Status st = run_steps_checked_many(bw, xw, k, &res.reports, epool, &ctl,
                                       ws.bc.data(), ws.xc.data());
    if (st.ok()) {
      // Deterministic fault hook (see solve_checked): a wrong-but-finite
      // column only the residual check can reject.
      if (static_cast<int>(a) < opt_.fault.corrupt_solve_attempts && n > 0) {
        const index_t fc =
            opt_.fault.column >= 0 && opt_.fault.column < k ? opt_.fault.column
                                                            : 0;
        xw[static_cast<std::size_t>(fc)] = T(1e30);
      }

      // Every column's residual in one pass over the panels (bw, consumed
      // by the steps, holds the residual panel); each column keeps its own
      // report. A column above tolerance is gathered into xc/bc, refined
      // through the single-RHS ladder and scattered back.
      std::vector<double> resids(ku);
      residual_norms(xw, bw0, k, bw, resids.data(), epool);
      double worst = 0.0;
      index_t worst_col = -1;
      for (index_t c = 0; c < k && !ctl.tripped(); ++c) {
        SolveReport& rep = res.reports[static_cast<std::size_t>(c)];
        const auto cu = static_cast<std::size_t>(c);
        double resid = resids[cu];
        rep.residual_checked = true;
        if (opt_.verify.max_refinements > 0 && resid > tol) {
          for (std::size_t i = 0; i < n; ++i) {
            ws.xc[i] = xw[i * ku + cu];
            ws.bc[i] = bw0[i * ku + cu];
          }
          ws.rw.resize(n);
          ws.dw.resize(n);
          for (int it = 0;
               it < opt_.verify.max_refinements && resid > tol && ctl.check();
               ++it) {
            residual_into(ws.xc.data(), ws.bc.data(), ws.rw.data(), 1, epool);
            const index_t panel_steps = rep.steps_completed;
            const bool refined =
                run_steps_checked(ws.rw, ws.dw, &rep, epool, &ctl).ok();
            rep.steps_completed = panel_steps;
            if (!refined) break;
            for (std::size_t i = 0; i < n; ++i) ws.xc[i] += ws.dw[i];
            residual_norms(ws.xc.data(), ws.bc.data(), 1, ws.rw.data(),
                           &resid, epool);
            ++rep.refinements;
          }
          for (std::size_t i = 0; i < n; ++i) xw[i * ku + cu] = ws.xc[i];
        }
        rep.residual = resid;
        if (!(resid <= tol) && resid >= worst) {
          worst = resid;
          worst_col = c;
        }
      }
      st = worst_col >= 0
               ? Status(StatusCode::kResidualTooLarge,
                        "panel column " + std::to_string(worst_col) +
                            " residual " + std::to_string(worst) +
                            " exceeds tolerance " + std::to_string(tol),
                        static_cast<std::int64_t>(worst_col))
               : Status::Ok();
    }

    final_status = std::move(st);
    if (final_status.ok()) break;
    if (ctl.tripped()) break;  // deadline/cancel: terminal, never retried
    if (a + 1 < rungs.size())
      degrades.push_back({rungs[a + 1].entered_by, final_status.code()});
  }

  for (SolveReport& rep : res.reports) rep.degrades = degrades;
  res.status = std::move(final_status);
  res.X.resize(total);
  gather_panel<T>(xw, plan_.new_of_old, k, res.X.data(), nullptr);
  return res;
}

template <class T>
offset_t BlockSolver<T>::nnz_in_squares() const {
  offset_t total = 0;
  for (const auto& sq : square_info_) total += sq.nnz;
  return total;
}

template <class T>
typename BlockSolver<T>::PreprocessStats BlockSolver<T>::preprocess_stats()
    const {
  PreprocessStats st;
  st.host_ops = plan_.host_ops + build_ops_;
  st.host_bytes = plan_.host_bytes + build_bytes_;
  sim::HostSim hs(sim::host_default());
  hs.ops(st.host_ops);
  hs.bytes(st.host_bytes);
  st.model_ms = hs.ms();
  return st;
}

template class BlockSolver<float>;
template class BlockSolver<double>;

}  // namespace blocktri
