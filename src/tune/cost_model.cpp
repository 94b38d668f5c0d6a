#include "tune/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "analysis/features.hpp"
#include "analysis/levels.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gen/generators.hpp"
#include "sim/cache.hpp"
#include "sim/kernel_sim.hpp"
#include "sim/report.hpp"
#include "sparse/convert.hpp"
#include "sparse/triangular.hpp"
#include "sptrsv/cusparse_like.hpp"
#include "sptrsv/diagonal.hpp"
#include "sptrsv/sim_ctx.hpp"
#include "sptrsv/syncfree.hpp"

namespace blocktri::tune {

namespace {

std::atomic<std::uint64_t> g_calibration_runs{0};

// ---------------------------------------------------------------------------
// Least squares.

/// One calibration observation: `feat[0..k)` regressors, `ns` the measured
/// simulated time.
struct Sample {
  double feat[4] = {0, 0, 0, 0};
  double ns = 0.0;
};

/// Fits ns ≈ Σ c_j·feat_j by normal equations (tiny ridge term keeps
/// rank-deficient designs solvable); negative coefficients are clamped to
/// zero — the model is a monotone cost surrogate, not an interpolant.
/// Returns false when the system is degenerate even with the ridge.
bool fit_affine(const std::vector<Sample>& samples, int k, double* coeff) {
  double ata[4][4] = {};
  double aty[4] = {};
  for (const Sample& s : samples) {
    for (int i = 0; i < k; ++i) {
      aty[i] += s.feat[i] * s.ns;
      for (int j = 0; j < k; ++j) ata[i][j] += s.feat[i] * s.feat[j];
    }
  }
  double ridge = 0.0;
  for (int i = 0; i < k; ++i) ridge = std::max(ridge, ata[i][i]);
  ridge = ridge > 0.0 ? ridge * 1e-10 : 1e-10;
  for (int i = 0; i < k; ++i) ata[i][i] += ridge;

  // Gaussian elimination with partial pivoting on the k×k system.
  int piv[4] = {0, 1, 2, 3};
  for (int col = 0; col < k; ++col) {
    int best = col;
    for (int r = col + 1; r < k; ++r)
      if (std::fabs(ata[piv[r]][col]) > std::fabs(ata[piv[best]][col]))
        best = r;
    std::swap(piv[col], piv[best]);
    const double p = ata[piv[col]][col];
    if (!(std::fabs(p) > 0.0) || !std::isfinite(p)) return false;
    for (int r = col + 1; r < k; ++r) {
      const double f = ata[piv[r]][col] / p;
      for (int c = col; c < k; ++c) ata[piv[r]][c] -= f * ata[piv[col]][c];
      aty[piv[r]] -= f * aty[piv[col]];
    }
  }
  for (int col = k - 1; col >= 0; --col) {
    double acc = aty[piv[col]];
    for (int c = col + 1; c < k; ++c) acc -= ata[piv[col]][c] * coeff[c];
    coeff[col] = acc / ata[piv[col]][col];
    if (!std::isfinite(coeff[col])) return false;
  }
  for (int c = 0; c < k; ++c) coeff[c] = std::max(0.0, coeff[c]);
  return true;
}

// ---------------------------------------------------------------------------
// Simulated measurements. The protocol matches measure_block /
// solve_simulated: fresh cache per kernel-kind measurement, one warm pass,
// then the measured pass — so the model predicts exactly the quantity the
// plan search's oracle (and the fig6 bench) scores.

struct TriSample {
  Csr<double> a;
  index_t nlevels = 0;
  bool diagonal_only = false;
};

/// Simulated ns of solving `s.a` with kernel `kind`; also flop-checks the
/// measured report against the collect_stats accounting (2·nnz per block).
/// Returns a negative value when the kernel is inapplicable.
double measure_tri(TriKernelKind kind, const TriSample& s,
                   const sim::GpuSpec& gpu, bool* flops_ok) {
  const index_t n = s.a.nrows;
  if (kind == TriKernelKind::kCompletelyParallel && !s.diagonal_only)
    return -1.0;

  sim::AddressSpace as;
  const auto n_u = static_cast<std::uint64_t>(n);
  const std::uint64_t x_base = as.reserve(n_u * sizeof(double));
  const std::uint64_t b_base = as.reserve(n_u * sizeof(double));
  const std::uint64_t aux_base = as.reserve(n_u * (sizeof(double) + 4));
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);

  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);

  auto run = [&](sim::SolveReport* rep) {
    TrsvSim ts{&gpu, &cache, true, x_base, b_base, aux_base, rep};
    switch (kind) {
      case TriKernelKind::kCompletelyParallel: {
        StrictLowerSplit<double> split = split_diagonal(s.a);
        const DiagonalSolver<double> solver(std::move(split.diag));
        solver.solve(b.data(), x.data(), &ts);
        break;
      }
      case TriKernelKind::kLevelSet: {
        const LevelSetSolver<double> solver(s.a);
        solver.solve(b.data(), x.data(), &ts);
        break;
      }
      case TriKernelKind::kSyncFree: {
        const SyncFreeSolver<double> solver(s.a);
        solver.solve(b.data(), x.data(), &ts);
        break;
      }
      case TriKernelKind::kCusparseLike: {
        const CusparseLikeSolver<double> solver(s.a);
        solver.solve(b.data(), x.data(), &ts);
        break;
      }
    }
  };

  sim::SolveReport warm;
  run(&warm);
  sim::SolveReport rep;
  run(&rep);
  if (rep.flops != 2 * s.a.nnz()) *flops_ok = false;
  return rep.ns;
}

/// Deterministic square/rectangular SpMV calibration block: `rows`×`rows`,
/// a (1-empty_ratio) fraction of rows populated with ~nnz_per_row entries.
Csr<double> make_square_block(index_t rows, double nnz_per_row,
                              double empty_ratio, std::uint64_t seed) {
  Rng rng(seed);
  Csr<double> a;
  a.nrows = rows;
  a.ncols = rows;
  a.row_ptr.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (index_t i = 0; i < rows; ++i) {
    a.row_ptr[static_cast<std::size_t>(i)] =
        static_cast<offset_t>(a.col_idx.size());
    if (rng.uniform() < empty_ratio) continue;
    const auto want = static_cast<index_t>(std::max<std::int64_t>(
        1, rng.uniform_int(1, std::max<std::int64_t>(
                                  1, 2 * static_cast<std::int64_t>(
                                             nnz_per_row) - 1))));
    std::vector<index_t> cols;
    cols.reserve(static_cast<std::size_t>(want));
    for (index_t k = 0; k < want; ++k)
      cols.push_back(static_cast<index_t>(rng.uniform_int(0, rows - 1)));
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (index_t c : cols) {
      a.col_idx.push_back(c);
      a.val.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  a.row_ptr[static_cast<std::size_t>(rows)] =
      static_cast<offset_t>(a.col_idx.size());
  return a;
}

/// Simulated ns of one y ← y − A·x launch with kernel `kind` (launch
/// overhead included — this is the quantity solve_simulated charges per
/// square step). DCSR kinds run the native DCSR kernels, like the executor.
double measure_square(SpmvKernelKind kind, const Csr<double>& a,
                      const Dcsr<double>& d, const sim::GpuSpec& gpu,
                      bool* flops_ok) {
  sim::AddressSpace as;
  const std::uint64_t x_base =
      as.reserve(static_cast<std::uint64_t>(a.ncols) * sizeof(double));
  const std::uint64_t y_base =
      as.reserve(static_cast<std::uint64_t>(a.nrows) * sizeof(double));
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);

  std::vector<double> x(static_cast<std::size_t>(a.ncols), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.nrows), 0.0);

  sim::KernelSim ks(gpu, &cache, true);
  SpmvSim s{&ks, x_base, y_base};
  auto run = [&] {
    switch (kind) {
      case SpmvKernelKind::kScalarCsr:
        spmv_scalar_csr(a, x.data(), y.data(), &s);
        break;
      case SpmvKernelKind::kVectorCsr:
        spmv_vector_csr(a, x.data(), y.data(), &s);
        break;
      case SpmvKernelKind::kScalarDcsr:
        spmv_scalar_dcsr(d, x.data(), y.data(), &s);
        break;
      case SpmvKernelKind::kVectorDcsr:
        spmv_vector_dcsr(d, x.data(), y.data(), &s);
        break;
    }
    return ks.finish();
  };
  run();  // warm (finish() clears tasks, keeps the shared cache state)
  const sim::KernelReport kr = run();
  if (kr.flops != 2 * a.nnz()) *flops_ok = false;
  return gpu.kernel_launch_ns + kr.ns;
}

/// Host wall-clock pick of the level-merge width: a deep near-serial chain
/// (where merging is the whole game) solved at each candidate width, warmup +
/// min-of-N. Scanning order puts the compiled-in default first so it wins
/// ties.
offset_t pick_merge_width() {
  const Csr<double> a = gen::chain_banded(4096, 8, 1.0, 0x6d657267ULL);
  const std::vector<double> b = gen::random_rhs<double>(a.nrows, 7);
  std::vector<double> x(static_cast<std::size_t>(a.nrows), 0.0);
  const offset_t widths[] = {kLevelMergeMaxWidth, 1, 4, 8, 32, 64};
  offset_t best_w = kLevelMergeMaxWidth;
  double best_ms = -1.0;
  for (offset_t w : widths) {
    const LevelSetSolver<double> solver(a, nullptr, w);
    for (int i = 0; i < 2; ++i) solver.solve(b.data(), x.data());
    double ms = -1.0;
    for (int i = 0; i < 5; ++i) {
      Stopwatch sw;
      solver.solve(b.data(), x.data());
      const double t = sw.milliseconds();
      if (ms < 0.0 || t < ms) ms = t;
    }
    if (best_ms < 0.0 || ms < best_ms) {
      best_ms = ms;
      best_w = w;
    }
  }
  return best_w;
}

// ---------------------------------------------------------------------------
// BTCM file codec (local framing + io::crc32, mirroring the .btpa
// conventions).

constexpr char kMagic[4] = {'B', 'T', 'C', 'M'};
constexpr std::uint32_t kEndianMark = 0x01020304u;

template <class V>
void put(std::vector<unsigned char>& buf, V v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(V));
  std::memcpy(buf.data() + at, &v, sizeof(V));
}

template <class V>
bool get(const std::vector<unsigned char>& buf, std::size_t* pos, V* v) {
  if (*pos + sizeof(V) > buf.size()) return false;
  std::memcpy(v, buf.data() + *pos, sizeof(V));
  *pos += sizeof(V);
  return true;
}

void put_cost(std::vector<unsigned char>& buf, const KernelCost& c) {
  put(buf, c.setup_ns);
  put(buf, c.per_row_ns);
  put(buf, c.per_nnz_ns);
  put(buf, c.per_level_ns);
}

bool get_cost(const std::vector<unsigned char>& buf, std::size_t* pos,
              KernelCost* c) {
  return get(buf, pos, &c->setup_ns) && get(buf, pos, &c->per_row_ns) &&
         get(buf, pos, &c->per_nnz_ns) && get(buf, pos, &c->per_level_ns);
}

}  // namespace

std::uint64_t calibration_run_count() {
  return g_calibration_runs.load(std::memory_order_relaxed);
}

double CostModel::predict_tri(TriKernelKind k, index_t rows, offset_t nnz,
                              index_t nlevels) const {
  const KernelCost& c = tri[static_cast<int>(k)];
  return c.setup_ns + c.per_row_ns * static_cast<double>(rows) +
         c.per_nnz_ns * static_cast<double>(nnz) +
         c.per_level_ns * static_cast<double>(nlevels);
}

double CostModel::predict_square(SpmvKernelKind k, index_t stored_rows,
                                 offset_t nnz) const {
  const KernelCost& c = sq[static_cast<int>(k)];
  return c.setup_ns + c.per_row_ns * static_cast<double>(stored_rows) +
         c.per_nnz_ns * static_cast<double>(nnz);
}

std::uint64_t device_fingerprint(const sim::GpuSpec& gpu) {
  const auto f64 = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  std::uint64_t h = 0x6274636d76303101ULL;  // "btcmv01" | fingerprint version
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.num_sms));
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.cores_per_sm));
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.warp_size));
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.max_warps_per_sm));
  h = hash_combine(h, f64(gpu.clock_ghz));
  h = hash_combine(h, f64(gpu.mem_bandwidth_gbps));
  h = hash_combine(h, f64(gpu.fp32_flops_per_core_per_cycle));
  h = hash_combine(h, f64(gpu.fp64_rate));
  h = hash_combine(h, f64(gpu.dram_latency_ns));
  h = hash_combine(h, f64(gpu.cache_hit_latency_ns));
  h = hash_combine(h, f64(gpu.atomic_op_ns));
  h = hash_combine(h, f64(gpu.atomic_rmw_ns));
  h = hash_combine(h, f64(gpu.atomic_propagate_ns));
  h = hash_combine(h, f64(gpu.spin_poll_ns));
  h = hash_combine(h, f64(gpu.kernel_launch_ns));
  h = hash_combine(h, f64(gpu.grid_sync_ns));
  h = hash_combine(h, f64(gpu.warp_start_ns));
  h = hash_combine(h, f64(gpu.divide_ns));
  h = hash_combine(h, f64(gpu.shuffle_reduce_ns));
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.cache_bytes));
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.cache_line_bytes));
  h = hash_combine(h, static_cast<std::uint64_t>(gpu.cache_assoc));
  return h;
}

CostModel calibrate_cost_model(const sim::GpuSpec& gpu) {
  g_calibration_runs.fetch_add(1, std::memory_order_relaxed);
  CostModel m;
  m.device = device_fingerprint(gpu);

  // --- Triangular kernels: synthetic blocks spanning the level-count /
  // row-length axes of Fig. 5a. Sizes are deliberately modest: the samples
  // only need to spread the regressors, and calibration also runs under the
  // sanitizer CI lanes.
  std::vector<TriSample> tri_samples;
  auto add_tri = [&](Csr<double> a) {
    TriSample s;
    const LevelSets ls = compute_level_sets(a);
    s.nlevels = ls.nlevels;
    s.diagonal_only = a.nnz() == static_cast<offset_t>(a.nrows);
    s.a = std::move(a);
    tri_samples.push_back(std::move(s));
  };
  std::uint64_t seed = 0x63616c6962ULL;  // "calib"
  for (index_t n : {256, 1024, 4096}) add_tri(gen::diagonal(n, ++seed));
  for (index_t n : {512, 2048})
    for (index_t lv : {4, 16, 128})
      for (double deg : {2.0, 6.0})
        add_tri(gen::random_levels(n, lv, deg, 1.0, ++seed));
  for (index_t n : {512, 2048}) add_tri(gen::chain_banded(n, 8, 1.0, ++seed));
  add_tri(gen::dense_lower(256, 0.25, ++seed));

  bool flops_ok = true;
  bool fits_ok = true;
  for (int k = 0; k < 4; ++k) {
    const auto kind = static_cast<TriKernelKind>(k);
    std::vector<Sample> obs;
    for (const TriSample& ts : tri_samples) {
      const double ns = measure_tri(kind, ts, gpu, &flops_ok);
      if (ns < 0.0) continue;
      Sample s;
      s.feat[0] = 1.0;
      s.feat[1] = static_cast<double>(ts.a.nrows);
      s.feat[2] = static_cast<double>(ts.a.nnz());
      s.feat[3] = static_cast<double>(ts.nlevels);
      s.ns = ns;
      obs.push_back(s);
    }
    double coeff[4] = {0, 0, 0, 0};
    // The diagonal kernel only ever sees nlevels == 1 blocks; its level term
    // is unidentifiable and folded into setup by the ridge.
    if (obs.empty() || !fit_affine(obs, 4, coeff)) fits_ok = false;
    m.tri[k] = {coeff[0], coeff[1], coeff[2], coeff[3]};
  }

  // --- SpMV kernels: blocks spanning the nnz/row × emptyratio plane of
  // Fig. 5b. stored_rows (the row count a kernel iterates) is the row
  // regressor: all rows for CSR, listed rows for DCSR.
  std::vector<Csr<double>> sq_blocks;
  for (index_t rows : {256, 1024})
    for (double npr : {2.0, 8.0, 24.0})
      for (double er : {0.0, 0.5, 0.9})
        sq_blocks.push_back(make_square_block(rows, npr, er, ++seed));

  for (int k = 0; k < 4; ++k) {
    const auto kind = static_cast<SpmvKernelKind>(k);
    const bool dcsr = kind == SpmvKernelKind::kScalarDcsr ||
                      kind == SpmvKernelKind::kVectorDcsr;
    std::vector<Sample> obs;
    for (const Csr<double>& a : sq_blocks) {
      if (a.nnz() == 0 && dcsr) continue;
      const Dcsr<double> d = csr_to_dcsr(a);
      const double ns = measure_square(kind, a, d, gpu, &flops_ok);
      Sample s;
      s.feat[0] = 1.0;
      s.feat[1] = static_cast<double>(dcsr ? d.nnz_rows() : a.nrows);
      s.feat[2] = static_cast<double>(a.nnz());
      s.ns = ns;
      obs.push_back(s);
    }
    double coeff[4] = {0, 0, 0, 0};
    if (obs.empty() || !fit_affine(obs, 3, coeff)) fits_ok = false;
    m.sq[k] = {coeff[0], coeff[1], coeff[2], 0.0};
  }

  m.preferred_merge_width = pick_merge_width();
  m.valid = flops_ok && fits_ok;
  return m;
}

Status save_cost_model(const std::string& path, const CostModel& m) {
  std::vector<unsigned char> payload;
  put(payload, m.version);
  put(payload, kEndianMark);
  put(payload, m.device);
  put(payload, static_cast<std::int64_t>(m.preferred_merge_width));
  put(payload, static_cast<std::uint32_t>(m.valid ? 1 : 0));
  for (int k = 0; k < 4; ++k) put_cost(payload, m.tri[k]);
  for (int k = 0; k < 4; ++k) put_cost(payload, m.sq[k]);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    return Status(StatusCode::kIoError, "cannot open '" + tmp + "' for write");
  bool ok = std::fwrite(kMagic, 1, 4, f) == 4;
  const std::uint32_t crc = io::crc32(payload.data(), payload.size());
  const auto size = static_cast<std::uint64_t>(payload.size());
  ok = ok && std::fwrite(&crc, sizeof crc, 1, f) == 1;
  ok = ok && std::fwrite(&size, sizeof size, 1, f) == 1;
  ok = ok && std::fwrite(payload.data(), 1, payload.size(), f) ==
                 payload.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kIoError, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kIoError,
                  "cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

Status load_cost_model(const std::string& path, CostModel* out) {
  BLOCKTRI_CHECK(out != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Status(StatusCode::kIoError, "cannot open '" + path + "'");
  char magic[4];
  std::uint32_t crc = 0;
  std::uint64_t size = 0;
  const bool header_ok = std::fread(magic, 1, 4, f) == 4 &&
                         std::fread(&crc, sizeof crc, 1, f) == 1 &&
                         std::fread(&size, sizeof size, 1, f) == 1;
  if (!header_ok) {
    std::fclose(f);
    return Status(StatusCode::kTruncated,
                  "'" + path + "' ends mid-header");
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    std::fclose(f);
    return Status(StatusCode::kBadFormat,
                  "'" + path + "' is not a cost-model file");
  }
  if (size > (1u << 20)) {
    std::fclose(f);
    return Status(StatusCode::kBadFormat,
                  "'" + path + "' declares an implausible payload size");
  }
  std::vector<unsigned char> payload(static_cast<std::size_t>(size));
  const bool body_ok =
      std::fread(payload.data(), 1, payload.size(), f) == payload.size();
  std::fclose(f);
  if (!body_ok)
    return Status(StatusCode::kTruncated, "'" + path + "' ends mid-payload");
  if (io::crc32(payload.data(), payload.size()) != crc)
    return Status(StatusCode::kChecksumMismatch,
                  "cost-model payload CRC mismatch in '" + path + "'");

  CostModel m;
  std::size_t pos = 0;
  std::uint32_t endian = 0, valid = 0;
  std::int64_t mw = 0;
  bool ok = get(payload, &pos, &m.version) && get(payload, &pos, &endian) &&
            get(payload, &pos, &m.device) && get(payload, &pos, &mw) &&
            get(payload, &pos, &valid);
  for (int k = 0; ok && k < 4; ++k) ok = get_cost(payload, &pos, &m.tri[k]);
  for (int k = 0; ok && k < 4; ++k) ok = get_cost(payload, &pos, &m.sq[k]);
  if (!ok)
    return Status(StatusCode::kTruncated, "'" + path + "' payload too short");
  if (endian != kEndianMark)
    return Status(StatusCode::kBadFormat,
                  "'" + path + "' was written on an incompatible platform");
  if (m.version != kCostModelVersion)
    return Status(StatusCode::kVersionMismatch,
                  "cost-model version " + std::to_string(m.version) +
                      " in '" + path + "', expected " +
                      std::to_string(kCostModelVersion));
  if (mw < 0)
    return Status(StatusCode::kBadFormat,
                  "'" + path + "' carries a negative merge width");
  m.preferred_merge_width = static_cast<offset_t>(mw);
  m.valid = valid != 0;
  *out = m;
  return Status::Ok();
}

const CostModel& ensure_cost_model(const sim::GpuSpec& gpu,
                                   const std::string& path) {
  static std::mutex mu;
  // std::map: node-based, so references stay valid across later insertions.
  static std::map<std::uint64_t, CostModel> models;
  const std::uint64_t key = device_fingerprint(gpu);
  std::lock_guard<std::mutex> lock(mu);
  auto it = models.find(key);
  if (it != models.end()) return it->second;

  CostModel m;
  bool loaded = false;
  if (!path.empty()) {
    CostModel disk;
    if (load_cost_model(path, &disk).ok() && disk.device == key) {
      m = disk;
      loaded = true;
    }
  }
  if (!loaded) {
    m = calibrate_cost_model(gpu);
    if (!path.empty()) save_cost_model(path, m);  // best effort
  }
  return models.emplace(key, std::move(m)).first->second;
}

}  // namespace blocktri::tune
