#include "tune/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "model/replay.hpp"

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
// Simulated measurements: the model replay solve_simulated and the plan
// search's oracle run (model/replay.hpp) — fresh cache per kernel-kind
// measurement, one warm pass, then the measured pass — so the model predicts
// exactly the quantity the oracle (and the fig6 bench) scores. Each sample's
// structural views are built once and shared by every kind.

struct TriSample {
  Csr<double> a;
  model::TriStructure structure;
  bool diagonal_only = false;
};

/// Simulated ns of solving `s.a` with kernel `kind`; also flop-checks the
/// measured report against the collect_stats accounting (2·nnz per block).
/// Returns a negative value when the kernel is inapplicable.
double measure_tri(TriKernelKind kind, const TriSample& s,
                   const sim::GpuSpec& gpu, bool* flops_ok) {
  if (kind == TriKernelKind::kCompletelyParallel && !s.diagonal_only)
    return -1.0;
  model::Step step;
  step.tri = s.structure.view();
  step.tri_kind = kind;
  const sim::SolveReport rep =
      model::replay_warm({&step, 1}, s.a.nrows, gpu, true, 8);
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

/// One SpMV calibration block with its CSR and DCSR views.
struct SquareSample {
  Csr<double> a;
  model::SquareView csr, dcsr;
};

/// Simulated ns of one y ← y − A·x launch with kernel `kind` (launch
/// overhead included — this is the quantity solve_simulated charges per
/// square step).
double measure_square(SpmvKernelKind kind, const SquareSample& s,
                      const sim::GpuSpec& gpu, bool* flops_ok) {
  model::Step step;
  step.square = is_dcsr(kind) ? &s.dcsr : &s.csr;
  step.square_kind = kind;
  const sim::SolveReport rep =
      model::replay_warm({&step, 1}, s.a.nrows, gpu, true, 8);
  if (rep.flops != 2 * s.a.nnz()) *flops_ok = false;
  return rep.ns;
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
    s.structure = model::tri_structure(a);
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
      s.feat[3] = static_cast<double>(ts.structure.levels.nlevels);
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
  std::vector<SquareSample> sq_samples;
  for (index_t rows : {256, 1024})
    for (double npr : {2.0, 8.0, 24.0})
      for (double er : {0.0, 0.5, 0.9}) {
        SquareSample s;
        s.a = make_square_block(rows, npr, er, ++seed);
        s.csr = model::square_view(SpmvKernelKind::kScalarCsr, s.a);
        s.dcsr = model::square_view(SpmvKernelKind::kScalarDcsr, s.a);
        sq_samples.push_back(std::move(s));
      }

  for (int k = 0; k < 4; ++k) {
    const auto kind = static_cast<SpmvKernelKind>(k);
    const bool dcsr = is_dcsr(kind);
    std::vector<Sample> obs;
    for (const SquareSample& sq : sq_samples) {
      if (sq.a.nnz() == 0 && dcsr) continue;
      const double ns = measure_square(kind, sq, gpu, &flops_ok);
      Sample s;
      s.feat[0] = 1.0;
      s.feat[1] = static_cast<double>(dcsr ? sq.dcsr.row_ids.size()
                                           : static_cast<std::size_t>(
                                                 sq.a.nrows));
      s.feat[2] = static_cast<double>(sq.a.nnz());
      s.ns = ns;
      obs.push_back(s);
    }
    double coeff[4] = {0, 0, 0, 0};
    if (obs.empty() || !fit_affine(obs, 3, coeff)) fits_ok = false;
    m.sq[k] = {coeff[0], coeff[1], coeff[2], 0.0};
  }

  m.valid = flops_ok && fits_ok;
  return m;
}

Status save_cost_model(const std::string& path, const CostModel& m) {
  std::vector<unsigned char> payload;
  put(payload, m.version);
  put(payload, kEndianMark);
  put(payload, m.device);
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
  bool ok = get(payload, &pos, &m.version) && get(payload, &pos, &endian) &&
            get(payload, &pos, &m.device) && get(payload, &pos, &valid);
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
