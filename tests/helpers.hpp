// Shared gtest helpers: tolerance-aware vector comparison, dense oracles,
// a registry of small structurally-diverse matrices the solver tests sweep
// over, a field-by-field SolveReport comparison, the byte-wise CRC32
// reference plus the .btpa frame walker that pin the artifact framing, and
// the byte-wise structure-hash reference that pins the artifact/cache key.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "blocktri.hpp"
#include "common/simd.hpp"

namespace blocktri::testing {

/// Max-norm comparison with a tolerance scaled to the value type and the
/// magnitude of the reference.
template <class T>
::testing::AssertionResult VectorsNear(const std::vector<T>& got,
                                       const std::vector<T>& want,
                                       double rel_tol) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size mismatch: " << got.size() << " vs " << want.size();
  double max_ref = 1.0;
  for (const T w : want)
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(w)));
  const double tol = rel_tol * max_ref;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = std::fabs(static_cast<double>(got[i]) -
                               static_cast<double>(want[i]));
    if (!(d <= tol))
      return ::testing::AssertionFailure()
             << "entry " << i << ": got " << static_cast<double>(got[i])
             << ", want " << static_cast<double>(want[i]) << " (|diff| " << d
             << " > tol " << tol << ")";
  }
  return ::testing::AssertionSuccess();
}

template <class T>
constexpr double default_tol() {
  return sizeof(T) == 4 ? 2e-3 : 1e-10;
}

/// Small matrices covering every structural family, for exhaustive solver
/// sweeps. Kept small (n <= ~4000) so the full cross product of solver x
/// matrix x precision runs in seconds.
struct TestMatrix {
  std::string name;
  std::function<Csr<double>()> build;
};

inline std::vector<TestMatrix> test_matrices() {
  using namespace blocktri::gen;
  return {
      {"diag", [] { return diagonal(257, 1); }},
      {"chain", [] { return tridiag_chain(300, 2); }},
      {"chain_banded", [] { return chain_banded(500, 8, 2.0, 3); }},
      {"banded", [] { return banded(800, 16, 3.0, 4); }},
      {"grid2d", [] { return grid2d(40, 25, 5); }},
      {"grid3d", [] { return grid3d(10, 11, 9, 6); }},
      {"powerlaw", [] { return power_law(1200, 2.1, 256, 6.0, 7); }},
      {"rndlevels", [] { return random_levels(1500, 24, 3.0, 1.0, 8); }},
      {"rndlevels_deep", [] { return random_levels(2000, 500, 2.0, 1.0, 9); }},
      {"twolevel", [] { return two_level_kkt(1000, 500, 5.0, 10); }},
      {"kkt", [] { return kkt_structure(1600, 12, 3.0, 11); }},
      {"trace", [] { return trace_network(1800, 9, 1.8, 0.45, 12); }},
      {"dense", [] { return dense_lower(120, 0.3, 13); }},
      {"single", [] { return diagonal(1, 14); }},
      {"tiny", [] { return dense_lower(5, 0.8, 15); }},
  };
}

/// The paper's Figure 1 example: an 8x8 lower triangular matrix with 15
/// nonzeros and four level sets {0,1,6}, {2,3,4}, {5}, {7}.
inline Csr<double> figure1_matrix() {
  // Dependencies (strictly-lower entries) chosen to produce the figure's
  // level structure: rows 0, 1 and 6 are independent; x2, x3, x4 depend on
  // level-0 components; x5 depends on x2; x7 depends on x5 and x6.
  Coo<double> coo;
  coo.nrows = coo.ncols = 8;
  auto put = [&coo](index_t r, index_t c, double v) {
    coo.row.push_back(r);
    coo.col.push_back(c);
    coo.val.push_back(v);
  };
  for (index_t i = 0; i < 8; ++i) put(i, i, 2.0 + i);
  put(2, 0, 1.0);
  put(3, 1, 1.0);
  put(4, 0, 1.0);
  put(5, 2, 1.0);
  put(5, 0, 1.0);
  put(7, 5, 1.0);
  put(7, 6, 1.0);
  return coo_to_csr(coo);
}

/// Byte-at-a-time CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320,
/// one 256-entry table): the plain reference io::crc32 and every stored
/// section CRC are checked against.
inline std::uint32_t reference_crc32(const void* data, std::size_t n) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// The structure hash written out one value at a time from its
/// definition (common/lane_hash.hpp): (nrows, ncols, row_ptr, col_idx),
/// each value widened to 64 bits, value i folded into lane i mod 4 by
/// xxHash64's round, then the lanes merged, the count added and the result
/// avalanched. The plain reference structure_hash is checked against, so a
/// faster implementation can never change a key.
inline std::uint64_t reference_structure_hash(
    index_t nrows, index_t ncols, const std::vector<offset_t>& row_ptr,
    const std::vector<index_t>& col_idx) {
  constexpr std::uint64_t p1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t p2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t p3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t p4 = 0x85EBCA77C2B2AE63ULL;
  const auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  const auto round = [&](std::uint64_t acc, std::uint64_t v) {
    return rotl(acc + v * p2, 31) * p1;
  };
  std::uint64_t lane[4] = {p1 + p2, p2, 0, 0 - p1};
  std::uint64_t count = 0;
  const auto fold = [&](std::uint64_t v) {
    lane[count % 4] = round(lane[count % 4], v);
    ++count;
  };
  fold(static_cast<std::uint64_t>(nrows));
  fold(static_cast<std::uint64_t>(ncols));
  for (const offset_t p : row_ptr) fold(static_cast<std::uint64_t>(p));
  for (const index_t j : col_idx) fold(static_cast<std::uint64_t>(j));
  std::uint64_t h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) +
                    rotl(lane[3], 18);
  for (const std::uint64_t l : lane) h = (h ^ round(0, l)) * p1 + p4;
  h += count;
  h ^= h >> 33;
  h *= p2;
  h ^= h >> 29;
  h *= p3;
  h ^= h >> 32;
  return h;
}

/// Forces a SIMD lowering process-wide for the duration of a scope, so a
/// pool's worker threads run it too.
struct PathGuard {
  explicit PathGuard(simd::Path p) { simd::force_path(p); }
  ~PathGuard() { simd::clear_forced_path(); }
  PathGuard(const PathGuard&) = delete;
  PathGuard& operator=(const PathGuard&) = delete;
};

/// FNV-1a over the bits of a checked solve's solution, then over each
/// report's residual bits and refinement count: what the checked-path known
/// answers pin.
template <class T>
std::uint64_t checked_fnv1a(const std::vector<T>& x,
                            const std::vector<SolveReport>& reports) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  fold(x.data(), x.size() * sizeof(T));
  for (const SolveReport& r : reports) {
    fold(&r.residual, sizeof r.residual);
    fold(&r.refinements, sizeof r.refinements);
  }
  return h;
}

/// Every field of two reports, the residual by its bits.
inline void expect_same_report(const SolveReport& got,
                               const SolveReport& want) {
  EXPECT_EQ(got.residual_checked, want.residual_checked);
  EXPECT_EQ(std::memcmp(&got.residual, &want.residual, sizeof got.residual),
            0)
      << got.residual << " vs " << want.residual;
  EXPECT_EQ(got.tolerance, want.tolerance);
  EXPECT_EQ(got.refinements, want.refinements);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.steps_completed, want.steps_completed);
  EXPECT_EQ(got.steps_total, want.steps_total);
  ASSERT_EQ(got.fallbacks.size(), want.fallbacks.size());
  for (std::size_t i = 0; i < got.fallbacks.size(); ++i) {
    EXPECT_EQ(got.fallbacks[i].block, want.fallbacks[i].block);
    EXPECT_EQ(got.fallbacks[i].from, want.fallbacks[i].from);
    EXPECT_EQ(got.fallbacks[i].to, want.fallbacks[i].to);
  }
  ASSERT_EQ(got.degrades.size(), want.degrades.size());
  for (std::size_t i = 0; i < got.degrades.size(); ++i) {
    EXPECT_EQ(got.degrades[i].kind, want.degrades[i].kind);
    EXPECT_EQ(got.degrades[i].reason, want.degrades[i].reason);
  }
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.levels_executed, want.levels_executed);
  EXPECT_EQ(got.levels_merged, want.levels_merged);
}

inline std::string read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

/// Walks the frames of the .btpa file at `path` (DESIGN.md §10) and checks
/// the framing contract: the header stamps format version 10, every stored
/// section CRC equals reference_crc32 of its payload, the last frame ends
/// exactly at EOF, and save → load → save reproduces the file byte for byte.
/// The square layout (core/plan.hpp, kSquareWindowRows): a square lists
/// only its non-empty rows, each once and inside the square, grouped by
/// global window ascending and by (length, id) inside a window.
template <class T>
::testing::AssertionResult SquareRowsByWindowAndLength(
    const SquareBlockArtifact<T>& q) {
  const Dcsr<T>& d = q.rows;
  if (d.row_ptr.size() != d.row_ids.size() + 1)
    return ::testing::AssertionFailure() << "row pointers do not match ids";
  const auto key = [&](std::size_t p) {
    return std::make_tuple((q.ref.r0 + d.row_ids[p]) / kSquareWindowRows,
                           d.row_ptr[p + 1] - d.row_ptr[p], d.row_ids[p]);
  };
  for (std::size_t p = 0; p < d.row_ids.size(); ++p) {
    if (d.row_ids[p] < 0 || d.row_ids[p] >= d.nrows)
      return ::testing::AssertionFailure()
             << "listed row " << p << " has id " << d.row_ids[p];
    if (d.row_ptr[p + 1] == d.row_ptr[p])
      return ::testing::AssertionFailure()
             << "listed row " << p << " (id " << d.row_ids[p] << ") is empty";
    // Strictly ascending keys: window order, length order, no id twice.
    if (p > 0 && !(key(p - 1) < key(p)))
      return ::testing::AssertionFailure()
             << "listed rows " << p - 1 << " and " << p << " (ids "
             << d.row_ids[p - 1] << ", " << d.row_ids[p]
             << ") are out of (window, length, id) order";
  }
  return ::testing::AssertionSuccess();
}

template <class T>
::testing::AssertionResult ArtifactFramingHolds(const std::string& path) {
  const std::string bytes = read_file_bytes(path);
  // magic, version, endian tag, value width (4 each), structure hash,
  // options fingerprint, n, nnz (8 each), section count (4).
  constexpr std::size_t kHeaderBytes = 52;
  constexpr std::size_t kFrameBytes = 16;  // id u32, size u64, CRC u32
  if (bytes.size() < kHeaderBytes)
    return ::testing::AssertionFailure()
           << path << ": " << bytes.size() << " bytes, shorter than a header";
  std::uint32_t version = 0, nsections = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  if (version != 10)
    return ::testing::AssertionFailure()
           << path << " stamps format version " << version << ", not 10";
  std::memcpy(&nsections, bytes.data() + kHeaderBytes - 4, 4);
  std::size_t off = kHeaderBytes;
  for (std::uint32_t s = 0; s < nsections; ++s) {
    if (bytes.size() - off < kFrameBytes)
      return ::testing::AssertionFailure()
             << "frame " << s << " header runs past EOF at " << off;
    std::uint32_t id = 0, crc = 0;
    std::uint64_t size = 0;
    std::memcpy(&id, bytes.data() + off, 4);
    std::memcpy(&size, bytes.data() + off + 4, 8);
    std::memcpy(&crc, bytes.data() + off + 12, 4);
    off += kFrameBytes;
    if (size > bytes.size() - off)
      return ::testing::AssertionFailure()
             << "section " << id << " payload runs past EOF at " << off;
    if (reference_crc32(bytes.data() + off, size) != crc)
      return ::testing::AssertionFailure()
             << "section " << id << " stores CRC " << crc
             << ", its payload's reference CRC differs";
    off += size;
  }
  if (off != bytes.size())
    return ::testing::AssertionFailure()
           << "last frame ends at byte " << off << " of " << bytes.size();

  PlanArtifact<T> art;
  if (Status st = load_artifact(path, &art); !st.ok())
    return ::testing::AssertionFailure() << "load: " << st.to_string();
  const std::string again = path + ".resaved";
  const Status st = save_artifact(again, art);
  const std::string resaved = read_file_bytes(again);
  std::remove(again.c_str());
  if (!st.ok())
    return ::testing::AssertionFailure() << "re-save: " << st.to_string();
  if (resaved != bytes)
    return ::testing::AssertionFailure()
           << "save -> load -> save changed the file (" << bytes.size()
           << " -> " << resaved.size() << " bytes)";
  return ::testing::AssertionSuccess();
}

}  // namespace blocktri::testing
