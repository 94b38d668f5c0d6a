#include "persist/artifact.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <new>
#include <type_traits>

#include "common/io.hpp"
#include "common/prefix.hpp"

namespace blocktri {

namespace {

// CRC32 shared with the framed-I/O layer (one table for the whole repo).
using io::crc32;

// --- Byte-buffer writer/reader --------------------------------------------
//
// Scalars and vectors of trivially-copyable scalar types are written in the
// host's native byte order; the header's endianness tag lets a
// foreign-endian reader reject the file instead of misreading it. Structs
// are always encoded field by field (never memcpy'd) so padding and enum
// representation cannot leak into the format.

class Writer {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  template <class V>
  void vec(const std::vector<V>& v) {
    static_assert(std::is_arithmetic_v<V>, "field-encode structs explicitly");
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * sizeof(V));
  }

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  const std::vector<unsigned char>& bytes() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader over a byte span. The first failed read latches a
/// kTruncated status carrying the absolute byte offset; later reads become
/// no-ops so decode functions can check once at the end.
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size, std::size_t base)
      : data_(data), size_(size), base_(base) {}

  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool i32(std::int32_t* v) { return raw(v, sizeof *v); }
  bool i64(std::int64_t* v) { return raw(v, sizeof *v); }
  bool f64(double* v) { return raw(v, sizeof *v); }

  template <class V>
  bool vec(std::vector<V>* out) {
    static_assert(std::is_arithmetic_v<V>, "field-decode structs explicitly");
    std::uint64_t count = 0;
    if (!u64(&count)) return false;
    if (count > (size_ - pos_) / sizeof(V)) return fail();
    out->resize(static_cast<std::size_t>(count));
    if (count != 0) return raw(out->data(), out->size() * sizeof(V));
    return true;
  }

  bool raw(void* p, std::size_t n) {
    if (n > size_ - pos_) return fail();
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Guards resize() of struct vectors: a legitimate count of items, each at
  /// least `min_item` encoded bytes, cannot exceed the remaining payload —
  /// anything bigger is corruption and must not reach the allocator.
  bool count_ok(std::uint64_t count, std::size_t min_item) {
    if (count > (size_ - pos_) / min_item) return fail();
    return true;
  }

  bool done() const { return pos_ == size_; }
  std::size_t offset() const { return base_ + pos_; }
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  /// Latches a kBadFormat status for a value that decoded cleanly but is
  /// not a legal encoding (e.g. an out-of-range enum), then poisons the
  /// reader like fail(). Always returns false so decoders can `return
  /// r.corrupt(...)`.
  bool corrupt(const std::string& what) {
    if (status_.ok())
      status_ = Status(StatusCode::kBadFormat, "artifact invalid: " + what);
    pos_ = size_;
    return false;
  }

 private:
  bool fail() {
    if (status_.ok())
      status_ = Status(StatusCode::kTruncated,
                       "artifact ends before the encoded data does",
                       static_cast<std::int64_t>(base_ + pos_));
    pos_ = size_;  // poison: every later read fails too
    return false;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t base_;
  std::size_t pos_ = 0;
  Status status_;
};

// --- Field-by-field codecs for the composite types ------------------------

template <class T>
void put_csr(Writer& w, const Csr<T>& a) {
  w.i32(a.nrows);
  w.i32(a.ncols);
  w.vec(a.row_ptr);
  w.vec(a.col_idx);
  w.vec(a.val);
}

template <class T>
bool get_csr(Reader& r, Csr<T>* a) {
  return r.i32(&a->nrows) && r.i32(&a->ncols) && r.vec(&a->row_ptr) &&
         r.vec(&a->col_idx) && r.vec(&a->val);
}

template <class T>
void put_dcsr(Writer& w, const Dcsr<T>& a) {
  w.i32(a.nrows);
  w.i32(a.ncols);
  w.vec(a.row_ids);
  w.vec(a.row_ptr);
  w.vec(a.col_idx);
  w.vec(a.val);
}

template <class T>
bool get_dcsr(Reader& r, Dcsr<T>* a) {
  return r.i32(&a->nrows) && r.i32(&a->ncols) && r.vec(&a->row_ids) &&
         r.vec(&a->row_ptr) && r.vec(&a->col_idx) && r.vec(&a->val);
}

void put_levels(Writer& w, const LevelSets& ls) {
  w.i32(ls.nlevels);
  w.vec(ls.level_of);
  w.vec(ls.level_ptr);
  w.vec(ls.level_item);
}

bool get_levels(Reader& r, LevelSets* ls) {
  return r.i32(&ls->nlevels) && r.vec(&ls->level_of) &&
         r.vec(&ls->level_ptr) && r.vec(&ls->level_item);
}

// --- Section payloads ------------------------------------------------------

// Id 2 is retired: through format 5 it held a copy of the permuted matrix.
enum : std::uint32_t {
  kSectionPlan = 1,
  kSectionTri = 3,
  kSectionSquares = 4,
  kSectionTuning = 5,  // optional (tuned plans only)
  // Id 6 is retired: through format 8 it held a shard slice's record.
  kSectionColor = 7,   // optional (HBMC plans only)
  kSectionValueMap = 8,
};

template <class T>
void encode_plan(Writer& w, const PlanArtifact<T>& art) {
  const BlockPlan& p = art.plan;
  w.u32(static_cast<std::uint32_t>(p.scheme));
  w.i32(p.n);
  w.vec(p.new_of_old);
  w.vec(p.tri_bounds);
  w.u64(p.squares.size());
  for (const SquareBlockRef& s : p.squares) {
    w.i32(s.r0);
    w.i32(s.r1);
    w.i32(s.c0);
    w.i32(s.c1);
  }
  w.u64(p.steps.size());
  for (const ExecStep& s : p.steps) {
    w.u32(static_cast<std::uint32_t>(s.kind));
    w.i32(s.index);
  }
  w.i32(p.depth_used);
  w.i64(p.host_ops);
  w.i64(p.host_bytes);

  w.u64(art.waves.size());
  for (const std::vector<ExecStep>& wave : art.waves) {
    w.u64(wave.size());
    for (const ExecStep& s : wave) {
      w.u32(static_cast<std::uint32_t>(s.kind));
      w.i32(s.index);
    }
  }
  w.i64(art.nnz);
  w.i64(art.build_ops);
  w.i64(art.build_bytes);
  w.f64(art.norm_inf);
}

// Enums are encoded as u32; anything beyond the last enumerator is a
// corrupt file, rejected at decode so a bogus value can never reach an
// executor switch (whose default paths only fire on programmer error).

bool get_step(Reader& r, ExecStep* s) {
  std::uint32_t kind = 0;
  if (!r.u32(&kind) || !r.i32(&s->index)) return false;
  if (kind > static_cast<std::uint32_t>(ExecStep::Kind::kSquare))
    return r.corrupt("execution step kind out of range");
  s->kind = static_cast<ExecStep::Kind>(kind);
  return true;
}

template <class T>
bool decode_plan(Reader& r, PlanArtifact<T>* art) {
  BlockPlan& p = art->plan;
  std::uint32_t scheme = 0;
  if (!r.u32(&scheme)) return false;
  if (scheme > static_cast<std::uint32_t>(BlockScheme::kHbmc))
    return r.corrupt("block scheme out of range");
  p.scheme = static_cast<BlockScheme>(scheme);
  if (!r.i32(&p.n) || !r.vec(&p.new_of_old) || !r.vec(&p.tri_bounds))
    return false;
  std::uint64_t count = 0;
  if (!r.u64(&count) || !r.count_ok(count, 16)) return false;
  p.squares.resize(static_cast<std::size_t>(count));
  for (SquareBlockRef& s : p.squares)
    if (!r.i32(&s.r0) || !r.i32(&s.r1) || !r.i32(&s.c0) || !r.i32(&s.c1))
      return false;
  if (!r.u64(&count) || !r.count_ok(count, 8)) return false;
  p.steps.resize(static_cast<std::size_t>(count));
  for (ExecStep& s : p.steps)
    if (!get_step(r, &s)) return false;
  if (!r.i32(&p.depth_used) || !r.i64(&p.host_ops) || !r.i64(&p.host_bytes))
    return false;

  if (!r.u64(&count) || !r.count_ok(count, 8)) return false;
  art->waves.resize(static_cast<std::size_t>(count));
  for (std::vector<ExecStep>& wave : art->waves) {
    std::uint64_t len = 0;
    if (!r.u64(&len) || !r.count_ok(len, 8)) return false;
    wave.resize(static_cast<std::size_t>(len));
    for (ExecStep& s : wave)
      if (!get_step(r, &s)) return false;
  }
  return r.i64(&art->nnz) && r.i64(&art->build_ops) &&
         r.i64(&art->build_bytes) && r.f64(&art->norm_inf);
}

template <class T>
void encode_tri(Writer& w, const PlanArtifact<T>& art) {
  w.u64(art.tri.size());
  for (const TriBlockArtifact<T>& t : art.tri) {
    w.i32(t.r0);
    w.i32(t.r1);
    w.u32(static_cast<std::uint32_t>(t.kind));
    w.i32(t.nlevels);
    w.i64(t.nnz);
    switch (t.kind) {
      case TriKernelKind::kCompletelyParallel:
        w.vec(t.diag);
        break;
      case TriKernelKind::kLevelSet:
        put_csr(w, t.kernel_csr);
        put_levels(w, t.levels);
        break;
      case TriKernelKind::kSyncFree:
        put_csr(w, t.kernel_csr);
        break;
      case TriKernelKind::kCusparseLike:
        put_csr(w, t.kernel_csr);
        put_levels(w, t.levels);
        break;
    }
  }
}

template <class T>
bool decode_tri(Reader& r, PlanArtifact<T>* art) {
  std::uint64_t count = 0;
  if (!r.u64(&count) || !r.count_ok(count, 20)) return false;
  art->tri.resize(static_cast<std::size_t>(count));
  for (TriBlockArtifact<T>& t : art->tri) {
    std::uint32_t kind = 0;
    if (!r.i32(&t.r0) || !r.i32(&t.r1) || !r.u32(&kind) ||
        !r.i32(&t.nlevels) || !r.i64(&t.nnz))
      return false;
    if (kind > static_cast<std::uint32_t>(TriKernelKind::kCusparseLike))
      return r.corrupt("triangular kernel kind out of range");
    t.kind = static_cast<TriKernelKind>(kind);
    switch (t.kind) {
      case TriKernelKind::kCompletelyParallel:
        if (!r.vec(&t.diag)) return false;
        break;
      case TriKernelKind::kLevelSet:
        if (!get_csr(r, &t.kernel_csr) || !get_levels(r, &t.levels))
          return false;
        break;
      case TriKernelKind::kSyncFree:
        if (!get_csr(r, &t.kernel_csr)) return false;
        break;
      case TriKernelKind::kCusparseLike:
        if (!get_csr(r, &t.kernel_csr) || !get_levels(r, &t.levels))
          return false;
        break;
    }
  }
  return true;
}

template <class T>
void encode_squares(Writer& w, const PlanArtifact<T>& art) {
  w.u64(art.squares.size());
  for (const SquareBlockArtifact<T>& q : art.squares) {
    w.i32(q.ref.r0);
    w.i32(q.ref.r1);
    w.i32(q.ref.c0);
    w.i32(q.ref.c1);
    w.u32(static_cast<std::uint32_t>(q.kind));
    w.i64(q.nnz);
    w.f64(q.empty_ratio);
    put_dcsr(w, q.rows);
  }
}

template <class T>
bool decode_squares(Reader& r, PlanArtifact<T>* art) {
  std::uint64_t count = 0;
  if (!r.u64(&count) || !r.count_ok(count, 36)) return false;
  art->squares.resize(static_cast<std::size_t>(count));
  for (SquareBlockArtifact<T>& q : art->squares) {
    std::uint32_t kind = 0;
    if (!r.i32(&q.ref.r0) || !r.i32(&q.ref.r1) || !r.i32(&q.ref.c0) ||
        !r.i32(&q.ref.c1) || !r.u32(&kind) || !r.i64(&q.nnz) ||
        !r.f64(&q.empty_ratio))
      return false;
    if (kind > static_cast<std::uint32_t>(SpmvKernelKind::kVectorDcsr))
      return r.corrupt("square kernel kind out of range");
    q.kind = static_cast<SpmvKernelKind>(kind);
    if (!get_dcsr(r, &q.rows)) return false;
  }
  return true;
}

template <class T>
void encode_tuning(Writer& w, const PlanArtifact<T>& art) {
  w.u32(art.tuned ? 1 : 0);
  w.i64(static_cast<std::int64_t>(art.merge_width));
  w.u32(art.tune_fell_back ? 1 : 0);
  w.u64(art.tune_device);
  w.f64(art.oracle_default_ns);
  w.f64(art.oracle_tuned_ns);
}

template <class T>
bool decode_tuning(Reader& r, PlanArtifact<T>* art) {
  std::uint32_t tuned = 0, fell_back = 0;
  std::int64_t merge_width = 0;
  if (!r.u32(&tuned) || !r.i64(&merge_width) || !r.u32(&fell_back) ||
      !r.u64(&art->tune_device) || !r.f64(&art->oracle_default_ns) ||
      !r.f64(&art->oracle_tuned_ns))
    return false;
  if (merge_width < 1)
    return r.corrupt("tuning section carries a non-positive merge width");
  art->tuned = tuned != 0;
  art->tune_fell_back = fell_back != 0;
  art->merge_width = static_cast<offset_t>(merge_width);
  return true;
}

template <class T>
void encode_value_map(Writer& w, const PlanArtifact<T>& art) {
  w.u32(art.value_map.width);
  w.vec(art.value_map.bytes);
}

template <class T>
bool decode_value_map(Reader& r, PlanArtifact<T>* art) {
  ValueMap& m = art->value_map;
  if (!r.u32(&m.width) || !r.vec(&m.bytes)) return false;
  if (m.width != 1 && m.width != 2 && m.width != 4)
    return r.corrupt("value map entry width is not 1, 2 or 4 bytes");
  return true;
}

/// HBMC color record (DESIGN.md §16). The fields live inside the BlockPlan;
/// they get their own optional section, so kSectionPlan is the same for
/// every scheme.
template <class T>
void encode_color(Writer& w, const PlanArtifact<T>& art) {
  w.vec(art.plan.color_bounds);
  w.i32(art.plan.hbmc_block_rows);
}

template <class T>
bool decode_color(Reader& r, PlanArtifact<T>* art) {
  if (!r.vec(&art->plan.color_bounds) || !r.i32(&art->plan.hbmc_block_rows))
    return false;
  if (art->plan.color_bounds.empty())
    return r.corrupt("color section carries no color bounds");
  if (art->plan.hbmc_block_rows < 1)
    return r.corrupt("color section carries a non-positive block size");
  return true;
}

// --- File framing -----------------------------------------------------------

constexpr char kMagic[4] = {'B', 'T', 'P', 'A'};
constexpr std::uint32_t kEndianTag = 0x01020304u;

/// This writer's own side file next to `path`, `<path>.tmp.<pid>.<seq>`:
/// the rename out of it stays within one directory (so it is atomic), and
/// concurrent writers to one path never share it. The destructor closes it
/// and, unless commit() renamed it into place, removes it, so no failure
/// path leaves one behind.
class SideFile {
 public:
  explicit SideFile(const std::string& path)
      : name_(path + ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(next_seq_.fetch_add(
                  1, std::memory_order_relaxed))),
        f_(std::fopen(name_.c_str(), "wb")) {}
  SideFile(const SideFile&) = delete;
  SideFile& operator=(const SideFile&) = delete;
  ~SideFile() {
    if (f_ != nullptr) std::fclose(f_);
    if (!committed_) std::remove(name_.c_str());
  }

  const std::string& name() const { return name_; }
  bool is_open() const { return f_ != nullptr; }

  bool write(const std::vector<unsigned char>& b) {
    return std::fwrite(b.data(), 1, b.size(), f_) == b.size();
  }

  /// Flushes and closes the file, then renames it onto `path`.
  Status commit(const std::string& path) {
    const bool closed = std::fclose(f_) == 0;
    f_ = nullptr;
    if (!closed)
      return Status(StatusCode::kBadFormat, "short write to '" + name_ + "'");
    if (std::rename(name_.c_str(), path.c_str()) != 0)
      return Status(StatusCode::kBadFormat,
                    "cannot rename '" + name_ + "' to '" + path + "'");
    committed_ = true;
    return Status::Ok();
  }

 private:
  static inline std::atomic<std::uint64_t> next_seq_{0};
  std::string name_;
  std::FILE* f_;
  bool committed_ = false;
};

/// Reads all of `path`. A regular file is sized once from fstat and read
/// with one fread; anything else (a directory, pipe or device, whose
/// st_size means nothing) — and a file that grew since the fstat — goes on
/// in 64 KiB chunks until EOF. A read error is kIoError, never kTruncated:
/// fread stops on both, and a read error says nothing about the file's
/// bytes.
Status read_file(const std::string& path, std::vector<unsigned char>* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    return Status(StatusCode::kBadFormat, "cannot open '" + path + "'");
  struct stat st {};
  std::size_t got = 0;
  try {
    if (::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode)) {
      bytes->resize(static_cast<std::size_t>(st.st_size));
      got = std::fread(bytes->data(), 1, bytes->size(), f);
    }
    if (got == bytes->size()) {
      unsigned char chunk[1 << 16];
      std::size_t n = 0;
      while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        bytes->insert(bytes->end(), chunk, chunk + n);
        got += n;
      }
    }
  } catch (const std::bad_alloc&) {
    std::fclose(f);
    return Status(StatusCode::kIoError,
                  "out of memory reading '" + path + "'");
  }
  bytes->resize(got);
  const bool io_error = std::ferror(f) != 0;
  std::fclose(f);
  if (io_error)
    return Status(StatusCode::kIoError,
                  "read error while loading '" + path + "'");
  return Status::Ok();
}

template <class T>
std::size_t csr_bytes(const Csr<T>& a) {
  return a.row_ptr.size() * sizeof(offset_t) +
         a.col_idx.size() * sizeof(index_t) + a.val.size() * sizeof(T);
}

}  // namespace

template <class T>
std::size_t artifact_bytes(const PlanArtifact<T>& art) {
  std::size_t b = sizeof(PlanArtifact<T>);
  b += art.plan.new_of_old.size() * sizeof(index_t);
  b += art.plan.tri_bounds.size() * sizeof(index_t);
  b += art.plan.squares.size() * sizeof(SquareBlockRef);
  b += art.plan.steps.size() * sizeof(ExecStep);
  for (const auto& wave : art.waves) b += wave.size() * sizeof(ExecStep);
  for (const TriBlockArtifact<T>& t : art.tri) {
    b += sizeof(TriBlockArtifact<T>);
    b += csr_bytes(t.kernel_csr);
    b += t.diag.size() * sizeof(T);
    b += t.levels.level_of.size() * sizeof(index_t) +
         t.levels.level_ptr.size() * sizeof(offset_t) +
         t.levels.level_item.size() * sizeof(index_t);
  }
  for (const SquareBlockArtifact<T>& q : art.squares) {
    b += sizeof(SquareBlockArtifact<T>);
    b += (q.rows.row_ids.size() + q.rows.col_idx.size()) * sizeof(index_t) +
         q.rows.row_ptr.size() * sizeof(offset_t) +
         q.rows.val.size() * sizeof(T);
  }
  b += art.value_map.bytes.size();
  return b;
}

template <class T>
Status save_artifact(const std::string& path, const PlanArtifact<T>& art) {
  if (Status st = validate_artifact(art); !st.ok()) return st;

  const bool color = !art.plan.color_bounds.empty();
  Writer header;
  header.raw(kMagic, sizeof kMagic);
  header.u32(kArtifactFormatVersion);
  header.u32(kEndianTag);
  header.u32(static_cast<std::uint32_t>(sizeof(T)));
  header.u64(art.structure);
  header.u64(art.options);
  header.i64(static_cast<std::int64_t>(art.plan.n));
  header.i64(static_cast<std::int64_t>(art.nnz));
  header.u32(4u + (art.tuned ? 1u : 0u) + (color ? 1u : 0u));

  // Stream the header, then each section's frame (id, size, CRC32) and
  // payload, into this writer's own side file; only one encoded section is
  // in memory at a time. The side file is renamed into place at the end,
  // so a crashed writer leaves either the old artifact or none — never a
  // truncated new one — and concurrent writers each publish a whole file
  // (the last rename wins).
  SideFile tmp(path);
  if (!tmp.is_open())
    return Status(StatusCode::kBadFormat,
                  "cannot open '" + tmp.name() + "' for writing");
  bool wrote = tmp.write(header.bytes());
  const auto section = [&](std::uint32_t id,
                           void (*encode)(Writer&, const PlanArtifact<T>&)) {
    if (!wrote) return;
    Writer payload;
    encode(payload, art);
    const std::vector<unsigned char>& bytes = payload.bytes();
    Writer frame;
    frame.u32(id);
    frame.u64(bytes.size());
    frame.u32(crc32(bytes.data(), bytes.size()));
    wrote = tmp.write(frame.bytes()) && tmp.write(bytes);
  };
  section(kSectionPlan, encode_plan<T>);
  section(kSectionTri, encode_tri<T>);
  section(kSectionSquares, encode_squares<T>);
  section(kSectionValueMap, encode_value_map<T>);
  if (art.tuned) section(kSectionTuning, encode_tuning<T>);
  if (color) section(kSectionColor, encode_color<T>);
  if (!wrote)
    return Status(StatusCode::kBadFormat, "short write to '" + tmp.name() + "'");
  return tmp.commit(path);
}

namespace persist_testing {

namespace {
std::atomic<int> g_forced_io_failures{0};
std::atomic<std::uint64_t> g_validations{0};
}  // namespace

void force_io_failures(int n) {
  g_forced_io_failures.store(n, std::memory_order_relaxed);
}

int pending_io_failures() {
  return g_forced_io_failures.load(std::memory_order_relaxed);
}

std::uint64_t validation_count() {
  return g_validations.load(std::memory_order_relaxed);
}

}  // namespace persist_testing

template <class T>
Status load_artifact(const std::string& path, PlanArtifact<T>* out) {
  BLOCKTRI_CHECK(out != nullptr);
  // Transient-I/O fault hook: each armed failure consumes one load attempt,
  // so tests can prove the retry-with-backoff path end to end.
  for (int n = persist_testing::g_forced_io_failures.load(
           std::memory_order_relaxed);
       n > 0;) {
    if (persist_testing::g_forced_io_failures.compare_exchange_weak(
            n, n - 1, std::memory_order_relaxed))
      return Status(StatusCode::kIoError,
                    "injected transient read failure loading '" + path + "'");
  }
  std::vector<unsigned char> bytes;
  if (Status st = read_file(path, &bytes); !st.ok()) return st;

  Reader header(bytes.data(), bytes.size(), 0);
  char magic[4] = {};
  std::uint32_t version = 0, endian = 0, width = 0, nsections = 0;
  PlanArtifact<T> art;
  std::int64_t n_header = 0, nnz_header = 0;
  if (!header.raw(magic, sizeof magic)) return header.status();
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    return Status(StatusCode::kBadFormat,
                  "'" + path + "' is not a blocktri plan artifact (bad magic)");
  if (!header.u32(&version)) return header.status();
  if (version != kArtifactFormatVersion)
    return Status(StatusCode::kVersionMismatch,
                  "artifact format version " + std::to_string(version) +
                      ", this build reads only version " +
                      std::to_string(kArtifactFormatVersion));
  if (!header.u32(&endian)) return header.status();
  if (endian != kEndianTag)
    return Status(StatusCode::kBadFormat,
                  "artifact written on a foreign-endian host");
  if (!header.u32(&width)) return header.status();
  if (width != sizeof(T))
    return Status(StatusCode::kBadFormat,
                  "artifact holds " + std::to_string(width * 8) +
                      "-bit values, loader expects " +
                      std::to_string(sizeof(T) * 8) + "-bit");
  if (!header.u64(&art.structure) || !header.u64(&art.options) ||
      !header.i64(&n_header) || !header.i64(&nnz_header) ||
      !header.u32(&nsections))
    return header.status();

  std::size_t offset = header.offset();
  bool have[kSectionValueMap + 1] = {};
  for (std::uint32_t s = 0; s < nsections; ++s) {
    Reader frame(bytes.data() + offset, bytes.size() - offset, offset);
    std::uint32_t id = 0, crc = 0;
    std::uint64_t size = 0;
    if (!frame.u32(&id) || !frame.u64(&size) || !frame.u32(&crc))
      return frame.status();
    const std::size_t payload_off = frame.offset();
    if (size > bytes.size() - payload_off)
      return Status(StatusCode::kTruncated,
                    "section " + std::to_string(id) + " claims " +
                        std::to_string(size) + " bytes past end of file",
                    static_cast<std::int64_t>(payload_off));
    const unsigned char* payload = bytes.data() + payload_off;
    if (crc32(payload, static_cast<std::size_t>(size)) != crc)
      return Status(StatusCode::kChecksumMismatch,
                    "section " + std::to_string(id) +
                        " payload does not match its CRC32",
                    static_cast<std::int64_t>(payload_off));
    Reader r(payload, static_cast<std::size_t>(size), payload_off);
    bool ok = false;
    switch (id) {
      case kSectionPlan: ok = decode_plan(r, &art); break;
      case kSectionTri: ok = decode_tri(r, &art); break;
      case kSectionSquares: ok = decode_squares(r, &art); break;
      case kSectionTuning: ok = decode_tuning(r, &art); break;
      case kSectionColor: ok = decode_color(r, &art); break;
      case kSectionValueMap: ok = decode_value_map(r, &art); break;
      default:
        return Status(StatusCode::kBadFormat,
                      "unknown artifact section id " + std::to_string(id));
    }
    if (!ok || !r.done())
      return r.ok() ? Status(StatusCode::kBadFormat,
                             "section " + std::to_string(id) +
                                 " has trailing or missing bytes")
                    : r.status();
    if (id <= kSectionValueMap) have[id] = true;
    offset = payload_off + static_cast<std::size_t>(size);
  }
  if (offset != bytes.size())
    return Status(StatusCode::kBadFormat,
                  std::to_string(bytes.size() - offset) +
                      " trailing bytes after the last section of '" + path +
                      "'",
                  static_cast<std::int64_t>(offset), LocationKind::kByte);
  for (std::uint32_t id : {kSectionPlan, kSectionTri, kSectionSquares})
    if (!have[id])
      return Status(StatusCode::kTruncated,
                    "artifact is missing section " + std::to_string(id),
                    static_cast<std::int64_t>(offset));

  if (art.plan.n != static_cast<index_t>(n_header) || art.nnz != nnz_header)
    return Status(StatusCode::kBadFormat,
                  "artifact header (n, nnz) disagrees with the plan section");
  if (Status st = validate_artifact(art); !st.ok()) return st;
  *out = std::move(art);
  return Status::Ok();
}

namespace {
Status bad(const std::string& what) {
  return Status(StatusCode::kBadFormat, "artifact invalid: " + what);
}

// The executors index with artifact contents unchecked (permute_vector
// writes out[new_of_old[i]], spmv writes y[row_ids[r]], kernels read
// x[col_idx[k]]), so validation must prove every stored index in-bounds —
// a CRC-valid but crafted file has to be rejected here, not crash later.

bool indices_in_range(const std::vector<index_t>& idx, index_t limit) {
  for (const index_t v : idx)
    if (v < 0 || v >= limit) return false;
  return true;
}

/// front == 0, monotonically non-decreasing, back == nnz — the shape every
/// compressed pointer array (row_ptr / col_ptr / level_ptr) must have for
/// `ptr[i]..ptr[i+1]` loops to stay inside the payload arrays.
bool ptr_consistent(const std::vector<offset_t>& ptr, std::size_t nnz) {
  if (ptr.empty() || ptr.front() != 0 ||
      ptr.back() != static_cast<offset_t>(nnz))
    return false;
  for (std::size_t i = 1; i < ptr.size(); ++i)
    if (ptr[i] < ptr[i - 1]) return false;
  return true;
}

template <class T>
Status check_csr_shape(const Csr<T>& a, index_t nrows, index_t ncols,
                       const char* what) {
  if (a.nrows != nrows || a.ncols != ncols ||
      a.row_ptr.size() != static_cast<std::size_t>(nrows) + 1 ||
      a.col_idx.size() != a.val.size())
    return bad(std::string(what) + " CSR shape is inconsistent");
  if (!ptr_consistent(a.row_ptr, a.val.size()))
    return bad(std::string(what) + " CSR pointers are inconsistent");
  if (!indices_in_range(a.col_idx, ncols))
    return bad(std::string(what) + " CSR column index out of range");
  return Status::Ok();
}

/// A triangular kernel CSR additionally needs every row non-empty with the
/// diagonal as its last entry and nothing above the diagonal — the solvers
/// divide by val[row_ptr[i+1] - 1] and gather x from the preceding entries.
template <class T>
Status check_tri_csr(const Csr<T>& a, const char* what) {
  for (index_t i = 0; i < a.nrows; ++i) {
    const offset_t lo = a.row_ptr[static_cast<std::size_t>(i)];
    const offset_t hi = a.row_ptr[static_cast<std::size_t>(i) + 1];
    if (hi <= lo ||
        a.col_idx[static_cast<std::size_t>(hi) - 1] != i)
      return bad(std::string(what) + " row lacks a trailing diagonal entry");
    for (offset_t k = lo; k < hi; ++k)
      if (a.col_idx[static_cast<std::size_t>(k)] > i)
        return bad(std::string(what) + " has an entry above the diagonal");
  }
  return Status::Ok();
}

Status check_level_sets(const LevelSets& ls, index_t len, const char* what) {
  if (ls.nlevels < 0 ||
      ls.level_of.size() != static_cast<std::size_t>(len) ||
      ls.level_item.size() != static_cast<std::size_t>(len) ||
      ls.level_ptr.size() != static_cast<std::size_t>(ls.nlevels) + 1)
    return bad(std::string(what) + " level analysis does not match the block");
  if (!ptr_consistent(ls.level_ptr, static_cast<std::size_t>(len)))
    return bad(std::string(what) + " level pointers do not cover the block");
  if (!indices_in_range(ls.level_item, len))
    return bad(std::string(what) + " level item out of range");
  if (!indices_in_range(ls.level_of, ls.nlevels))
    return bad(std::string(what) + " level assignment out of range");
  return Status::Ok();
}
}  // namespace

template <class T>
Status validate_artifact(const PlanArtifact<T>& art) {
  persist_testing::g_validations.fetch_add(1, std::memory_order_relaxed);
  const BlockPlan& p = art.plan;
  if (p.n < 0) return bad("negative dimension");
  if (static_cast<std::uint32_t>(p.scheme) >
      static_cast<std::uint32_t>(BlockScheme::kHbmc))
    return bad("block scheme out of range");
  if (p.new_of_old.size() != static_cast<std::size_t>(p.n))
    return bad("permutation length != n");
  if (!is_permutation_of_iota(p.new_of_old))
    return bad("new_of_old is not a permutation of [0, n)");
  // An empty matrix may have no leaf at all (the recursive planner's n = 0
  // plan is the single bound {0}); any other plan needs at least one.
  if (p.tri_bounds.empty() || (p.n > 0 && p.tri_bounds.size() < 2) ||
      p.tri_bounds.front() != 0 || p.tri_bounds.back() != p.n)
    return bad("triangular bounds do not cover [0, n)");
  for (std::size_t i = 1; i < p.tri_bounds.size(); ++i)
    if (p.tri_bounds[i] < p.tri_bounds[i - 1])
      return bad("triangular bounds are not ascending");
  if ((p.scheme == BlockScheme::kHbmc) != !p.color_bounds.empty())
    return bad("color bounds must be present exactly for the hbmc scheme");
  if (!p.color_bounds.empty()) {
    if (p.hbmc_block_rows < 1)
      return bad("hbmc aggregation block size is not positive");
    if (p.color_bounds.front() != 0 || p.color_bounds.back() != p.n)
      return bad("color bounds do not cover [0, n)");
    for (std::size_t i = 1; i < p.color_bounds.size(); ++i)
      if (p.color_bounds[i] < p.color_bounds[i - 1])
        return bad("color bounds are not ascending");
    // Every color boundary must be a triangular leaf boundary — the wave
    // builder only ever cuts at tri_bounds, so a color bound off the leaf
    // grid would break the per-color independence the scheme's 2C-1-wave
    // schedule relies on.
    for (const index_t c : p.color_bounds) {
      bool on_leaf = false;
      for (const index_t b : p.tri_bounds)
        if (b == c) { on_leaf = true; break; }
      if (!on_leaf)
        return bad("color bound does not land on a triangular leaf bound");
    }
  }
  if (art.tri.size() != p.tri_bounds.size() - 1)
    return bad("triangular block count != plan leaves");
  if (art.squares.size() != p.squares.size())
    return bad("square block count != plan squares");
  const auto ntri = static_cast<index_t>(art.tri.size());
  const auto nsq = static_cast<index_t>(art.squares.size());
  const auto check_step = [&](const ExecStep& s) {
    if (s.kind != ExecStep::Kind::kTri && s.kind != ExecStep::Kind::kSquare)
      return bad("execution step kind out of range");
    const index_t limit = s.kind == ExecStep::Kind::kTri ? ntri : nsq;
    if (s.index < 0 || s.index >= limit)
      return bad("execution step references a missing block");
    return Status::Ok();
  };
  for (const ExecStep& s : p.steps)
    if (Status st = check_step(s); !st.ok()) return st;
  // The executors run the waves, the serial ones in order, so the waves must
  // be the plan's steps in order with exactly the empty squares left out.
  std::size_t next = 0;
  const auto skip_empty = [&] {
    while (next < p.steps.size() &&
           p.steps[next].kind == ExecStep::Kind::kSquare &&
           art.squares[static_cast<std::size_t>(p.steps[next].index)].nnz == 0)
      ++next;
  };
  for (const auto& wave : art.waves)
    for (const ExecStep& s : wave) {
      skip_empty();
      if (next == p.steps.size() || p.steps[next].kind != s.kind ||
          p.steps[next].index != s.index)
        return bad("the waves are not the plan's non-empty steps in order");
      ++next;
    }
  skip_empty();
  if (next != p.steps.size())
    return bad("the waves leave out a non-empty plan step");

  for (std::size_t t = 0; t < art.tri.size(); ++t) {
    const TriBlockArtifact<T>& b = art.tri[t];
    const index_t len = b.r1 - b.r0;
    if (b.r0 != p.tri_bounds[t] || b.r1 != p.tri_bounds[t + 1] || len < 0)
      return bad("triangular block range disagrees with the plan");
    switch (b.kind) {
      case TriKernelKind::kCompletelyParallel:
        if (b.diag.size() != static_cast<std::size_t>(len))
          return bad("diagonal block length != rows");
        break;
      case TriKernelKind::kLevelSet:
      case TriKernelKind::kSyncFree:
      case TriKernelKind::kCusparseLike: {
        // The kernels — and the fallback ladder, which solves from these
        // rows too — divide by each row's trailing diagonal and read only
        // earlier rows (dependencies only point backward), whose x entries
        // the row order has already solved.
        if (Status st = check_csr_shape(b.kernel_csr, len, len, "tri block");
            !st.ok())
          return st;
        if (Status st = check_tri_csr(b.kernel_csr, "tri block"); !st.ok())
          return st;
        if (b.kind == TriKernelKind::kSyncFree) break;
        if (Status st = check_level_sets(b.levels, len, "tri block");
            !st.ok())
          return st;
        break;
      }
      default:
        return bad("unknown triangular kernel kind");
    }
  }

  constexpr auto kWindow = static_cast<std::uint32_t>(kSquareWindowRows);
  std::vector<std::uint32_t> seen(kWindow, 0);
  std::uint32_t stamp = 0;
  for (std::size_t q = 0; q < art.squares.size(); ++q) {
    const SquareBlockArtifact<T>& b = art.squares[q];
    const SquareBlockRef& ref = p.squares[q];
    if (ref.r0 < 0 || ref.r0 > ref.r1 || ref.r1 > p.n || ref.c0 < 0 ||
        ref.c0 > ref.c1 || ref.c1 > p.n)
      return bad("square block range is outside the matrix");
    if (static_cast<std::uint32_t>(b.kind) >
        static_cast<std::uint32_t>(SpmvKernelKind::kVectorDcsr))
      return bad("unknown square kernel kind");
    if (b.ref.r0 != ref.r0 || b.ref.r1 != ref.r1 || b.ref.c0 != ref.c0 ||
        b.ref.c1 != ref.c1)
      return bad("square block range disagrees with the plan");
    const Dcsr<T>& d = b.rows;
    const index_t rows = b.ref.r1 - b.ref.r0;
    const index_t cols = b.ref.c1 - b.ref.c0;
    if (d.nrows != rows || d.ncols != cols ||
        d.row_ptr.size() != d.row_ids.size() + 1 ||
        d.col_idx.size() != d.val.size() ||
        static_cast<offset_t>(d.val.size()) != b.nnz)
      return bad("square rows do not match the block");
    if (!ptr_consistent(d.row_ptr, d.val.size()))
      return bad("square row pointers are inconsistent");
    if (!indices_in_range(d.row_ids, rows))
      return bad("square row id out of range");
    if (!indices_in_range(d.col_idx, cols))
      return bad("square column index out of range");
    // The threaded SpMV writes each listed row's y entry from one chunk, and
    // the value install and the residual find a window's rows of a square
    // in one run: ids distinct, windows non-decreasing. seen[i] holds the
    // stamp of the last (square, window) that listed the window's row i.
    std::uint32_t window = 0;
    ++stamp;
    for (const index_t id : d.row_ids) {
      const auto row = static_cast<std::uint32_t>(b.ref.r0 + id);
      const std::uint32_t w = row / kWindow;
      if (w < window) return bad("square rows are not in window order");
      if (w > window) {
        window = w;
        ++stamp;
      }
      std::uint32_t& last = seen[row % kWindow];
      if (last == stamp) return bad("square lists a row twice");
      last = stamp;
    }
  }

  if (!std::isfinite(art.norm_inf) || art.norm_inf < 0.0)
    return bad("the matrix norm is not finite and non-negative");
  // The install checks every entry against the caller's rows; here only
  // the map's shape: one entry per held value.
  const ValueMap& m = art.value_map;
  if ((m.width != 1 && m.width != 2 && m.width != 4) || art.nnz < 0 ||
      m.bytes.size() != static_cast<std::size_t>(art.nnz) * m.width)
    return bad("the value map does not hold one entry per value");
  if (art.merge_width < 1) return bad("non-positive level-merge width");
  if (art.tuned && (!std::isfinite(art.oracle_default_ns) ||
                    !std::isfinite(art.oracle_tuned_ns) ||
                    art.oracle_default_ns < 0.0 || art.oracle_tuned_ns < 0.0))
    return bad("tuning record carries invalid oracle timings");
  return Status::Ok();
}

#define BLOCKTRI_INSTANTIATE(T)                                             \
  template std::size_t artifact_bytes(const PlanArtifact<T>&);              \
  template Status save_artifact(const std::string&, const PlanArtifact<T>&); \
  template Status load_artifact(const std::string&, PlanArtifact<T>*);      \
  template Status validate_artifact(const PlanArtifact<T>&);

BLOCKTRI_INSTANTIATE(float)
BLOCKTRI_INSTANTIATE(double)
#undef BLOCKTRI_INSTANTIATE

}  // namespace blocktri
