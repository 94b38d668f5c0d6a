// Shared-memory panel region for the sharded solve (DESIGN.md §15).
//
// One POSIX shm segment per coordinator holds the n × k_max column-major b
// and x panels plus a small epoch header. The segment is created with
// shm_open(O_CREAT | O_EXCL), mapped, and *immediately* shm_unlinked —
// workers inherit the mapping across fork(), so the name only ever exists
// for the microseconds between create and unlink. A crashed coordinator or
// SIGKILLed worker can therefore never leak a named segment: leak-freedom by
// construction, not by cleanup code.
//
// Epoch protocol: the coordinator copies the panel's columns into b, resets
// `abort`, and release-stores `solve_seq`; each worker acquire-loads it when
// its command arrives, solves its own contiguous columns of b into the same
// columns of x, and reports over its control pipe. Every column has exactly
// one writer, and no worker reads another's columns. `abort` is the
// CancelToken every worker passes to its solve: the coordinator sets it on a
// worker loss, a deadline or a cancel, and the workers' executors stop at
// their next step.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/deadline.hpp"
#include "common/status.hpp"
#include "sparse/formats.hpp"

namespace blocktri::shard {

inline constexpr std::uint32_t kShmMagic = 0x42545348;  // "BTSH"
inline constexpr std::uint32_t kShmVersion = 2;
/// Upper bound on shard.processes.
inline constexpr int kMaxShards = 64;

struct ShmHeader {
  std::uint32_t magic = kShmMagic;
  std::uint32_t version = kShmVersion;
  index_t n = 0;
  index_t k_max = 0;
  /// Epoch counter: bumped (release) by the coordinator once an epoch's b
  /// panel and `abort` reset are in place.
  std::atomic<std::uint64_t> solve_seq{0};
  /// Set ends the current epoch early: the workers' solves poll it.
  CancelToken abort;
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<bool>::is_always_lock_free,
              "the cross-process epoch protocol requires address-free "
              "lock-free atomics");

/// RAII owner of the mapped segment. Movable, not copyable; the mapping is
/// valid in the creating process and, via fork inheritance, in every worker.
template <class T>
class SharedRegion {
 public:
  SharedRegion() = default;
  ~SharedRegion();
  SharedRegion(SharedRegion&& other) noexcept { *this = std::move(other); }
  SharedRegion& operator=(SharedRegion&& other) noexcept;
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  /// Creates, maps and immediately unlinks a fresh segment sized for two
  /// column-major n × k_max panels. The name is salted with the pid and a
  /// random suffix, so concurrent coordinators (parallel test runs
  /// included) can never collide even within the create-to-unlink window.
  static Status create(index_t n, index_t k_max, SharedRegion* out);

  ShmHeader* header() const { return header_; }
  /// Column c of a panel starts at panel + c·n.
  T* x_panel() const { return x_; }
  T* b_panel() const { return b_; }
  index_t n() const { return header_ != nullptr ? header_->n : 0; }
  index_t k_max() const { return header_ != nullptr ? header_->k_max : 0; }
  bool valid() const { return header_ != nullptr; }
  /// The (already unlinked) shm name — tests assert it absent in /dev/shm.
  const std::string& name() const { return name_; }

 private:
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  ShmHeader* header_ = nullptr;
  T* x_ = nullptr;
  T* b_ = nullptr;
  std::string name_;
};

}  // namespace blocktri::shard
