// Structured error reporting for the whole library.
//
// Production inputs are hostile: truncated .mtx files, out-of-bounds
// indices, missing or zero diagonals, NaN/Inf values. Every such defect maps
// to a typed StatusCode so callers can branch on *what* went wrong (and
// where) instead of string-matching exception text. Two styles coexist:
//
//   * Status-returning entry points (try_read_matrix_market, sanitize,
//     BlockSolver::create, BlockSolver::solve_checked) never throw on bad
//     input — they hand back a Status with a code, a message, and a location
//     (row index or 1-based source line, depending on the code).
//   * The historical throwing API is rebased on top: blocktri::Error now
//     carries a Status, and BLOCKTRI_CHECK failures throw an Error whose
//     status code is kInternal. Existing `catch (const Error&)` callers and
//     EXPECT_THROW tests keep working unchanged.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace blocktri {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,      // caller error: wrong sizes, unusable options
  kBadFormat,            // input not in a supported format (e.g. bad banner)
  kParseError,           // malformed text input; location = 1-based line
  kOutOfBounds,          // index outside the declared matrix dimensions
  kNotTriangular,        // entry above the diagonal; location = row
  kSingularRow,          // structurally singular: row has no diagonal entry
  kZeroPivot,            // diagonal present but zero/subnormal; location = row
  kNonFinite,            // NaN or Inf in matrix, rhs, or solution
  kResidualTooLarge,     // solve finished but failed residual verification
  kNumericalBreakdown,   // all fallback rungs produced non-finite output
  kInternal,             // invariant violation (BLOCKTRI_CHECK)

  // Plan-artifact persistence (src/persist). Artifacts are written by one
  // process and read by another, possibly after partial writes or bit rot,
  // so every defect class gets its own code:
  kVersionMismatch,      // artifact written by an incompatible format version
  kChecksumMismatch,     // a section's CRC32 does not match its payload
  kTruncated,            // artifact ends mid-header or mid-section;
                         // location = byte offset of the failed read
  kStructureMismatch,    // plan's structure hash does not match the matrix
  kIoError,              // the OS reported a read/write error mid-stream —
                         // distinct from kTruncated: the file may be intact

  // Solve-session resilience (common/deadline.hpp, core/solver.hpp). A solve
  // bounded in time or shared between callers can end for reasons that are
  // neither a caller error nor bad numerics:
  kCancelled,            // the caller's CancelToken fired mid-solve
  kDeadlineExceeded,     // the caller's Deadline expired mid-solve
  kReentrantSolve,       // strict-reentrancy mode: a solve overlapped another
                         // on the same solver
  kPoolExhausted,        // every leased workspace is in use and the session
                         // is configured to fail rather than block

  // Sharded multi-process execution (src/shard). A solve distributed over a
  // worker pool can lose a member outright — something no in-process code
  // path can experience:
  kWorkerLost,           // a shard worker process died (waitpid) or stopped
                         // responding within the epoch timeout mid-solve
};

/// Stable short name for a code, e.g. "zero-pivot".
const char* status_code_name(StatusCode code);

/// What a Status's location refers to. kAuto infers from the code (parse
/// family → line, kTruncated/kChecksumMismatch → byte offset, everything
/// else → row); pass kLine/kRow/kByte explicitly when a code is used outside
/// its usual context (e.g. a kNonFinite raised while parsing locates a line,
/// not a row; a kBadFormat for trailing artifact bytes locates a byte).
enum class LocationKind { kAuto, kRow, kLine, kByte };

/// Outcome of a fallible operation: a code, a human-readable message and an
/// optional location whose meaning depends on the code (matrix row for the
/// structural/numerical codes, 1-based source line for parse codes).
class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message, std::int64_t location = -1,
         LocationKind kind = LocationKind::kAuto)
      : code_(code), message_(std::move(message)), location_(location),
        kind_(kind) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  /// Row index or 1-based line number; -1 when not applicable.
  std::int64_t location() const { return location_; }

  /// "[zero-pivot @ row 7] diagonal of row 7 is zero" — the exception text
  /// when the throwing API surfaces this status.
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::int64_t location_ = -1;
  LocationKind kind_ = LocationKind::kAuto;
};

/// Exception thrown by the throwing API and by all blocktri
/// precondition/invariant checks. Carries the typed Status.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), status_(StatusCode::kInternal, what) {}
  explicit Error(const Status& s)
      : std::runtime_error(s.to_string()), status_(s) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Throws Error(status) unless status.ok() — bridge from the Status-returning
/// core to the throwing convenience wrappers.
inline void throw_if_error(const Status& s) {
  if (!s.ok()) throw Error(s);
}

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg);
}  // namespace detail

}  // namespace blocktri

/// Precondition/invariant check that is always on (cheap checks only; hot
/// loops use BLOCKTRI_DCHECK below). Throws blocktri::Error on failure.
#define BLOCKTRI_CHECK(expr)                                                  \
  do {                                                                        \
    if (!(expr))                                                              \
      ::blocktri::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define BLOCKTRI_CHECK_MSG(expr, msg)                                      \
  do {                                                                     \
    if (!(expr))                                                           \
      ::blocktri::detail::throw_check_failure(#expr, __FILE__, __LINE__,   \
                                              (msg));                      \
  } while (0)

/// Debug-only check, compiled out in release builds. Use in per-nonzero loops.
#ifndef NDEBUG
#define BLOCKTRI_DCHECK(expr) BLOCKTRI_CHECK(expr)
#else
#define BLOCKTRI_DCHECK(expr) ((void)0)
#endif
