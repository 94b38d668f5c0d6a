#include "common/status.hpp"

#include <sstream>

namespace blocktri {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kBadFormat: return "bad-format";
    case StatusCode::kParseError: return "parse-error";
    case StatusCode::kOutOfBounds: return "out-of-bounds";
    case StatusCode::kNotTriangular: return "not-triangular";
    case StatusCode::kSingularRow: return "singular-row";
    case StatusCode::kZeroPivot: return "zero-pivot";
    case StatusCode::kNonFinite: return "non-finite";
    case StatusCode::kResidualTooLarge: return "residual-too-large";
    case StatusCode::kNumericalBreakdown: return "numerical-breakdown";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kVersionMismatch: return "version-mismatch";
    case StatusCode::kChecksumMismatch: return "checksum-mismatch";
    case StatusCode::kTruncated: return "truncated";
    case StatusCode::kStructureMismatch: return "structure-mismatch";
    case StatusCode::kIoError: return "io-error";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kReentrantSolve: return "reentrant-solve";
    case StatusCode::kPoolExhausted: return "pool-exhausted";
    case StatusCode::kWorkerLost: return "worker-lost";
  }
  return "unknown";
}

namespace {
// Parse-family codes locate a 1-based source line; the structural and
// numerical codes locate a matrix row.
bool location_is_line(StatusCode code) {
  return code == StatusCode::kBadFormat || code == StatusCode::kParseError ||
         code == StatusCode::kOutOfBounds;
}
}  // namespace

std::string Status::to_string() const {
  if (ok()) return "ok";
  const bool is_line = kind_ == LocationKind::kAuto
                           ? location_is_line(code_)
                           : kind_ == LocationKind::kLine;
  // The persistence codes locate a byte offset in the artifact stream.
  const bool is_byte = kind_ == LocationKind::kByte ||
                       code_ == StatusCode::kTruncated ||
                       code_ == StatusCode::kChecksumMismatch;
  std::ostringstream os;
  os << '[' << status_code_name(code_);
  if (location_ >= 0)
    os << " @ " << (is_byte ? "byte " : is_line ? "line " : "row ")
       << location_;
  os << "] " << message_;
  return os.str();
}

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "blocktri check failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace blocktri
