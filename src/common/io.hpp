// Framed, checksummed fd I/O shared by every process boundary in the repo
// (ISSUE 9 satellite). The solve service's wire protocol (service/wire.hpp)
// and the shard worker-pool's control pipes (shard/control.hpp) both need the
// same three things, and they must exist exactly once:
//
//   * EINTR-safe exact reads/writes over a stream fd — short transfers
//     restarted, signal delivery not an error, a dead peer a typed kIoError
//     (SIGPIPE suppressed via MSG_NOSIGNAL on sockets), never a hang or a
//     process kill,
//   * a fixed 16-byte frame header (magic, version, type, flags, payload
//     length) validated *before* any allocation so a hostile or corrupt
//     length field cannot drive a multi-gigabyte resize,
//   * optional CRC32 trailer per frame (kFrameFlagCrc) for channels whose
//     payloads cross a process boundary without the artifact loader's
//     section checksums — a flipped bit is a typed kChecksumMismatch, not a
//     silently wrong solve.
//
// The header layout is byte-compatible with the service's BTSV frames
// (whose reserved u16 is this module's flags field, always 0 there), so
// service/wire.cpp delegates here without changing its on-wire format.
//
// The CRC32 implementation (IEEE 802.3, slicing-by-8) is also exported and
// is the only one in the repo: persist/artifact.cpp guards its sections and
// tune/cost_model.cpp its .btcm payload with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace blocktri::io {

/// Buffers of at least this many bytes run crc32 in three lanes.
inline constexpr std::size_t kCrc32LaneBytes = 4096;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320). Slicing-by-8 on
/// little-endian hosts (eight bytes per step), byte-at-a-time elsewhere and
/// for the tail; the value is the same either way. From kCrc32LaneBytes on,
/// three registers run over the three thirds of the buffer in one loop, so
/// their table lookups overlap, and are joined by shifting each partial
/// register over the bytes after its third (a multiply by x^(8·len) mod P).
std::uint32_t crc32(const void* data, std::size_t n);

/// Reads exactly `len` bytes into `buf`, restarting on EINTR and continuing
/// across short reads. Works on sockets (recv) and plain pipe fds (read —
/// selected automatically on ENOTSOCK). EOF before the first byte: when
/// `clean_eof` is non-null it is set and Ok is returned (the caller is
/// between frames and a peer hanging up there is normal); otherwise
/// kIoError. EOF mid-buffer is always kTruncated with the byte count read
/// as the location.
Status read_exact(int fd, void* buf, std::size_t len,
                  bool* clean_eof = nullptr);

/// Writes exactly `len` bytes, restarting on EINTR and continuing across
/// short writes. On sockets SIGPIPE is suppressed (MSG_NOSIGNAL): a peer
/// that disconnected mid-frame surfaces as kIoError, never a signal. Pipe
/// writers should ignore SIGPIPE themselves (the shard channels are
/// socketpairs precisely so nobody has to install a process-wide handler).
Status write_exact(int fd, const void* buf, std::size_t len);

// --- Generic frame layer ----------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Flags bit: a u32 CRC32 of the payload trails the payload bytes.
inline constexpr std::uint16_t kFrameFlagCrc = 0x1;

/// Per-protocol parameters: callers instantiate one constexpr spec (the
/// service's BTSV, the shard pool's BTSC) and every header is validated
/// against it before the payload is touched.
struct FrameSpec {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint64_t max_payload = 0;
};

struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::uint64_t payload_len = 0;
};

/// Encodes the fixed header into `out[0..16)`.
void encode_frame_header(const FrameHeader& hdr,
                         std::uint8_t out[kFrameHeaderBytes]);

/// Validates the fixed header at `data` against `spec` (magic, version,
/// payload bound, known flags). `len` is how many bytes are available.
/// Typed failures: kTruncated (short buffer), kBadFormat (wrong magic,
/// oversize length, unknown flag bits), kVersionMismatch.
Status decode_frame_header(const FrameSpec& spec, const std::uint8_t* data,
                           std::size_t len, FrameHeader* out);

/// Writes one frame: header, payload, and — when `with_crc` — the CRC32
/// trailer. A single contiguous buffer is assembled so the write is one
/// exact transfer (frames from concurrent writers on the same fd never
/// interleave mid-frame as long as each uses one write_frame call).
Status write_frame(int fd, const FrameSpec& spec, std::uint8_t type,
                   const void* payload, std::size_t len, bool with_crc);

/// Reads one frame into `*payload` (payload bytes only, CRC trailer
/// verified and stripped when the sender flagged one). `*type` receives the
/// frame type. `*clean_eof` (optional) is set when the peer hung up between
/// frames. CRC disagreement is kChecksumMismatch.
Status read_frame(int fd, const FrameSpec& spec, std::uint8_t* type,
                  std::vector<std::uint8_t>* payload,
                  bool* clean_eof = nullptr);

}  // namespace blocktri::io
