#include "common/io.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

namespace blocktri::io {

namespace {

constexpr std::uint32_t kCrcPoly = 0xEDB88320u;  // reflected IEEE 802.3

/// Slicing-by-8 tables: t[0] is the classic byte table, and t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight table lookups advance
/// the register over eight input bytes at once. x2n[k] is x^(2^k) mod P,
/// from which any power of x is a product (the lanes' join); x^(2^32) = x
/// mod P, so k runs mod 32.
struct Crc32Tables {
  std::uint32_t t[8][256];
  std::uint32_t x2n[32];
};

/// a·b mod P over GF(2), both in the reflected order (bit 31 is x^0).
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) p ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

const Crc32Tables& crc32_tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables x{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? kCrcPoly ^ (c >> 1) : c >> 1;
      x.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        x.t[k][i] = (x.t[k - 1][i] >> 8) ^ x.t[0][x.t[k - 1][i] & 0xFFu];
    x.x2n[0] = 1u << 30;  // x^1
    for (int k = 1; k < 32; ++k)
      x.x2n[k] = multmodp(x.x2n[k - 1], x.x2n[k - 1]);
    return x;
  }();
  return tables;
}

/// x^(8·bytes) mod P: the factor that moves a CRC register over `bytes`
/// zero bytes.
std::uint32_t x8nmodp(const Crc32Tables& tb, std::size_t bytes) {
  std::uint32_t p = 1u << 31;  // x^0
  for (int k = 3; bytes != 0; bytes >>= 1, ++k)
    if ((bytes & 1u) != 0) p = multmodp(tb.x2n[k & 31], p);
  return p;
}

/// The register after eight more bytes at `p`: the low four fold into the
/// register as a little-endian load, so this is the little-endian host's
/// step.
inline std::uint32_t crc32_step8(const std::uint32_t (&t)[8][256],
                                 std::uint32_t c, const unsigned char* p) {
  std::uint32_t lo = 0, hi = 0;
  std::memcpy(&lo, p, 4);
  std::memcpy(&hi, p + 4, 4);
  lo ^= c;
  return t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
         t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
         t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Crc32Tables& tb = crc32_tables();
  const auto& t = tb.t;
  std::uint32_t c = 0xFFFFFFFFu;
  // The word step only applies on little-endian hosts; the byte loop below
  // finishes the tail and serves every other host.
  if constexpr (std::endian::native == std::endian::little) {
    if (n >= kCrc32LaneBytes) {
      // Three independent registers over thirds of whole 8-byte steps; the
      // second and third start from zero, and the register is linear, so
      // CRC(A‖B) = shift(CRC(A), |B|) ^ CRC0(B) joins them in order.
      const std::size_t len = n / 3 & ~std::size_t{7};
      const unsigned char* p1 = p + len;
      const unsigned char* p2 = p1 + len;
      std::uint32_t c1 = 0, c2 = 0;
      for (std::size_t i = 0; i < len; i += 8) {
        c = crc32_step8(t, c, p + i);
        c1 = crc32_step8(t, c1, p1 + i);
        c2 = crc32_step8(t, c2, p2 + i);
      }
      const std::uint32_t shift = x8nmodp(tb, len);
      c = multmodp(shift, c) ^ c1;
      c = multmodp(shift, c) ^ c2;
      p += 3 * len;
      n -= 3 * len;
    }
    for (; n >= 8; n -= 8, p += 8) c = crc32_step8(t, c, p);
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status read_exact(int fd, void* buf, std::size_t len, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  bool socket = true;  // optimistic; demoted once on ENOTSOCK
  while (got < len) {
    const ssize_t r = socket ? ::recv(fd, p + got, len - got, 0)
                             : ::read(fd, p + got, len - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {  // peer hung up
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::Ok();
      }
      return got == 0
                 ? Status(StatusCode::kIoError,
                          "peer closed the connection before a frame")
                 : Status(StatusCode::kTruncated,
                          "peer closed the connection mid-frame",
                          static_cast<std::int64_t>(got), LocationKind::kLine);
    }
    if (errno == EINTR) continue;  // signal delivery is not an error
    if (socket && errno == ENOTSOCK) {
      socket = false;  // plain pipe fd: same loop over read(2)
      continue;
    }
    return Status(StatusCode::kIoError,
                  std::string("read failed: ") + std::strerror(errno),
                  static_cast<std::int64_t>(got), LocationKind::kLine);
  }
  return Status::Ok();
}

Status write_exact(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t put = 0;
  bool socket = true;
  while (put < len) {
    // MSG_NOSIGNAL: a disconnected peer yields EPIPE here instead of a
    // process-wide SIGPIPE — the whole point of the typed kIoError contract.
    const ssize_t w = socket ? ::send(fd, p + put, len - put, MSG_NOSIGNAL)
                             : ::write(fd, p + put, len - put);
    if (w >= 0) {
      put += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (socket && errno == ENOTSOCK) {
      socket = false;
      continue;
    }
    return Status(StatusCode::kIoError,
                  std::string("write failed: ") + std::strerror(errno),
                  static_cast<std::int64_t>(put), LocationKind::kLine);
  }
  return Status::Ok();
}

void encode_frame_header(const FrameHeader& hdr,
                         std::uint8_t out[kFrameHeaderBytes]) {
  std::memcpy(out, &hdr.magic, 4);
  out[4] = hdr.version;
  out[5] = hdr.type;
  std::memcpy(out + 6, &hdr.flags, 2);
  std::memcpy(out + 8, &hdr.payload_len, 8);
}

Status decode_frame_header(const FrameSpec& spec, const std::uint8_t* data,
                           std::size_t len, FrameHeader* out) {
  BLOCKTRI_CHECK(out != nullptr);
  if (len < kFrameHeaderBytes)
    return Status(StatusCode::kTruncated, "frame header is incomplete",
                  static_cast<std::int64_t>(len), LocationKind::kLine);
  std::memcpy(&out->magic, data, 4);
  out->version = data[4];
  out->type = data[5];
  std::memcpy(&out->flags, data + 6, 2);
  std::memcpy(&out->payload_len, data + 8, 8);
  if (out->magic != spec.magic)
    return Status(StatusCode::kBadFormat, "frame has a foreign magic value");
  if (out->version != spec.version)
    return Status(StatusCode::kVersionMismatch,
                  "frame protocol version " + std::to_string(out->version) +
                      ", this build speaks version " +
                      std::to_string(spec.version));
  if ((out->flags & ~kFrameFlagCrc) != 0)
    return Status(StatusCode::kBadFormat, "frame carries unknown flag bits");
  if (out->payload_len > spec.max_payload)
    return Status(StatusCode::kBadFormat,
                  "frame claims " + std::to_string(out->payload_len) +
                      " payload bytes, above the protocol bound");
  return Status::Ok();
}

Status write_frame(int fd, const FrameSpec& spec, std::uint8_t type,
                   const void* payload, std::size_t len, bool with_crc) {
  FrameHeader hdr;
  hdr.magic = spec.magic;
  hdr.version = spec.version;
  hdr.type = type;
  hdr.flags = with_crc ? kFrameFlagCrc : 0;
  hdr.payload_len = len;
  std::vector<std::uint8_t> buf(kFrameHeaderBytes + len +
                                (with_crc ? 4 : 0));
  encode_frame_header(hdr, buf.data());
  if (len != 0) std::memcpy(buf.data() + kFrameHeaderBytes, payload, len);
  if (with_crc) {
    const std::uint32_t crc = crc32(payload, len);
    std::memcpy(buf.data() + kFrameHeaderBytes + len, &crc, 4);
  }
  return write_exact(fd, buf.data(), buf.size());
}

Status read_frame(int fd, const FrameSpec& spec, std::uint8_t* type,
                  std::vector<std::uint8_t>* payload, bool* clean_eof) {
  BLOCKTRI_CHECK(type != nullptr && payload != nullptr);
  std::uint8_t raw[kFrameHeaderBytes];
  if (Status st = read_exact(fd, raw, sizeof raw, clean_eof);
      !st.ok() || (clean_eof != nullptr && *clean_eof))
    return st;
  FrameHeader hdr;
  if (Status st = decode_frame_header(spec, raw, sizeof raw, &hdr); !st.ok())
    return st;
  *type = hdr.type;
  payload->resize(static_cast<std::size_t>(hdr.payload_len));
  if (hdr.payload_len != 0) {
    if (Status st = read_exact(fd, payload->data(), payload->size());
        !st.ok())
      return st;
  }
  if ((hdr.flags & kFrameFlagCrc) != 0) {
    std::uint32_t sent = 0;
    if (Status st = read_exact(fd, &sent, sizeof sent); !st.ok()) return st;
    if (crc32(payload->data(), payload->size()) != sent)
      return Status(StatusCode::kChecksumMismatch,
                    "frame payload does not match its CRC32 trailer");
  }
  return Status::Ok();
}

}  // namespace blocktri::io
