#include "shard/control.hpp"

#include <algorithm>
#include <cstring>

namespace blocktri::shard {

namespace {

// Field-by-field little-endian packing, same discipline as service/wire.cpp.

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out->insert(out->end(), b, b + sizeof v);
}
void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out->insert(out->end(), b, b + sizeof v);
}
void put_i32(std::vector<std::uint8_t>* out, std::int32_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out->insert(out->end(), b, b + sizeof v);
}
void put_string(std::vector<std::uint8_t>* out, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(
      std::min<std::size_t>(s.size(), 0xFFFF));
  put_u32(out, len);
  out->insert(out->end(), s.data(), s.data() + len);
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}
  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool i32(std::int32_t* v) { return raw(v, sizeof *v); }
  bool string(std::string* out) {
    std::uint32_t len = 0;
    if (!u32(&len) || buf_.size() - pos_ < len) return false;
    out->assign(reinterpret_cast<const char*>(buf_.data()) + pos_, len);
    pos_ += len;
    return true;
  }
  Status truncated(const char* what) const {
    return Status(StatusCode::kTruncated,
                  std::string("control frame ends inside ") + what,
                  static_cast<std::int64_t>(pos_), LocationKind::kLine);
  }

 private:
  bool raw(void* p, std::size_t n) {
    if (buf_.size() - pos_ < n) return false;
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

Status send(int fd, ControlFrame type, const std::vector<std::uint8_t>& p) {
  return io::write_frame(fd, kControlSpec, static_cast<std::uint8_t>(type),
                         p.data(), p.size(), /*with_crc=*/true);
}

}  // namespace

Status write_hello(int fd, const HelloMsg& msg) {
  std::vector<std::uint8_t> p;
  put_i32(&p, msg.code);
  put_string(&p, msg.message);
  put_i32(&p, msg.shard_index);
  put_u64(&p, msg.level_analyses);
  return send(fd, ControlFrame::kHello, p);
}

Status write_solve_cmd(int fd, const SolveCmdMsg& msg) {
  std::vector<std::uint8_t> p;
  put_u64(&p, msg.seq);
  put_i32(&p, msg.c0);
  put_i32(&p, msg.k);
  return send(fd, ControlFrame::kSolveCmd, p);
}

Status write_report(int fd, const ReportMsg& msg) {
  std::vector<std::uint8_t> p;
  put_u64(&p, msg.seq);
  put_i32(&p, msg.code);
  put_string(&p, msg.message);
  put_u64(&p, msg.steps_completed);
  put_u64(&p, msg.steps_total);
  put_u64(&p, msg.level_analyses);
  return send(fd, ControlFrame::kReport, p);
}

Status write_shutdown(int fd) {
  return send(fd, ControlFrame::kShutdown, {});
}

Status read_any_frame(int fd, std::uint8_t* type,
                      std::vector<std::uint8_t>* payload, bool* clean_eof) {
  return io::read_frame(fd, kControlSpec, type, payload, clean_eof);
}

Status decode_hello(const std::vector<std::uint8_t>& payload, HelloMsg* out) {
  Reader r(payload);
  if (!r.i32(&out->code)) return r.truncated("the hello status");
  if (!r.string(&out->message)) return r.truncated("the hello message");
  if (!r.i32(&out->shard_index)) return r.truncated("the shard index");
  if (!r.u64(&out->level_analyses)) return r.truncated("the analysis count");
  return Status::Ok();
}

Status decode_solve_cmd(const std::vector<std::uint8_t>& payload,
                        SolveCmdMsg* out) {
  Reader r(payload);
  if (!r.u64(&out->seq)) return r.truncated("the epoch sequence");
  std::int32_t c0 = 0, k = 0;
  if (!r.i32(&c0)) return r.truncated("the first column");
  if (!r.i32(&k)) return r.truncated("the column count");
  if (c0 < 0 || k < 0)
    return Status(StatusCode::kBadFormat,
                  "solve command carries a negative column range");
  out->c0 = static_cast<index_t>(c0);
  out->k = static_cast<index_t>(k);
  return Status::Ok();
}

Status decode_report(const std::vector<std::uint8_t>& payload,
                     ReportMsg* out) {
  Reader r(payload);
  if (!r.u64(&out->seq)) return r.truncated("the epoch sequence");
  if (!r.i32(&out->code)) return r.truncated("the report status");
  if (!r.string(&out->message)) return r.truncated("the report message");
  if (!r.u64(&out->steps_completed)) return r.truncated("the step count");
  if (!r.u64(&out->steps_total)) return r.truncated("the step total");
  if (!r.u64(&out->level_analyses)) return r.truncated("the analysis count");
  return Status::Ok();
}

}  // namespace blocktri::shard
