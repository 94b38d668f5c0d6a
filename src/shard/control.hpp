// Control-channel protocol between the shard coordinator and its workers.
//
// One socketpair(AF_UNIX, SOCK_STREAM) per worker carries small CRC-flagged
// frames (common/io.hpp framing, magic "BTSC"): a Hello when the worker is
// ready, a SolveCmd per epoch naming the worker's columns, a Report per
// epoch result, and a Shutdown for orderly exit (EOF works too — a worker
// whose peer closes simply _exits). The bulk data — the x/b panels — never
// touches this channel; it lives in the shared-memory region (shm.hpp).
// Every frame carries a CRC trailer: a torn or corrupted control message
// must surface as kChecksumMismatch, never as a command executed with a
// garbled column range.
#pragma once

#include <cstdint>
#include <string>

#include "common/io.hpp"
#include "sparse/formats.hpp"

namespace blocktri::shard {

inline constexpr io::FrameSpec kControlSpec = {
    /*magic=*/0x43535442u,  // "BTSC"
    /*version=*/2,
    /*max_payload=*/std::uint64_t(1) << 20,  // control frames are tiny
};

enum class ControlFrame : std::uint8_t {
  kHello = 1,     // worker -> coordinator: ready (or failed to start)
  kSolveCmd = 2,  // coordinator -> worker: run epoch {seq} on k columns
  kReport = 3,    // worker -> coordinator: epoch {seq} outcome + metrics
  kShutdown = 4,  // coordinator -> worker: exit cleanly
};

/// Worker startup outcome. A worker that fails to rehydrate the plan says
/// so explicitly (typed code + message) before exiting, so the coordinator
/// can distinguish "artifact rejected" from "process died".
struct HelloMsg {
  std::int32_t code = 0;  // StatusCode
  std::string message;
  std::int32_t shard_index = 0;
  /// level_analysis_count() delta across the worker's rehydration — the
  /// warm-start proof: a worker must perform zero level-set re-analysis.
  std::uint64_t level_analyses = 0;
};

/// Epoch `seq`: solve the shared panels' columns [c0, c0 + k). k may be 0
/// (a panel narrower than the pool leaves some workers idle).
struct SolveCmdMsg {
  std::uint64_t seq = 0;
  index_t c0 = 0;
  index_t k = 0;
};

/// Per-epoch, per-worker result: the worker's solve status and progress.
struct ReportMsg {
  std::uint64_t seq = 0;
  std::int32_t code = 0;  // StatusCode
  std::string message;
  std::uint64_t steps_completed = 0;  // of the worker's solve (0 when idle)
  std::uint64_t steps_total = 0;
  std::uint64_t level_analyses = 0;   // re-analyses this epoch (must be 0)
};

Status write_hello(int fd, const HelloMsg& msg);
Status write_solve_cmd(int fd, const SolveCmdMsg& msg);
Status write_report(int fd, const ReportMsg& msg);
Status write_shutdown(int fd);

/// Reads one frame and decodes it as `T`; kBadFormat when the frame type
/// differs. read_any_frame returns the raw type + payload for dispatch
/// loops. clean_eof (when non-null) reports an orderly peer close.
Status read_any_frame(int fd, std::uint8_t* type,
                      std::vector<std::uint8_t>* payload,
                      bool* clean_eof = nullptr);
Status decode_hello(const std::vector<std::uint8_t>& payload, HelloMsg* out);
Status decode_solve_cmd(const std::vector<std::uint8_t>& payload,
                        SolveCmdMsg* out);
Status decode_report(const std::vector<std::uint8_t>& payload, ReportMsg* out);

}  // namespace blocktri::shard
