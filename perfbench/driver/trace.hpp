// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into library
// layers (the library itself is not instrumented). Each span has a name, a
// start and end on the steady clock, the span that was open on the same
// thread when it began (its parent), and an optional request id shared by
// the spans of one service request. Nothing is written until the run ends:
// write_chrome() emits Chrome trace-event JSON (opens offline in Perfetto or
// chrome://tracing) and self_times() folds the spans into per-name self
// time — a span's duration minus the part its child spans cover.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "util.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t end_ns = -1;   // -1 while open
  int parent = -1;            // index of the enclosing span, -1 at the root
  int tid = 0;                // small per-thread number
  std::int64_t id = -1;       // request id (-1 = none)
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index (-1 when off).
  int begin(const char* name, std::int64_t id = -1);
  void end(int index);

  std::size_t size() const;

  /// Per-name count, total and self time over every closed span.
  std::map<std::string, SelfTime> self_times() const;

  /// Writes the spans as Chrome trace-event JSON with `header_json` under
  /// "otherData". Returns false when the file cannot be written.
  bool write_chrome(const std::string& path,
                    const std::string& header_json) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::deque<Span> spans_;  // guarded by mu_
};

/// RAII span: begin on construction, end on destruction. Free when the
/// tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t id = -1)
      : t_(t), idx_(t.enabled() ? t.begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (idx_ >= 0) t_.end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

/// Runs `f` inside a span named `name` and returns its wall time in
/// seconds. The clock reads sit inside the span, so a parent's self time
/// absorbs only the span bookkeeping.
template <class F>
double timed(Tracer& t, const char* name, F&& f) {
  ScopedSpan span(t, name);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

}  // namespace perfbench
