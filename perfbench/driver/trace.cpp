#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

namespace perfbench {

namespace {

std::atomic<int> g_next_tid{0};
thread_local int t_tid = -1;
thread_local std::vector<int> t_open;  // this thread's open span stack

int this_tid() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

}  // namespace

int Tracer::begin(const char* name, std::int64_t id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start_ns = now;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.tid = this_tid();
  s.id = id;
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(idx);
  return idx;
}

void Tracer::end(int index) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    SelfTime& st = out[s.name];
    ++st.count;
    st.total_ms += ms;
    st.self_ms += std::max(0.0, ms - child_ms[i]);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& header_json) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n",
               header_json.c_str());
  std::fprintf(f, "\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"id\": %lld}}",
                 first ? "" : ",\n", json_str(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.id));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
