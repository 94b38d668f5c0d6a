// Small helpers shared by the benchmark driver: clocks, order statistics,
// process/host facts, and a minimal JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process so far, MiB (getrusage).
double peak_rss_mib();

/// CPUs this process may run on (sched_getaffinity), at least 1.
int usable_cpus();

/// CPU time stolen by the hypervisor so far, summed over CPUs, in seconds
/// (the steal column of /proc/stat; 0 where it is not available).
double cpu_steal_seconds();

/// Size in bytes of the highest-level unified/data cache listed under sysfs
/// for cpu0 (0 when sysfs does not say).
std::uint64_t last_level_cache_bytes();

/// JSON string literal (with quotes) for `s`.
std::string json_str(const std::string& s);

/// Number formatted with every significant digit (%.17g); non-finite values
/// become null so the output stays valid JSON.
std::string json_num(double v);

/// Ordered list of (key, raw JSON value) pairs rendered as one object.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw_json) {
    fields_.emplace_back(key, raw_json);
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, json_str(v));
  }
  JsonObject& num(const std::string& key, double v) {
    return add(key, json_num(v));
  }
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
