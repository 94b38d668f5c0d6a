#include "sim/machine.hpp"

namespace blocktri::sim {

GpuSpec titan_x() {
  GpuSpec g;
  g.name = "Titan X (Pascal)";
  g.num_sms = 24;
  g.cores_per_sm = 128;  // 3072 CUDA cores total (Table 3)
  g.max_warps_per_sm = 32;
  g.clock_ghz = 1.075;
  g.mem_bandwidth_gbps = 336.5;
  g.cache_bytes = 3u << 20;  // 3 MB L2 (GP102)
  // Pascal: slightly slower atomics and launches than Turing.
  g.dram_latency_ns = 480.0;
  g.cache_hit_latency_ns = 80.0;
  g.atomic_op_ns = 40.0;
  g.atomic_rmw_ns = 35.0;
  g.atomic_propagate_ns = 420.0;
  g.spin_poll_ns = 300.0;
  g.kernel_launch_ns = 5000.0;
  g.grid_sync_ns = 900.0;
  return g;
}

GpuSpec titan_rtx() {
  GpuSpec g;
  g.name = "Titan RTX (Turing)";
  g.num_sms = 72;
  g.cores_per_sm = 64;  // 4608 CUDA cores total (Table 3)
  g.max_warps_per_sm = 32;
  g.clock_ghz = 1.770;
  g.mem_bandwidth_gbps = 672.0;
  g.cache_bytes = 6u << 20;  // 6 MB L2 (TU102)
  g.dram_latency_ns = 400.0;
  g.cache_hit_latency_ns = 60.0;
  g.atomic_op_ns = 30.0;
  g.atomic_rmw_ns = 25.0;
  g.atomic_propagate_ns = 350.0;
  g.spin_poll_ns = 250.0;
  g.kernel_launch_ns = 4000.0;
  g.grid_sync_ns = 700.0;
  return g;
}

GpuSpec scale_for_dataset(const GpuSpec& base, double factor) {
  GpuSpec g = base;
  if (factor <= 1.0) return g;
  g.name = base.name + " (1/" + std::to_string(static_cast<int>(factor)) +
           " dataset scale)";
  g.dram_latency_ns /= factor;
  g.cache_hit_latency_ns /= factor;
  g.atomic_op_ns /= factor;
  g.atomic_rmw_ns /= factor;
  g.atomic_propagate_ns /= factor;
  g.spin_poll_ns /= factor;
  g.kernel_launch_ns /= factor;
  g.grid_sync_ns /= factor;
  g.warp_start_ns /= factor;
  g.divide_ns /= factor;
  g.shuffle_reduce_ns /= factor;
  g.cache_bytes = static_cast<std::size_t>(
      static_cast<double>(base.cache_bytes) / factor);
  // Resident-warp count is deliberately NOT scaled: level widths and
  // wavefronts in the scaled matrices keep near-full-size magnitudes (level
  // depth is structural, only the row count shrinks), so shrinking the warp
  // pool would starve wavefronts that the real device runs concurrently.
  return g;
}

int paper_stop_rows(const GpuSpec& base, double factor) {
  const double rule = 20.0 * static_cast<double>(base.cores()) / factor;
  return rule < 256.0 ? 256 : static_cast<int>(rule);
}

HostSpec host_default() { return HostSpec{}; }

}  // namespace blocktri::sim
