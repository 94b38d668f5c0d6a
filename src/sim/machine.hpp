// Machine descriptions for the execution-model simulator.
//
// The paper evaluates on two real GPUs (Table 3):
//   * NVIDIA Titan X (Pascal), 3072 CUDA cores @ 1075 MHz, 12 GB, 336.5 GB/s
//   * NVIDIA Titan RTX (Turing), 4608 CUDA cores @ 1770 MHz, 24 GB, 672 GB/s
// This machine has no GPU, so those devices are modelled (DESIGN.md §2): the
// GpuSpec captures the architectural parameters that drive SpTRSV behaviour —
// concurrency (resident warps), memory bandwidth, cache capacity, random
// access latency, atomic cost/visibility latency, and kernel launch /
// device-sync overheads. Latency constants follow published microbenchmark
// studies of these architectures (Jia et al., "Dissecting the NVIDIA
// Volta/Turing GPU architecture via microbenchmarking") at order-of-magnitude
// fidelity; EXPERIMENTS.md compares result *shape*, not absolute numbers.
#pragma once

#include <cstddef>
#include <string>

namespace blocktri::sim {

struct GpuSpec {
  std::string name;

  // Parallelism.
  int num_sms = 0;
  int cores_per_sm = 0;
  int warp_size = 32;
  int max_warps_per_sm = 32;  // resident-warp limit (occupancy ceiling)

  // Rates.
  double clock_ghz = 1.0;
  double mem_bandwidth_gbps = 100.0;  // GB/s == bytes/ns
  double fp32_flops_per_core_per_cycle = 2.0;  // FMA
  double fp64_rate = 1.0 / 32.0;  // GeForce-class FP64 throughput ratio

  // Latencies (nanoseconds).
  double dram_latency_ns = 400.0;     // random access, cache miss
  double cache_hit_latency_ns = 40.0; // modelled unified L2-ish cache hit
  double atomic_op_ns = 30.0;         // per atomic issued by a warp lane
  double atomic_rmw_ns = 25.0;        // serialised read-modify-write on ONE
                                      // address (per-address contention)
  double atomic_propagate_ns = 350.0; // producer->consumer visibility
  double spin_poll_ns = 250.0;        // busy-wait detection latency once a
                                      // dependency actually stalls a warp
  double kernel_launch_ns = 4000.0;   // host-side kernel launch overhead
  double grid_sync_ns = 700.0;        // intra-kernel device-wide barrier
  double warp_start_ns = 10.0;        // per-warp scheduling overhead
  double divide_ns = 15.0;            // fp divide at the end of a component
  double shuffle_reduce_ns = 15.0;    // 5-step warp shuffle reduction

  // Modelled cache geometry (one unified level, sized like the L2).
  std::size_t cache_bytes = 4u << 20;
  int cache_line_bytes = 128;
  int cache_assoc = 8;

  int cores() const { return num_sms * cores_per_sm; }
  int warp_slots() const { return num_sms * max_warps_per_sm; }
  double peak_flops_per_ns(bool fp64) const {
    const double fp32 = static_cast<double>(cores()) * clock_ghz *
                        fp32_flops_per_core_per_cycle;
    return fp64 ? fp32 * fp64_rate : fp32;
  }
};

/// Table 3 row 1: Titan X (Pascal). 24 SMs x 128 cores.
GpuSpec titan_x();

/// Table 3 row 2: Titan RTX (Turing). 72 SMs x 64 cores, larger L2 (6 MB).
GpuSpec titan_rtx();

/// Scales a device description to match a dataset scaled down by `factor`.
///
/// The benchmark suite reproduces the paper's 159 matrices at roughly
/// 1/factor of their row/nonzero counts (DESIGN.md §2). On the real device,
/// solve time decomposes into work terms (∝ nnz / bandwidth, ∝ tasks /
/// warp-slots) and overhead terms (kernel launches, level barriers, atomic
/// visibility chains ∝ level depth). Shrinking the matrix shrinks only the
/// work terms, which would exaggerate every overhead 16-fold and distort the
/// algorithm comparison. Dividing all *latency* and *capacity* quantities
/// (launch, sync, DRAM latency, atomics, cache bytes, resident warps) by the
/// same factor — while keeping the *rates* (bandwidth, clock) — restores the
/// full-size overhead-to-work ratios exactly. EXPERIMENTS.md reports which
/// factor each experiment used.
GpuSpec scale_for_dataset(const GpuSpec& base, double factor);

/// The paper's recursion stop rule (§3.4): blocks no smaller than
/// 20 x core count, expressed on a dataset scaled down by `factor`.
int paper_stop_rows(const GpuSpec& base, double factor);

/// Host CPU description used to model the preprocessing passes (Table 5).
/// Calibrated to a contemporary workstation with the analysis passes
/// parallelised over ~8 cores (counting sorts, permutation scatters and
/// block extraction are all embarrassingly parallel; production inspector
/// implementations run them threaded).
struct HostSpec {
  std::string name = "host-cpu (8 threads)";
  double ops_per_ns = 12.0;       // simple integer/compare ops
  double mem_bandwidth_gbps = 80; // bytes/ns streamed
};

HostSpec host_default();

}  // namespace blocktri::sim
