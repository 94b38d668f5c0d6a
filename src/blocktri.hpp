// Umbrella header for the blocktri library — block algorithms for parallel
// sparse triangular solve (reproduction of Lu, Niu & Liu, ICPP 2020).
//
// Quick start:
//
//   #include "blocktri.hpp"
//   using namespace blocktri;
//
//   Csr<double> L = gen::grid2d(300, 300, /*seed=*/1);   // lower triangular
//   BlockSolver<double>::Options opt;
//   opt.planner.stop_rows = 4096;
//   BlockSolver<double> solver(L, opt);                  // preprocess once
//   std::vector<double> x = solver.solve(b);             // solve many rhs
//
// See README.md for the module map and examples/ for runnable programs.
#pragma once

#include "common/cli.hpp"            // IWYU pragma: export
#include "common/deadline.hpp"       // IWYU pragma: export
#include "common/status.hpp"         // IWYU pragma: export
#include "common/rng.hpp"            // IWYU pragma: export
#include "common/table.hpp"          // IWYU pragma: export
#include "common/timer.hpp"          // IWYU pragma: export
#include "common/workspace_pool.hpp" // IWYU pragma: export

#include "analysis/features.hpp"   // IWYU pragma: export
#include "analysis/levels.hpp"     // IWYU pragma: export
#include "core/adaptive.hpp"       // IWYU pragma: export
#include "core/plan.hpp"           // IWYU pragma: export
#include "core/solver.hpp"         // IWYU pragma: export
#include "gen/generators.hpp"      // IWYU pragma: export
#include "gen/suite.hpp"           // IWYU pragma: export
#include "model/kernels.hpp"       // IWYU pragma: export
#include "model/replay.hpp"        // IWYU pragma: export
#include "persist/artifact.hpp"    // IWYU pragma: export
#include "persist/plan_cache.hpp"  // IWYU pragma: export
#include "service/client.hpp"        // IWYU pragma: export
#include "service/server.hpp"        // IWYU pragma: export
#include "service/solve_service.hpp" // IWYU pragma: export
#include "service/wire.hpp"          // IWYU pragma: export
#include "shard/coordinator.hpp"   // IWYU pragma: export
#include "sim/cache.hpp"           // IWYU pragma: export
#include "sim/host_sim.hpp"        // IWYU pragma: export
#include "sim/kernel_sim.hpp"      // IWYU pragma: export
#include "sim/machine.hpp"         // IWYU pragma: export
#include "sim/report.hpp"          // IWYU pragma: export
#include "sparse/convert.hpp"      // IWYU pragma: export
#include "sparse/dense.hpp"        // IWYU pragma: export
#include "sparse/formats.hpp"      // IWYU pragma: export
#include "sparse/mm_io.hpp"        // IWYU pragma: export
#include "sparse/permute.hpp"      // IWYU pragma: export
#include "sparse/sanitize.hpp"     // IWYU pragma: export
#include "sparse/triangular.hpp"   // IWYU pragma: export
#include "spmv/kernels.hpp"        // IWYU pragma: export
#include "sptrsv/serial.hpp"       // IWYU pragma: export
#include "sptrsv/triangle.hpp"     // IWYU pragma: export
#include "sptrsv/upper.hpp"        // IWYU pragma: export
