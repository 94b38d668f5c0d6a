// Core scalar/index typedefs shared by every blocktri module. The error
// machinery (Status, Error, BLOCKTRI_CHECK) lives in common/status.hpp and is
// re-exported here so existing includes keep working.
//
// Conventions (see DESIGN.md §5):
//   * index_t  — row/column indices. 32-bit: the paper's dataset tops out at
//                ~69 M rows, far below 2^31.
//   * offset_t — positions into nonzero arrays (row_ptr / col_ptr). 64-bit so
//                matrices with more than 2^31 nonzeros remain representable.
//   * value_t  — templated per kernel as float or double (Fig. 7 compares the
//                two precisions), never hard-coded.
#pragma once

#include <cstdint>

#include "common/status.hpp"  // IWYU pragma: export

namespace blocktri {

using index_t = std::int32_t;
using offset_t = std::int64_t;

/// GPU warp width assumed by every simulated kernel's cost model (32-lane
/// gathers, warp-per-row processing, scalar-kernel divergence groups).
inline constexpr int kWarp = 32;

/// Column-tile width of the batched (multi-RHS) host kernels: each row visit
/// streams the row's structure once and updates up to this many right-hand
/// sides from a stack-resident accumulator before the next tile. Per column
/// the floating-point operation order equals the single-RHS kernel's, so the
/// batched results are bitwise identical to k independent solves. Wider
/// tiles stream the structure fewer times but spill the blocked kernels'
/// accumulator arrays out of registers; 8 measures fastest on the service
/// panel shapes (see bench/service_load.cpp).
inline constexpr int kRhsTile = 8;

}  // namespace blocktri
