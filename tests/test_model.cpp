// Known answers of the paper's GPU model (DESIGN.md §2). The model reads a
// plan's structure only, so these figures move only when the model, a plan
// or a kernel choice changes:
//   * BlockSolver::solve_simulated on two src/gen fixtures, fp64 and fp32,
//     for the four schemes × each forced triangle kernel × a CSR and a DCSR
//     square kernel, and for adaptive plans: the pass on a fresh (cold)
//     cache, then a second (warm) pass on the same cache;
//   * each baseline kernel over a whole matrix, as bench/harness.hpp's
//     measure_baseline times it;
//   * the calibrated cost model, and the kinds and oracle scores of one
//     tuned plan.
// A row that differs from its pin (or has none) fails and prints the row
// this build measured, in the table's syntax.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../bench/harness.hpp"

namespace blocktri {
namespace {

/// One simulated report: `ns` and the breakdown's times as hex floats.
struct Pin {
  const char* tag;
  double ns;
  long long bytes, flops;
  int launches, syncs;
  unsigned long long hits, misses;
  double tri_ns, spmv_ns;
  int tri_kernels, spmv_kernels;
};

// clang-format off
const Pin kPins[] = {
    {"levels/f64/column-block/adaptive/cold",
     0x1.24abf9e79e79ep+14, 154792, 14740, 63, 0, 12382, 284, 0x1.178dp+14, 0x1.a3df3cf3cf3dp+9, 60, 3},
    {"levels/f64/column-block/adaptive/warm",
     0x1.0694a49249249p+14, 118440, 14740, 63, 0, 12666, 0, 0x1.f356p+13, 0x1.9d34924924928p+9, 60, 3},
    {"levels/f64/column-block/completely-parallel+scalar-CSR/cold",
     0x1.ceb879e79e79fp+12, 272596, 14740, 11, 0, 16993, 329, 0x1.90ee924924925p+12, 0x1.ee4f3cf3cf3d4p+9, 8, 3},
    {"levels/f64/column-block/completely-parallel+scalar-CSR/warm",
     0x1.b06f249249249p+12, 230484, 14740, 11, 0, 17322, 0, 0x1.737a924924924p+12, 0x1.e7a4924924928p+9, 8, 3},
    {"levels/f64/column-block/completely-parallel+vector-DCSR/cold",
     0x1.c5a50c30c30c3p+12, 175012, 14740, 11, 0, 16448, 329, 0x1.90ee924924925p+12, 0x1.a5b3cf3cf3cf2p+9, 8, 3},
    {"levels/f64/column-block/completely-parallel+vector-DCSR/warm",
     0x1.a75bb6db6db6dp+12, 132900, 14740, 11, 0, 16777, 0, 0x1.737a924924924p+12, 0x1.9f09249249248p+9, 8, 3},
    {"levels/f64/column-block/level-set+vector-CSR/cold",
     0x1.24abf9e79e79ep+14, 154792, 14740, 63, 0, 12382, 284, 0x1.178dp+14, 0x1.a3df3cf3cf3dp+9, 60, 3},
    {"levels/f64/column-block/level-set+vector-CSR/warm",
     0x1.0694a49249249p+14, 118440, 14740, 63, 0, 12666, 0, 0x1.f356p+13, 0x1.9d34924924928p+9, 60, 3},
    {"levels/f64/column-block/level-set+scalar-DCSR/cold",
     0x1.270e1e79e79e8p+14, 257296, 14740, 63, 0, 11837, 284, 0x1.178dp+14, 0x1.f023cf3cf3dp+9, 60, 3},
    {"levels/f64/column-block/level-set+scalar-DCSR/warm",
     0x1.08f6c92492492p+14, 220944, 14740, 63, 0, 12121, 0, 0x1.f355fffffffffp+13, 0x1.e97924924925p+9, 60, 3},
    {"levels/f64/column-block/sync-free+scalar-CSR/cold",
     0x1.ceb879e79e79fp+12, 272596, 14740, 11, 0, 16993, 329, 0x1.90ee924924925p+12, 0x1.ee4f3cf3cf3d4p+9, 8, 3},
    {"levels/f64/column-block/sync-free+scalar-CSR/warm",
     0x1.b06f249249249p+12, 230484, 14740, 11, 0, 17322, 0, 0x1.737a924924924p+12, 0x1.e7a4924924928p+9, 8, 3},
    {"levels/f64/column-block/sync-free+vector-DCSR/cold",
     0x1.c5a50c30c30c3p+12, 175012, 14740, 11, 0, 16448, 329, 0x1.90ee924924925p+12, 0x1.a5b3cf3cf3cf2p+9, 8, 3},
    {"levels/f64/column-block/sync-free+vector-DCSR/warm",
     0x1.a75bb6db6db6dp+12, 132900, 14740, 11, 0, 16777, 0, 0x1.737a924924924p+12, 0x1.9f09249249248p+9, 8, 3},
    {"levels/f64/column-block/cusparse-like+vector-CSR/cold",
     0x1.0d49f3cf3cf3dp+13, 326068, 14740, 7, 56, 12382, 284, 0x1.e618p+12, 0x1.a3df3cf3cf3dp+9, 4, 3},
    {"levels/f64/column-block/cusparse-like+vector-CSR/warm",
     0x1.6672924924925p+12, 289716, 14740, 7, 56, 12666, 0, 0x1.32ccp+12, 0x1.9d34924924928p+9, 4, 3},
    {"levels/f64/column-block/cusparse-like+scalar-DCSR/cold",
     0x1.120e3cf3cf3dp+13, 428572, 14740, 7, 56, 11837, 284, 0x1.e618000000001p+12, 0x1.f023cf3cf3cf4p+9, 4, 3},
    {"levels/f64/column-block/cusparse-like+scalar-DCSR/warm",
     0x1.6ffb249249249p+12, 392220, 14740, 7, 56, 12121, 0, 0x1.32ccp+12, 0x1.e97924924924ap+9, 4, 3},
    {"grid/f64/column-block/adaptive/cold",
     0x1.0d169b6db6db6p+14, 115728, 8488, 11, 0, 11053, 315, 0x1.ffe5b6db6db6cp+13, 0x1.a478p+9, 8, 3},
    {"grid/f64/column-block/adaptive/warm",
     0x1.d92336db6db6dp+13, 75408, 8488, 11, 0, 11368, 0, 0x1.c0d9b6db6db6dp+13, 0x1.8498p+9, 8, 3},
    {"grid/f64/column-block/completely-parallel+scalar-CSR/cold",
     0x1.071e924924924p+14, 135888, 8488, 11, 0, 13093, 315, 0x1.f545b6db6db6dp+13, 0x1.8f76db6db6dbp+9, 8, 3},
    {"grid/f64/column-block/completely-parallel+scalar-CSR/warm",
     0x1.d963db6db6db7p+13, 95568, 8488, 11, 0, 13408, 0, 0x1.c0d9b6db6db6ep+13, 0x1.88a2492492494p+9, 8, 3},
    {"grid/f64/column-block/completely-parallel+vector-DCSR/cold",
     0x1.0d169b6db6db6p+14, 115728, 8488, 11, 0, 11053, 315, 0x1.ffe5b6db6db6cp+13, 0x1.a478p+9, 8, 3},
    {"grid/f64/column-block/completely-parallel+vector-DCSR/warm",
     0x1.d92336db6db6dp+13, 75408, 8488, 11, 0, 11368, 0, 0x1.c0d9b6db6db6dp+13, 0x1.8498p+9, 8, 3},
    {"grid/f64/column-block/level-set+vector-CSR/cold",
     0x1.b483524924924p+15, 114672, 8488, 195, 0, 9011, 273, 0x1.ae46p+15, 0x1.8f5492492492p+9, 192, 3},
    {"grid/f64/column-block/level-set+vector-CSR/warm",
     0x1.95d5d6db6db6ep+15, 79728, 8488, 195, 0, 9284, 0, 0x1.8fbap+15, 0x1.86f5b6db6db7p+9, 192, 3},
    {"grid/f64/column-block/level-set+scalar-DCSR/cold",
     0x1.bec84p+15, 103152, 8488, 195, 0, 6971, 273, 0x1.b83cp+15, 0x1.a31p+9, 192, 3},
    {"grid/f64/column-block/level-set+scalar-DCSR/warm",
     0x1.95c6cp+15, 68208, 8488, 195, 0, 7244, 0, 0x1.8fbap+15, 0x1.833p+9, 192, 3},
    {"grid/f64/column-block/sync-free+scalar-CSR/cold",
     0x1.071e924924924p+14, 135888, 8488, 11, 0, 13093, 315, 0x1.f545b6db6db6dp+13, 0x1.8f76db6db6dbp+9, 8, 3},
    {"grid/f64/column-block/sync-free+scalar-CSR/warm",
     0x1.d963db6db6db7p+13, 95568, 8488, 11, 0, 13408, 0, 0x1.c0d9b6db6db6ep+13, 0x1.88a2492492494p+9, 8, 3},
    {"grid/f64/column-block/sync-free+vector-DCSR/cold",
     0x1.0d169b6db6db6p+14, 115728, 8488, 11, 0, 11053, 315, 0x1.ffe5b6db6db6cp+13, 0x1.a478p+9, 8, 3},
    {"grid/f64/column-block/sync-free+vector-DCSR/warm",
     0x1.d92336db6db6dp+13, 75408, 8488, 11, 0, 11368, 0, 0x1.c0d9b6db6db6dp+13, 0x1.8498p+9, 8, 3},
    {"grid/f64/column-block/cusparse-like+vector-CSR/cold",
     0x1.1a98a49249249p+14, 268896, 8488, 7, 188, 9011, 273, 0x1.0e1ep+14, 0x1.8f5492492492p+9, 4, 3},
    {"grid/f64/column-block/cusparse-like+vector-CSR/warm",
     0x1.b12f5b6db6db7p+13, 233952, 8488, 7, 188, 9284, 0, 0x1.98cp+13, 0x1.86f5b6db6db7p+9, 4, 3},
    {"grid/f64/column-block/cusparse-like+scalar-DCSR/cold",
     0x1.2f228p+14, 257376, 8488, 7, 188, 6971, 273, 0x1.220ap+14, 0x1.a31p+9, 4, 3},
    {"grid/f64/column-block/cusparse-like+scalar-DCSR/warm",
     0x1.b0f3p+13, 222432, 8488, 7, 188, 7244, 0, 0x1.98cp+13, 0x1.833p+9, 4, 3},
    {"levels/f32/column-block/adaptive/cold",
     0x1.2df0279e79e7ap+14, 113024, 14740, 63, 0, 12432, 188, 0x1.212ep+14, 0x1.9844f3cf3cf38p+9, 60, 3},
    {"levels/f32/column-block/adaptive/warm",
     0x1.06527cf3cf3cfp+14, 88960, 14740, 63, 0, 12620, 0, 0x1.f356p+13, 0x1.94ef9e79e79ep+9, 60, 3},
    {"levels/f32/column-block/completely-parallel+scalar-CSR/cold",
     0x1.be20492492493p+12, 185720, 14740, 11, 0, 17023, 188, 0x1.84e3b6db6db6ep+12, 0x1.c9e492492492ap+9, 8, 3},
    {"levels/f32/column-block/completely-parallel+scalar-CSR/warm",
     0x1.abbd9e79e79e7p+12, 161656, 14740, 11, 0, 17211, 0, 0x1.72ebb6db6db6dp+12, 0x1.c68f3cf3cf3ccp+9, 8, 3},
    {"levels/f32/column-block/completely-parallel+vector-DCSR/cold",
     0x1.b826db6db6db7p+12, 121484, 14740, 11, 0, 16478, 188, 0x1.84e3b6db6db6dp+12, 0x1.9a1924924924cp+9, 8, 3},
    {"levels/f32/column-block/completely-parallel+vector-DCSR/warm",
     0x1.a5c430c30c30bp+12, 97420, 14740, 11, 0, 16666, 0, 0x1.72ebb6db6db6dp+12, 0x1.96c3cf3cf3ceep+9, 8, 3},
    {"levels/f32/column-block/level-set+vector-CSR/cold",
     0x1.2df0279e79e7ap+14, 113024, 14740, 63, 0, 12432, 188, 0x1.212ep+14, 0x1.9844f3cf3cf38p+9, 60, 3},
    {"levels/f32/column-block/level-set+vector-CSR/warm",
     0x1.06527cf3cf3cfp+14, 88960, 14740, 63, 0, 12620, 0, 0x1.f356p+13, 0x1.94ef9e79e79ep+9, 60, 3},
    {"levels/f32/column-block/level-set+scalar-DCSR/cold",
     0x1.2f8bc92492492p+14, 182180, 14740, 63, 0, 11887, 188, 0x1.212ep+14, 0x1.cbb9249249248p+9, 60, 3},
    {"levels/f32/column-block/level-set+scalar-DCSR/warm",
     0x1.07ee1e79e79e8p+14, 158116, 14740, 63, 0, 12075, 0, 0x1.f356000000001p+13, 0x1.c863cf3cf3cfp+9, 60, 3},
    {"levels/f32/column-block/sync-free+scalar-CSR/cold",
     0x1.be20492492493p+12, 185720, 14740, 11, 0, 17023, 188, 0x1.84e3b6db6db6ep+12, 0x1.c9e492492492ap+9, 8, 3},
    {"levels/f32/column-block/sync-free+scalar-CSR/warm",
     0x1.abbd9e79e79e7p+12, 161656, 14740, 11, 0, 17211, 0, 0x1.72ebb6db6db6dp+12, 0x1.c68f3cf3cf3ccp+9, 8, 3},
    {"levels/f32/column-block/sync-free+vector-DCSR/cold",
     0x1.b826db6db6db7p+12, 121484, 14740, 11, 0, 16478, 188, 0x1.84e3b6db6db6dp+12, 0x1.9a1924924924cp+9, 8, 3},
    {"levels/f32/column-block/sync-free+vector-DCSR/warm",
     0x1.a5c430c30c30bp+12, 97420, 14740, 11, 0, 16666, 0, 0x1.72ebb6db6db6dp+12, 0x1.96c3cf3cf3ceep+9, 8, 3},
    {"levels/f32/column-block/cusparse-like+vector-CSR/cold",
     0x1.01f04f3cf3cf4p+13, 229208, 14740, 7, 56, 12432, 188, 0x1.d0d8p+12, 0x1.9844f3cf3cf4p+9, 4, 3},
    {"levels/f32/column-block/cusparse-like+vector-CSR/warm",
     0x1.6569f3cf3cf3dp+12, 205144, 14740, 7, 56, 12620, 0, 0x1.32ccp+12, 0x1.94ef9e79e79e8p+9, 4, 3},
    {"levels/f32/column-block/cusparse-like+scalar-DCSR/cold",
     0x1.0527924924924p+13, 298364, 14740, 7, 56, 11887, 188, 0x1.d0d8p+12, 0x1.cbb9249249244p+9, 4, 3},
    {"levels/f32/column-block/cusparse-like+scalar-DCSR/warm",
     0x1.6bd879e79e79ep+12, 274300, 14740, 7, 56, 12075, 0, 0x1.32ccp+12, 0x1.c863cf3cf3cf4p+9, 4, 3},
    {"grid/f32/column-block/adaptive/cold",
     0x1.0182524924924p+14, 75712, 8488, 11, 0, 11188, 180, 0x1.e8bd249249249p+13, 0x1.a477ffffffff4p+9, 8, 3},
    {"grid/f32/column-block/adaptive/warm",
     0x1.d8dea49249249p+13, 52672, 8488, 11, 0, 11368, 0, 0x1.c095249249249p+13, 0x1.8498p+9, 8, 3},
    {"grid/f32/column-block/completely-parallel+scalar-CSR/cold",
     0x1.fc5cf3cf3cf3cp+13, 94432, 8488, 11, 0, 13228, 180, 0x1.e36d249249249p+13, 0x1.8efcf3cf3cf34p+9, 8, 3},
    {"grid/f32/column-block/completely-parallel+scalar-CSR/warm",
     0x1.d9100c30c30c3p+13, 71392, 8488, 11, 0, 13408, 0, 0x1.c095249249249p+13, 0x1.87ae79e79e7ap+9, 8, 3},
    {"grid/f32/column-block/completely-parallel+vector-DCSR/cold",
     0x1.0182524924924p+14, 75712, 8488, 11, 0, 11188, 180, 0x1.e8bd249249249p+13, 0x1.a477ffffffff4p+9, 8, 3},
    {"grid/f32/column-block/completely-parallel+vector-DCSR/warm",
     0x1.d8dea49249249p+13, 52672, 8488, 11, 0, 11368, 0, 0x1.c095249249249p+13, 0x1.8498p+9, 8, 3},
    {"grid/f32/column-block/level-set+vector-CSR/cold",
     0x1.addeep+15, 85792, 8488, 195, 0, 9104, 180, 0x1.a7a2p+15, 0x1.8f38p+9, 192, 3},
    {"grid/f32/column-block/level-set+vector-CSR/warm",
     0x1.95d4eaaaaaaabp+15, 62752, 8488, 195, 0, 9284, 0, 0x1.8fbap+15, 0x1.86baaaaaaaabp+9, 192, 3},
    {"grid/f32/column-block/level-set+scalar-DCSR/cold",
     0x1.b3294p+15, 72832, 8488, 195, 0, 7064, 180, 0x1.ac9dp+15, 0x1.a31p+9, 192, 3},
    {"grid/f32/column-block/level-set+scalar-DCSR/warm",
     0x1.95c6cp+15, 49792, 8488, 195, 0, 7244, 0, 0x1.8fbap+15, 0x1.833p+9, 192, 3},
    {"grid/f32/column-block/sync-free+scalar-CSR/cold",
     0x1.fc5cf3cf3cf3cp+13, 94432, 8488, 11, 0, 13228, 180, 0x1.e36d249249249p+13, 0x1.8efcf3cf3cf34p+9, 8, 3},
    {"grid/f32/column-block/sync-free+scalar-CSR/warm",
     0x1.d9100c30c30c3p+13, 71392, 8488, 11, 0, 13408, 0, 0x1.c095249249249p+13, 0x1.87ae79e79e7ap+9, 8, 3},
    {"grid/f32/column-block/sync-free+vector-DCSR/cold",
     0x1.0182524924924p+14, 75712, 8488, 11, 0, 11188, 180, 0x1.e8bd249249249p+13, 0x1.a477ffffffff4p+9, 8, 3},
    {"grid/f32/column-block/sync-free+vector-DCSR/warm",
     0x1.d8dea49249249p+13, 52672, 8488, 11, 0, 11368, 0, 0x1.c095249249249p+13, 0x1.8498p+9, 8, 3},
    {"grid/f32/column-block/cusparse-like+vector-CSR/cold",
     0x1.08a9cp+14, 190528, 8488, 7, 188, 9104, 180, 0x1.f86p+13, 0x1.8f38p+9, 4, 3},
    {"grid/f32/column-block/cusparse-like+vector-CSR/warm",
     0x1.b12baaaaaaaabp+13, 167488, 8488, 7, 188, 9284, 0, 0x1.98cp+13, 0x1.86baaaaaaaaacp+9, 4, 3},
    {"grid/f32/column-block/cusparse-like+scalar-DCSR/cold",
     0x1.133e8p+14, 177568, 8488, 7, 188, 7064, 180, 0x1.0626p+14, 0x1.a31p+9, 4, 3},
    {"grid/f32/column-block/cusparse-like+scalar-DCSR/warm",
     0x1.b0f3p+13, 154528, 8488, 7, 188, 7244, 0, 0x1.98cp+13, 0x1.833p+9, 4, 3},
    {"levels/f64/row-block/adaptive/cold",
     0x1.24b0cp+14, 145792, 14740, 63, 0, 11257, 284, 0x1.178dp+14, 0x1.a478p+9, 60, 3},
    {"levels/f64/row-block/adaptive/warm",
     0x1.065f124924924p+14, 109440, 14740, 63, 0, 11541, 0, 0x1.f355fffffffffp+13, 0x1.968249249249p+9, 60, 3},
    {"levels/f64/row-block/completely-parallel+scalar-CSR/cold",
     0x1.cde230c30c30cp+12, 263596, 14740, 11, 0, 15868, 329, 0x1.90ee924924924p+12, 0x1.e79cf3cf3cf3ep+9, 8, 3},
    {"levels/f64/row-block/completely-parallel+scalar-CSR/warm",
     0x1.af98db6db6db6p+12, 221484, 14740, 11, 0, 16197, 0, 0x1.737a924924923p+12, 0x1.e0f2492492494p+9, 8, 3},
    {"levels/f64/row-block/completely-parallel+vector-DCSR/cold",
     0x1.c57d924924924p+12, 167764, 14740, 11, 0, 15844, 329, 0x1.90ee924924924p+12, 0x1.a478p+9, 8, 3},
    {"levels/f64/row-block/completely-parallel+vector-DCSR/warm",
     0x1.a6af249249248p+12, 125652, 14740, 11, 0, 16173, 0, 0x1.737a924924923p+12, 0x1.99a4924924922p+9, 8, 3},
    {"levels/f64/row-block/level-set+vector-CSR/cold",
     0x1.24b0cp+14, 145792, 14740, 63, 0, 11257, 284, 0x1.178dp+14, 0x1.a478p+9, 60, 3},
    {"levels/f64/row-block/level-set+vector-CSR/warm",
     0x1.065f124924924p+14, 109440, 14740, 63, 0, 11541, 0, 0x1.f355fffffffffp+13, 0x1.968249249249p+9, 60, 3},
    {"levels/f64/row-block/level-set+scalar-DCSR/cold",
     0x1.26e2f9e79e79ep+14, 250048, 14740, 63, 0, 11233, 284, 0x1.178dp+14, 0x1.eabf3cf3cf3c8p+9, 60, 3},
    {"levels/f64/row-block/level-set+scalar-DCSR/warm",
     0x1.08cba49249249p+14, 213696, 14740, 63, 0, 11517, 0, 0x1.f356p+13, 0x1.e414924924928p+9, 60, 3},
    {"levels/f64/row-block/sync-free+scalar-CSR/cold",
     0x1.cde230c30c30cp+12, 263596, 14740, 11, 0, 15868, 329, 0x1.90ee924924924p+12, 0x1.e79cf3cf3cf3ep+9, 8, 3},
    {"levels/f64/row-block/sync-free+scalar-CSR/warm",
     0x1.af98db6db6db6p+12, 221484, 14740, 11, 0, 16197, 0, 0x1.737a924924923p+12, 0x1.e0f2492492494p+9, 8, 3},
    {"levels/f64/row-block/sync-free+vector-DCSR/cold",
     0x1.c57d924924924p+12, 167764, 14740, 11, 0, 15844, 329, 0x1.90ee924924924p+12, 0x1.a478p+9, 8, 3},
    {"levels/f64/row-block/sync-free+vector-DCSR/warm",
     0x1.a6af249249248p+12, 125652, 14740, 11, 0, 16173, 0, 0x1.737a924924923p+12, 0x1.99a4924924922p+9, 8, 3},
    {"levels/f64/row-block/cusparse-like+vector-CSR/cold",
     0x1.0d538p+13, 317068, 14740, 7, 56, 11257, 284, 0x1.e618p+12, 0x1.a478p+9, 4, 3},
    {"levels/f64/row-block/cusparse-like+vector-CSR/warm",
     0x1.659c492492493p+12, 280716, 14740, 7, 56, 11541, 0, 0x1.32ccp+12, 0x1.9682492492496p+9, 4, 3},
    {"levels/f64/row-block/cusparse-like+scalar-DCSR/cold",
     0x1.11b7f3cf3cf3cp+13, 421324, 14740, 7, 56, 11233, 284, 0x1.e617fffffffffp+12, 0x1.eabf3cf3cf3c8p+9, 4, 3},
    {"levels/f64/row-block/cusparse-like+scalar-DCSR/warm",
     0x1.6f4e924924924p+12, 384972, 14740, 7, 56, 11517, 0, 0x1.32ccp+12, 0x1.e41492492492p+9, 4, 3},
    {"grid/f64/row-block/adaptive/cold",
     0x1.0d169b6db6db6p+14, 115728, 8488, 11, 0, 11053, 315, 0x1.ffe5b6db6db6cp+13, 0x1.a478p+9, 8, 3},
    {"grid/f64/row-block/adaptive/warm",
     0x1.d92336db6db6dp+13, 75408, 8488, 11, 0, 11368, 0, 0x1.c0d9b6db6db6dp+13, 0x1.8498p+9, 8, 3},
    {"grid/f64/row-block/completely-parallel+scalar-CSR/cold",
     0x1.07bb5b6db6db6p+14, 127248, 8488, 11, 0, 12013, 315, 0x1.f545b6db6db6cp+13, 0x1.a31p+9, 8, 3},
    {"grid/f64/row-block/completely-parallel+scalar-CSR/warm",
     0x1.d90cb6db6db6dp+13, 86928, 8488, 11, 0, 12328, 0, 0x1.c0d9b6db6db6dp+13, 0x1.833p+9, 8, 3},
    {"grid/f64/row-block/completely-parallel+vector-DCSR/cold",
     0x1.0d169b6db6db6p+14, 115728, 8488, 11, 0, 11053, 315, 0x1.ffe5b6db6db6cp+13, 0x1.a478p+9, 8, 3},
    {"grid/f64/row-block/completely-parallel+vector-DCSR/warm",
     0x1.d92336db6db6dp+13, 75408, 8488, 11, 0, 11368, 0, 0x1.c0d9b6db6db6dp+13, 0x1.8498p+9, 8, 3},
    {"grid/f64/row-block/level-set+vector-CSR/cold",
     0x1.b4d7ep+15, 106032, 8488, 195, 0, 7931, 273, 0x1.ae46p+15, 0x1.a478p+9, 192, 3},
    {"grid/f64/row-block/level-set+vector-CSR/warm",
     0x1.95cc6p+15, 71088, 8488, 195, 0, 8204, 0, 0x1.8fbap+15, 0x1.8498p+9, 192, 3},
    {"grid/f64/row-block/level-set+scalar-DCSR/cold",
     0x1.bec84p+15, 103152, 8488, 195, 0, 6971, 273, 0x1.b83cp+15, 0x1.a31p+9, 192, 3},
    {"grid/f64/row-block/level-set+scalar-DCSR/warm",
     0x1.95c6cp+15, 68208, 8488, 195, 0, 7244, 0, 0x1.8fbap+15, 0x1.833p+9, 192, 3},
    {"grid/f64/row-block/sync-free+scalar-CSR/cold",
     0x1.07bb5b6db6db6p+14, 127248, 8488, 11, 0, 12013, 315, 0x1.f545b6db6db6cp+13, 0x1.a31p+9, 8, 3},
    {"grid/f64/row-block/sync-free+scalar-CSR/warm",
     0x1.d90cb6db6db6dp+13, 86928, 8488, 11, 0, 12328, 0, 0x1.c0d9b6db6db6dp+13, 0x1.833p+9, 8, 3},
    {"grid/f64/row-block/sync-free+vector-DCSR/cold",
     0x1.0d169b6db6db6p+14, 115728, 8488, 11, 0, 11053, 315, 0x1.ffe5b6db6db6cp+13, 0x1.a478p+9, 8, 3},
    {"grid/f64/row-block/sync-free+vector-DCSR/warm",
     0x1.d92336db6db6dp+13, 75408, 8488, 11, 0, 11368, 0, 0x1.c0d9b6db6db6dp+13, 0x1.8498p+9, 8, 3},
    {"grid/f64/row-block/cusparse-like+vector-CSR/cold",
     0x1.1b41cp+14, 260256, 8488, 7, 188, 7931, 273, 0x1.0e1ep+14, 0x1.a478p+9, 4, 3},
    {"grid/f64/row-block/cusparse-like+vector-CSR/warm",
     0x1.b1098p+13, 225312, 8488, 7, 188, 8204, 0, 0x1.98cp+13, 0x1.8498p+9, 4, 3},
    {"grid/f64/row-block/cusparse-like+scalar-DCSR/cold",
     0x1.2f228p+14, 257376, 8488, 7, 188, 6971, 273, 0x1.220ap+14, 0x1.a31p+9, 4, 3},
    {"grid/f64/row-block/cusparse-like+scalar-DCSR/warm",
     0x1.b0f3p+13, 222432, 8488, 7, 188, 7244, 0, 0x1.98cp+13, 0x1.833p+9, 4, 3},
    {"levels/f32/row-block/adaptive/cold",
     0x1.2e51cp+14, 104024, 14740, 63, 0, 11307, 188, 0x1.212ep+14, 0x1.a478p+9, 60, 3},
    {"levels/f32/row-block/adaptive/warm",
     0x1.061ce79e79e7ap+14, 79960, 14740, 63, 0, 11495, 0, 0x1.f356p+13, 0x1.8e3cf3cf3cf4p+9, 60, 3},
    {"levels/f32/row-block/completely-parallel+scalar-CSR/cold",
     0x1.bd49fffffffffp+12, 176720, 14740, 11, 0, 15898, 188, 0x1.84e3b6db6db6dp+12, 0x1.c33249249249p+9, 8, 3},
    {"levels/f32/row-block/completely-parallel+scalar-CSR/warm",
     0x1.aae7555555556p+12, 152656, 14740, 11, 0, 16086, 0, 0x1.72ebb6db6db6ep+12, 0x1.bfdcf3cf3cf4p+9, 8, 3},
    {"levels/f32/row-block/completely-parallel+vector-DCSR/cold",
     0x1.b972b6db6db6dp+12, 114236, 14740, 11, 0, 15874, 188, 0x1.84e3b6db6db6dp+12, 0x1.a478p+9, 8, 3},
    {"levels/f32/row-block/completely-parallel+vector-DCSR/warm",
     0x1.a5179e79e79e7p+12, 90172, 14740, 11, 0, 16062, 0, 0x1.72ebb6db6db6dp+12, 0x1.915f3cf3cf3dp+9, 8, 3},
    {"levels/f32/row-block/level-set+vector-CSR/cold",
     0x1.2e51cp+14, 104024, 14740, 63, 0, 11307, 188, 0x1.212ep+14, 0x1.a478p+9, 60, 3},
    {"levels/f32/row-block/level-set+vector-CSR/warm",
     0x1.061ce79e79e7ap+14, 79960, 14740, 63, 0, 11495, 0, 0x1.f356p+13, 0x1.8e3cf3cf3cf4p+9, 60, 3},
    {"levels/f32/row-block/level-set+scalar-DCSR/cold",
     0x1.2f60a49249249p+14, 174932, 14740, 63, 0, 11283, 188, 0x1.212ep+14, 0x1.c65492492492p+9, 60, 3},
    {"levels/f32/row-block/level-set+scalar-DCSR/warm",
     0x1.07c2f9e79e79ep+14, 150868, 14740, 63, 0, 11471, 0, 0x1.f355fffffffffp+13, 0x1.c2ff3cf3cf3c8p+9, 60, 3},
    {"levels/f32/row-block/sync-free+scalar-CSR/cold",
     0x1.bd49fffffffffp+12, 176720, 14740, 11, 0, 15898, 188, 0x1.84e3b6db6db6dp+12, 0x1.c33249249249p+9, 8, 3},
    {"levels/f32/row-block/sync-free+scalar-CSR/warm",
     0x1.aae7555555556p+12, 152656, 14740, 11, 0, 16086, 0, 0x1.72ebb6db6db6ep+12, 0x1.bfdcf3cf3cf4p+9, 8, 3},
    {"levels/f32/row-block/sync-free+vector-DCSR/cold",
     0x1.b972b6db6db6dp+12, 114236, 14740, 11, 0, 15874, 188, 0x1.84e3b6db6db6dp+12, 0x1.a478p+9, 8, 3},
    {"levels/f32/row-block/sync-free+vector-DCSR/warm",
     0x1.a5179e79e79e7p+12, 90172, 14740, 11, 0, 16062, 0, 0x1.72ebb6db6db6dp+12, 0x1.915f3cf3cf3dp+9, 8, 3},
    {"levels/f32/row-block/cusparse-like+vector-CSR/cold",
     0x1.02b38p+13, 220208, 14740, 7, 56, 11307, 188, 0x1.d0d8p+12, 0x1.a478p+9, 4, 3},
    {"levels/f32/row-block/cusparse-like+vector-CSR/warm",
     0x1.64939e79e79e7p+12, 196144, 14740, 7, 56, 11495, 0, 0x1.32ccp+12, 0x1.8e3cf3cf3cf3ap+9, 4, 3},
    {"levels/f32/row-block/cusparse-like+scalar-DCSR/cold",
     0x1.04d1492492492p+13, 291116, 14740, 7, 56, 11283, 188, 0x1.d0d8p+12, 0x1.c65492492492p+9, 4, 3},
    {"levels/f32/row-block/cusparse-like+scalar-DCSR/warm",
     0x1.6b2be79e79e7bp+12, 267052, 14740, 7, 56, 11471, 0, 0x1.32ccp+12, 0x1.c2ff3cf3cf3d4p+9, 4, 3},
    {"grid/f32/row-block/adaptive/cold",
     0x1.0182524924924p+14, 75712, 8488, 11, 0, 11188, 180, 0x1.e8bd249249249p+13, 0x1.a477ffffffff4p+9, 8, 3},
    {"grid/f32/row-block/adaptive/warm",
     0x1.d8dea49249249p+13, 52672, 8488, 11, 0, 11368, 0, 0x1.c095249249249p+13, 0x1.8498p+9, 8, 3},
    {"grid/f32/row-block/completely-parallel+scalar-CSR/cold",
     0x1.fd9e249249248p+13, 85792, 8488, 11, 0, 12148, 180, 0x1.e36d249249249p+13, 0x1.a30fffffffff4p+9, 8, 3},
    {"grid/f32/row-block/completely-parallel+scalar-CSR/warm",
     0x1.d8c8249249249p+13, 62752, 8488, 11, 0, 12328, 0, 0x1.c095249249249p+13, 0x1.833p+9, 8, 3},
    {"grid/f32/row-block/completely-parallel+vector-DCSR/cold",
     0x1.0182524924924p+14, 75712, 8488, 11, 0, 11188, 180, 0x1.e8bd249249249p+13, 0x1.a477ffffffff4p+9, 8, 3},
    {"grid/f32/row-block/completely-parallel+vector-DCSR/warm",
     0x1.d8dea49249249p+13, 52672, 8488, 11, 0, 11368, 0, 0x1.c095249249249p+13, 0x1.8498p+9, 8, 3},
    {"grid/f32/row-block/level-set+vector-CSR/cold",
     0x1.ae33ep+15, 77152, 8488, 195, 0, 8024, 180, 0x1.a7a2p+15, 0x1.a478p+9, 192, 3},
    {"grid/f32/row-block/level-set+vector-CSR/warm",
     0x1.95cc6p+15, 54112, 8488, 195, 0, 8204, 0, 0x1.8fbap+15, 0x1.8498p+9, 192, 3},
    {"grid/f32/row-block/level-set+scalar-DCSR/cold",
     0x1.b3294p+15, 72832, 8488, 195, 0, 7064, 180, 0x1.ac9dp+15, 0x1.a31p+9, 192, 3},
    {"grid/f32/row-block/level-set+scalar-DCSR/warm",
     0x1.95c6cp+15, 49792, 8488, 195, 0, 7244, 0, 0x1.8fbap+15, 0x1.833p+9, 192, 3},
    {"grid/f32/row-block/sync-free+scalar-CSR/cold",
     0x1.fd9e249249248p+13, 85792, 8488, 11, 0, 12148, 180, 0x1.e36d249249249p+13, 0x1.a30fffffffff4p+9, 8, 3},
    {"grid/f32/row-block/sync-free+scalar-CSR/warm",
     0x1.d8c8249249249p+13, 62752, 8488, 11, 0, 12328, 0, 0x1.c095249249249p+13, 0x1.833p+9, 8, 3},
    {"grid/f32/row-block/sync-free+vector-DCSR/cold",
     0x1.0182524924924p+14, 75712, 8488, 11, 0, 11188, 180, 0x1.e8bd249249249p+13, 0x1.a477ffffffff4p+9, 8, 3},
    {"grid/f32/row-block/sync-free+vector-DCSR/warm",
     0x1.d8dea49249249p+13, 52672, 8488, 11, 0, 11368, 0, 0x1.c095249249249p+13, 0x1.8498p+9, 8, 3},
    {"grid/f32/row-block/cusparse-like+vector-CSR/cold",
     0x1.0953cp+14, 181888, 8488, 7, 188, 8024, 180, 0x1.f86p+13, 0x1.a478p+9, 4, 3},
    {"grid/f32/row-block/cusparse-like+vector-CSR/warm",
     0x1.b1098p+13, 158848, 8488, 7, 188, 8204, 0, 0x1.98cp+13, 0x1.8498p+9, 4, 3},
    {"grid/f32/row-block/cusparse-like+scalar-DCSR/cold",
     0x1.133e8p+14, 177568, 8488, 7, 188, 7064, 180, 0x1.0626p+14, 0x1.a31p+9, 4, 3},
    {"grid/f32/row-block/cusparse-like+scalar-DCSR/warm",
     0x1.b0f3p+13, 154528, 8488, 7, 188, 7244, 0, 0x1.98cp+13, 0x1.833p+9, 4, 3},
    {"levels/f64/recursive-block/adaptive/cold",
     0x1.44ed0f3cf3cf4p+14, 154484, 14740, 71, 0, 12186, 288, 0x1.275p+14, 0x1.d9d0f3cf3cf4p+10, 64, 7},
    {"levels/f64/recursive-block/adaptive/warm",
     0x1.27126aaaaaaabp+14, 117620, 14740, 71, 0, 12474, 0, 0x1.0a18p+14, 0x1.cfa6aaaaaaaacp+10, 64, 7},
    {"levels/f64/recursive-block/completely-parallel+scalar-CSR/cold",
     0x1.4f6fcf3cf3cf4p+13, 302888, 14740, 23, 0, 16148, 329, 0x1.0ed6492492492p+13, 0x1.0266186186185p+11, 16, 7},
    {"levels/f64/recursive-block/completely-parallel+scalar-CSR/warm",
     0x1.38d9555555556p+13, 260776, 14740, 23, 0, 16477, 0, 0x1.f1ce924924925p+12, 0x1.ff9061861861cp+10, 16, 7},
    {"levels/f64/recursive-block/completely-parallel+vector-DCSR/cold",
     0x1.4a311e79e79e7p+13, 176548, 14740, 23, 0, 15729, 329, 0x1.0ed6492492492p+13, 0x1.dad6aaaaaaaa8p+10, 16, 7},
    {"levels/f64/recursive-block/completely-parallel+vector-DCSR/warm",
     0x1.331436db6db6dp+13, 134436, 14740, 23, 0, 16058, 0, 0x1.f1ce924924924p+12, 0x1.d1676db6db6dap+10, 16, 7},
    {"levels/f64/recursive-block/level-set+vector-CSR/cold",
     0x1.44ed0f3cf3cf4p+14, 155320, 14740, 71, 0, 12381, 288, 0x1.275p+14, 0x1.d9d0f3cf3cf4p+10, 64, 7},
    {"levels/f64/recursive-block/level-set+vector-CSR/warm",
     0x1.27126aaaaaaabp+14, 118456, 14740, 71, 0, 12669, 0, 0x1.0a18p+14, 0x1.cfa6aaaaaaaacp+10, 64, 7},
    {"levels/f64/recursive-block/level-set+scalar-DCSR/cold",
     0x1.47b4c30c30c31p+14, 289620, 14740, 71, 0, 11962, 288, 0x1.275p+14, 0x1.0326186186186p+11, 64, 7},
    {"levels/f64/recursive-block/level-set+scalar-DCSR/warm",
     0x1.2a2d124924924p+14, 252756, 14740, 71, 0, 12250, 0, 0x1.0a18p+14, 0x1.00a8924924927p+11, 64, 7},
    {"levels/f64/recursive-block/sync-free+scalar-CSR/cold",
     0x1.4f6fcf3cf3cf4p+13, 302888, 14740, 23, 0, 16148, 329, 0x1.0ed6492492492p+13, 0x1.0266186186185p+11, 16, 7},
    {"levels/f64/recursive-block/sync-free+scalar-CSR/warm",
     0x1.38d9555555556p+13, 260776, 14740, 23, 0, 16477, 0, 0x1.f1ce924924925p+12, 0x1.ff9061861861cp+10, 16, 7},
    {"levels/f64/recursive-block/sync-free+vector-DCSR/cold",
     0x1.4a311e79e79e7p+13, 176548, 14740, 23, 0, 15729, 329, 0x1.0ed6492492492p+13, 0x1.dad6aaaaaaaa8p+10, 16, 7},
    {"levels/f64/recursive-block/sync-free+vector-DCSR/warm",
     0x1.331436db6db6dp+13, 134436, 14740, 23, 0, 16058, 0, 0x1.f1ce924924924p+12, 0x1.d1676db6db6dap+10, 16, 7},
    {"levels/f64/recursive-block/cusparse-like+vector-CSR/cold",
     0x1.4a841e79e79e8p+13, 296320, 14740, 15, 56, 12381, 288, 0x1.0f4ap+13, 0x1.d9d0f3cf3cf4p+10, 8, 7},
    {"levels/f64/recursive-block/cusparse-like+vector-CSR/warm",
     0x1.e1d9aaaaaaaacp+12, 259456, 14740, 15, 56, 12669, 0, 0x1.6dfp+12, 0x1.cfa6aaaaaaaadp+10, 8, 7},
    {"levels/f64/recursive-block/cusparse-like+scalar-DCSR/cold",
     0x1.5013861861862p+13, 430620, 14740, 15, 56, 11962, 288, 0x1.0f4ap+13, 0x1.0326186186188p+11, 8, 7},
    {"levels/f64/recursive-block/cusparse-like+scalar-DCSR/warm",
     0x1.ee44492492492p+12, 393756, 14740, 15, 56, 12250, 0, 0x1.6dfp+12, 0x1.00a8924924924p+11, 8, 7},
    {"grid/f64/recursive-block/adaptive/cold",
     0x1.97e2cp+14, 100280, 8488, 87, 0, 7045, 277, 0x1.793ap+14, 0x1.ea8cp+10, 80, 7},
    {"grid/f64/recursive-block/adaptive/warm",
     0x1.6911cp+14, 64824, 8488, 87, 0, 7322, 0, 0x1.4cbcp+14, 0x1.c55cp+10, 80, 7},
    {"grid/f64/recursive-block/completely-parallel+scalar-CSR/cold",
     0x1.7638b6db6db6ep+13, 145320, 8488, 23, 0, 12831, 315, 0x1.3af1b6db6db6ep+13, 0x1.da38p+10, 16, 7},
    {"grid/f64/recursive-block/completely-parallel+scalar-CSR/warm",
     0x1.4e2e6db6db6dap+13, 105000, 8488, 23, 0, 13146, 0, 0x1.14d6b6db6db6cp+13, 0x1.cabdb6db6db6cp+10, 16, 7},
    {"grid/f64/recursive-block/completely-parallel+vector-DCSR/cold",
     0x1.803b36db6db6ep+13, 116664, 8488, 23, 0, 10869, 315, 0x1.42e9b6db6db6ep+13, 0x1.ea8cp+10, 16, 7},
    {"grid/f64/recursive-block/completely-parallel+vector-DCSR/warm",
     0x1.4d8236db6db6dp+13, 76344, 8488, 23, 0, 11184, 0, 0x1.14d6b6db6db6dp+13, 0x1.c55cp+10, 16, 7},
    {"grid/f64/recursive-block/level-set+vector-CSR/cold",
     0x1.8847cp+14, 115184, 8488, 87, 0, 9007, 277, 0x1.6af3p+14, 0x1.d54cp+10, 80, 7},
    {"grid/f64/recursive-block/level-set+vector-CSR/warm",
     0x1.6914edb6db6dcp+14, 79728, 8488, 87, 0, 9284, 0, 0x1.4cbcp+14, 0x1.c58edb6db6db8p+10, 80, 7},
    {"grid/f64/recursive-block/level-set+scalar-DCSR/cold",
     0x1.98318p+14, 114032, 8488, 87, 0, 7045, 277, 0x1.793ap+14, 0x1.ef78p+10, 80, 7},
    {"grid/f64/recursive-block/level-set+scalar-DCSR/warm",
     0x1.69608p+14, 78576, 8488, 87, 0, 7322, 0, 0x1.4cbcp+14, 0x1.ca48p+10, 80, 7},
    {"grid/f64/recursive-block/sync-free+scalar-CSR/cold",
     0x1.7638b6db6db6ep+13, 145320, 8488, 23, 0, 12831, 315, 0x1.3af1b6db6db6ep+13, 0x1.da38p+10, 16, 7},
    {"grid/f64/recursive-block/sync-free+scalar-CSR/warm",
     0x1.4e2e6db6db6dap+13, 105000, 8488, 23, 0, 13146, 0, 0x1.14d6b6db6db6cp+13, 0x1.cabdb6db6db6cp+10, 16, 7},
    {"grid/f64/recursive-block/sync-free+vector-DCSR/cold",
     0x1.803b36db6db6ep+13, 116664, 8488, 23, 0, 10869, 315, 0x1.42e9b6db6db6ep+13, 0x1.ea8cp+10, 16, 7},
    {"grid/f64/recursive-block/sync-free+vector-DCSR/warm",
     0x1.4d8236db6db6dp+13, 76344, 8488, 23, 0, 11184, 0, 0x1.14d6b6db6db6dp+13, 0x1.c55cp+10, 16, 7},
    {"grid/f64/recursive-block/cusparse-like+vector-CSR/cold",
     0x1.66098p+13, 259976, 8488, 15, 72, 9007, 277, 0x1.2b6p+13, 0x1.d54cp+10, 8, 7},
    {"grid/f64/recursive-block/cusparse-like+vector-CSR/warm",
     0x1.0a6bdb6db6db7p+13, 224520, 8488, 15, 72, 9284, 0, 0x1.a374p+12, 0x1.c58edb6db6db8p+10, 8, 7},
    {"grid/f64/recursive-block/cusparse-like+scalar-DCSR/cold",
     0x1.85ddp+13, 258824, 8488, 15, 72, 7045, 277, 0x1.47eep+13, 0x1.ef78p+10, 8, 7},
    {"grid/f64/recursive-block/cusparse-like+scalar-DCSR/warm",
     0x1.0b03p+13, 223368, 8488, 15, 72, 7322, 0, 0x1.a374p+12, 0x1.ca48p+10, 8, 7},
    {"levels/f32/recursive-block/adaptive/cold",
     0x1.4df7f9e79e79ep+14, 112204, 14740, 71, 0, 12239, 188, 0x1.309cp+14, 0x1.d5bf9e79e79e8p+10, 64, 7},
    {"levels/f32/recursive-block/adaptive/warm",
     0x1.26ccc61861862p+14, 88140, 14740, 71, 0, 12427, 0, 0x1.0a18p+14, 0x1.cb4c618618618p+10, 64, 7},
    {"levels/f32/recursive-block/completely-parallel+scalar-CSR/cold",
     0x1.47aab6db6db6ep+13, 205920, 14740, 23, 0, 16184, 188, 0x1.0957db6db6db7p+13, 0x1.f296db6db6db6p+10, 16, 7},
    {"levels/f32/recursive-block/completely-parallel+scalar-CSR/warm",
     0x1.362e79e79e79fp+13, 181856, 14740, 23, 0, 16372, 0, 0x1.f13fb6db6db6fp+12, 0x1.ec74f3cf3cf3dp+10, 16, 7},
    {"levels/f32/recursive-block/completely-parallel+vector-DCSR/cold",
     0x1.44308p+13, 123020, 14740, 23, 0, 15765, 188, 0x1.0957db6db6db7p+13, 0x1.d6c5249249248p+10, 16, 7},
    {"levels/f32/recursive-block/completely-parallel+vector-DCSR/warm",
     0x1.3239618618619p+13, 98956, 14740, 23, 0, 15953, 0, 0x1.f13fb6db6db6fp+12, 0x1.cccc30c30c30cp+10, 16, 7},
    {"levels/f32/recursive-block/level-set+vector-CSR/cold",
     0x1.4df7f9e79e79ep+14, 113040, 14740, 71, 0, 12434, 188, 0x1.309cp+14, 0x1.d5bf9e79e79e8p+10, 64, 7},
    {"levels/f32/recursive-block/level-set+vector-CSR/warm",
     0x1.26ccc61861862p+14, 88976, 14740, 71, 0, 12622, 0, 0x1.0a18p+14, 0x1.cb4c618618618p+10, 64, 7},
    {"levels/f32/recursive-block/level-set+scalar-DCSR/cold",
     0x1.4fdd6db6db6dcp+14, 203900, 14740, 71, 0, 12015, 188, 0x1.309cp+14, 0x1.f416db6db6dcp+10, 64, 7},
    {"levels/f32/recursive-block/level-set+scalar-DCSR/warm",
     0x1.28fb5b6db6db7p+14, 179836, 14740, 71, 0, 12203, 0, 0x1.0a18p+14, 0x1.ee35b6db6db6ep+10, 64, 7},
    {"levels/f32/recursive-block/sync-free+scalar-CSR/cold",
     0x1.47aab6db6db6ep+13, 205920, 14740, 23, 0, 16184, 188, 0x1.0957db6db6db7p+13, 0x1.f296db6db6db6p+10, 16, 7},
    {"levels/f32/recursive-block/sync-free+scalar-CSR/warm",
     0x1.362e79e79e79fp+13, 181856, 14740, 23, 0, 16372, 0, 0x1.f13fb6db6db6fp+12, 0x1.ec74f3cf3cf3dp+10, 16, 7},
    {"levels/f32/recursive-block/sync-free+vector-DCSR/cold",
     0x1.44308p+13, 123020, 14740, 23, 0, 15765, 188, 0x1.0957db6db6db7p+13, 0x1.d6c5249249248p+10, 16, 7},
    {"levels/f32/recursive-block/sync-free+vector-DCSR/warm",
     0x1.3239618618619p+13, 98956, 14740, 23, 0, 15953, 0, 0x1.f13fb6db6db6fp+12, 0x1.cccc30c30c30cp+10, 16, 7},
    {"levels/f32/recursive-block/cusparse-like+vector-CSR/cold",
     0x1.3eb7f3cf3cf3dp+13, 209040, 14740, 15, 56, 12434, 188, 0x1.04p+13, 0x1.d5bf9e79e79e8p+10, 8, 7},
    {"levels/f32/recursive-block/cusparse-like+vector-CSR/warm",
     0x1.e0c3186186186p+12, 184976, 14740, 15, 56, 12622, 0, 0x1.6dfp+12, 0x1.cb4c618618619p+10, 8, 7},
    {"levels/f32/recursive-block/cusparse-like+scalar-DCSR/cold",
     0x1.4282db6db6db7p+13, 299900, 14740, 15, 56, 12015, 188, 0x1.04p+13, 0x1.f416db6db6db8p+10, 8, 7},
    {"levels/f32/recursive-block/cusparse-like+scalar-DCSR/warm",
     0x1.e97d6db6db6dcp+12, 275836, 14740, 15, 56, 12203, 0, 0x1.6dfp+12, 0x1.ee35b6db6db7p+10, 8, 7},
    {"grid/f32/recursive-block/adaptive/cold",
     0x1.9adfcp+14, 70888, 8488, 87, 0, 7142, 180, 0x1.7c8cp+14, 0x1.e53cp+10, 80, 7},
    {"grid/f32/recursive-block/adaptive/warm",
     0x1.6911cp+14, 47848, 8488, 87, 0, 7322, 0, 0x1.4cbcp+14, 0x1.c55cp+10, 80, 7},
    {"grid/f32/recursive-block/completely-parallel+scalar-CSR/cold",
     0x1.6d02249249248p+13, 100720, 8488, 23, 0, 12966, 180, 0x1.31bb249249248p+13, 0x1.da37fffffffffp+10, 16, 7},
    {"grid/f32/recursive-block/completely-parallel+scalar-CSR/warm",
     0x1.4ddc249249249p+13, 77680, 8488, 23, 0, 13146, 0, 0x1.1492249249249p+13, 0x1.ca5p+10, 16, 7},
    {"grid/f32/recursive-block/completely-parallel+vector-DCSR/cold",
     0x1.7506a49249248p+13, 76648, 8488, 23, 0, 11004, 180, 0x1.385f249249248p+13, 0x1.e53bfffffffffp+10, 16, 7},
    {"grid/f32/recursive-block/completely-parallel+vector-DCSR/warm",
     0x1.4d3da49249249p+13, 53608, 8488, 23, 0, 11184, 0, 0x1.1492249249249p+13, 0x1.c55cp+10, 16, 7},
    {"grid/f32/recursive-block/level-set+vector-CSR/cold",
     0x1.8f40cp+14, 85792, 8488, 87, 0, 9104, 180, 0x1.71ecp+14, 0x1.d54cp+10, 80, 7},
    {"grid/f32/recursive-block/level-set+vector-CSR/warm",
     0x1.691336db6db6ep+14, 62752, 8488, 87, 0, 9284, 0, 0x1.4cbcp+14, 0x1.c5736db6db6d8p+10, 80, 7},
    {"grid/f32/recursive-block/level-set+scalar-DCSR/cold",
     0x1.9b2e8p+14, 80056, 8488, 87, 0, 7142, 180, 0x1.7c8cp+14, 0x1.ea28p+10, 80, 7},
    {"grid/f32/recursive-block/level-set+scalar-DCSR/warm",
     0x1.69608p+14, 57016, 8488, 87, 0, 7322, 0, 0x1.4cbcp+14, 0x1.ca48p+10, 80, 7},
    {"grid/f32/recursive-block/sync-free+scalar-CSR/cold",
     0x1.6d02249249248p+13, 100720, 8488, 23, 0, 12966, 180, 0x1.31bb249249248p+13, 0x1.da37fffffffffp+10, 16, 7},
    {"grid/f32/recursive-block/sync-free+scalar-CSR/warm",
     0x1.4ddc249249249p+13, 77680, 8488, 23, 0, 13146, 0, 0x1.1492249249249p+13, 0x1.ca5p+10, 16, 7},
    {"grid/f32/recursive-block/sync-free+vector-DCSR/cold",
     0x1.7506a49249248p+13, 76648, 8488, 23, 0, 11004, 180, 0x1.385f249249248p+13, 0x1.e53bfffffffffp+10, 16, 7},
    {"grid/f32/recursive-block/sync-free+vector-DCSR/warm",
     0x1.4d3da49249249p+13, 53608, 8488, 23, 0, 11184, 0, 0x1.1492249249249p+13, 0x1.c55cp+10, 16, 7},
    {"grid/f32/recursive-block/cusparse-like+vector-CSR/cold",
     0x1.56c38p+13, 184240, 8488, 15, 72, 9104, 180, 0x1.1c1ap+13, 0x1.d54cp+10, 8, 7},
    {"grid/f32/recursive-block/cusparse-like+vector-CSR/warm",
     0x1.0a686db6db6dcp+13, 161200, 8488, 15, 72, 9284, 0, 0x1.a374000000001p+12, 0x1.c5736db6db6dcp+10, 8, 7},
    {"grid/f32/recursive-block/cusparse-like+scalar-DCSR/cold",
     0x1.6e9fp+13, 178504, 8488, 15, 72, 7142, 180, 0x1.315ap+13, 0x1.ea28p+10, 8, 7},
    {"grid/f32/recursive-block/cusparse-like+scalar-DCSR/warm",
     0x1.0b03p+13, 155464, 8488, 15, 72, 7322, 0, 0x1.a374p+12, 0x1.ca48p+10, 8, 7},
    {"levels/f64/hbmc-block/adaptive/cold",
     0x1.79364p+14, 147512, 14740, 81, 0, 11460, 282, 0x1.49088p+14, 0x1.816ep+11, 70, 11},
    {"levels/f64/hbmc-block/adaptive/warm",
     0x1.4f604p+14, 111416, 14740, 81, 0, 11742, 0, 0x1.22d98p+14, 0x1.6436p+11, 70, 11},
    {"levels/f64/hbmc-block/completely-parallel+scalar-CSR/cold",
     0x1.b621c92492491p+13, 309924, 14740, 35, 0, 14772, 329, 0x1.523ac92492491p+13, 0x1.8f9cp+11, 24, 11},
    {"levels/f64/hbmc-block/completely-parallel+scalar-CSR/warm",
     0x1.9b32f3cf3cf3cp+13, 267812, 14740, 35, 0, 15101, 0, 0x1.3bcc492492491p+13, 0x1.7d9aaaaaaaaaap+11, 24, 11},
    {"levels/f64/hbmc-block/completely-parallel+vector-DCSR/cold",
     0x1.b296492492491p+13, 170956, 14740, 35, 0, 14767, 329, 0x1.523ac92492491p+13, 0x1.816dffffffffep+11, 24, 11},
    {"levels/f64/hbmc-block/completely-parallel+vector-DCSR/warm",
     0x1.94e15b6db6db7p+13, 128844, 14740, 35, 0, 15096, 0, 0x1.3bcc492492492p+13, 0x1.6454492492494p+11, 24, 11},
    {"levels/f64/hbmc-block/level-set+vector-CSR/cold",
     0x1.79364p+14, 147512, 14740, 81, 0, 11460, 282, 0x1.49088p+14, 0x1.816ep+11, 70, 11},
    {"levels/f64/hbmc-block/level-set+vector-CSR/warm",
     0x1.4f604p+14, 111416, 14740, 81, 0, 11742, 0, 0x1.22d98p+14, 0x1.6436p+11, 70, 11},
    {"levels/f64/hbmc-block/level-set+scalar-DCSR/cold",
     0x1.7afcp+14, 297336, 14740, 81, 0, 11455, 282, 0x1.49088p+14, 0x1.8f9cp+11, 70, 11},
    {"levels/f64/hbmc-block/level-set+scalar-DCSR/warm",
     0x1.52ad24924924ap+14, 261240, 14740, 81, 0, 11737, 0, 0x1.22d98p+14, 0x1.7e9d24924924dp+11, 70, 11},
    {"levels/f64/hbmc-block/sync-free+scalar-CSR/cold",
     0x1.b621c92492491p+13, 309924, 14740, 35, 0, 14772, 329, 0x1.523ac92492491p+13, 0x1.8f9cp+11, 24, 11},
    {"levels/f64/hbmc-block/sync-free+scalar-CSR/warm",
     0x1.9b32f3cf3cf3cp+13, 267812, 14740, 35, 0, 15101, 0, 0x1.3bcc492492491p+13, 0x1.7d9aaaaaaaaaap+11, 24, 11},
    {"levels/f64/hbmc-block/sync-free+vector-DCSR/cold",
     0x1.b296492492491p+13, 170956, 14740, 35, 0, 14767, 329, 0x1.523ac92492491p+13, 0x1.816dffffffffep+11, 24, 11},
    {"levels/f64/hbmc-block/sync-free+vector-DCSR/warm",
     0x1.94e15b6db6db7p+13, 128844, 14740, 35, 0, 15096, 0, 0x1.3bcc492492492p+13, 0x1.6454492492494p+11, 24, 11},
    {"levels/f64/hbmc-block/cusparse-like+vector-CSR/cold",
     0x1.87608p+13, 274436, 14740, 23, 58, 11460, 282, 0x1.2705p+13, 0x1.816ep+11, 12, 11},
    {"levels/f64/hbmc-block/cusparse-like+vector-CSR/warm",
     0x1.33b48p+13, 238340, 14740, 23, 58, 11742, 0, 0x1.b54ep+12, 0x1.6436p+11, 12, 11},
    {"levels/f64/hbmc-block/cusparse-like+scalar-DCSR/cold",
     0x1.8aecp+13, 424260, 14740, 23, 58, 11455, 282, 0x1.2705p+13, 0x1.8f9cp+11, 12, 11},
    {"levels/f64/hbmc-block/cusparse-like+scalar-DCSR/warm",
     0x1.3a4e492492492p+13, 388164, 14740, 23, 58, 11737, 0, 0x1.b54ep+12, 0x1.7e9d249249248p+11, 12, 11},
    {"grid/f64/hbmc-block/adaptive/cold",
     0x1.7e53e92492493p+15, 118960, 8488, 65, 0, 10982, 314, 0x1.663d092492493p+15, 0x1.816ep+11, 54, 11},
    {"grid/f64/hbmc-block/adaptive/warm",
     0x1.685d692492493p+15, 78768, 8488, 65, 0, 11296, 0, 0x1.521a092492493p+15, 0x1.6436p+11, 54, 11},
    {"grid/f64/hbmc-block/completely-parallel+scalar-CSR/cold",
     0x1.4c53492492493p+15, 140660, 8488, 35, 0, 11924, 315, 0x1.340d892492493p+15, 0x1.845cp+11, 24, 11},
    {"grid/f64/hbmc-block/completely-parallel+scalar-CSR/warm",
     0x1.3957492492493p+15, 100340, 8488, 35, 0, 12239, 0, 0x1.22e5092492493p+15, 0x1.6724p+11, 24, 11},
    {"grid/f64/hbmc-block/completely-parallel+vector-DCSR/cold",
     0x1.4f49692492493p+15, 119472, 8488, 35, 0, 11044, 315, 0x1.3732892492493p+15, 0x1.816ep+11, 24, 11},
    {"grid/f64/hbmc-block/completely-parallel+vector-DCSR/warm",
     0x1.3928692492493p+15, 79152, 8488, 35, 0, 11359, 0, 0x1.22e5092492493p+15, 0x1.6436p+11, 24, 11},
    {"grid/f64/hbmc-block/level-set+vector-CSR/cold",
     0x1.0b23f8p+17, 107504, 8488, 499, 0, 8166, 270, 0x1.051e4p+17, 0x1.816ep+11, 488, 11},
    {"grid/f64/hbmc-block/level-set+vector-CSR/warm",
     0x1.038b98p+17, 72944, 8488, 499, 0, 8436, 0, 0x1.fbf58p+16, 0x1.6436p+11, 488, 11},
    {"grid/f64/hbmc-block/level-set+scalar-DCSR/cold",
     0x1.0d42fp+17, 118068, 8488, 499, 0, 7286, 270, 0x1.07318p+17, 0x1.845cp+11, 488, 11},
    {"grid/f64/hbmc-block/level-set+scalar-DCSR/warm",
     0x1.03975p+17, 83508, 8488, 499, 0, 7556, 0, 0x1.fbf58p+16, 0x1.6724p+11, 488, 11},
    {"grid/f64/hbmc-block/sync-free+scalar-CSR/cold",
     0x1.4c53492492493p+15, 140660, 8488, 35, 0, 11924, 315, 0x1.340d892492493p+15, 0x1.845cp+11, 24, 11},
    {"grid/f64/hbmc-block/sync-free+scalar-CSR/warm",
     0x1.3957492492493p+15, 100340, 8488, 35, 0, 12239, 0, 0x1.22e5092492493p+15, 0x1.6724p+11, 24, 11},
    {"grid/f64/hbmc-block/sync-free+vector-DCSR/cold",
     0x1.4f49692492493p+15, 119472, 8488, 35, 0, 11044, 315, 0x1.3732892492493p+15, 0x1.816ep+11, 24, 11},
    {"grid/f64/hbmc-block/sync-free+vector-DCSR/warm",
     0x1.3928692492493p+15, 79152, 8488, 35, 0, 11359, 0, 0x1.22e5092492493p+15, 0x1.6436p+11, 24, 11},
    {"grid/f64/hbmc-block/cusparse-like+vector-CSR/cold",
     0x1.3a48ep+15, 250172, 8488, 23, 476, 8166, 270, 0x1.2232p+15, 0x1.816ep+11, 12, 11},
    {"grid/f64/hbmc-block/cusparse-like+vector-CSR/warm",
     0x1.1be76p+15, 215612, 8488, 23, 476, 8436, 0, 0x1.05a4p+15, 0x1.6436p+11, 12, 11},
    {"grid/f64/hbmc-block/cusparse-like+scalar-DCSR/cold",
     0x1.42c4cp+15, 260736, 8488, 23, 476, 7286, 270, 0x1.2a7fp+15, 0x1.845cp+11, 12, 11},
    {"grid/f64/hbmc-block/cusparse-like+scalar-DCSR/warm",
     0x1.1c164p+15, 226176, 8488, 23, 476, 7556, 0, 0x1.05a4p+15, 0x1.6724p+11, 12, 11},
    {"levels/f32/hbmc-block/adaptive/cold",
     0x1.73914p+14, 106000, 14740, 81, 0, 11554, 188, 0x1.43638p+14, 0x1.816ep+11, 70, 11},
    {"levels/f32/hbmc-block/adaptive/warm",
     0x1.4f604p+14, 81936, 14740, 81, 0, 11742, 0, 0x1.22d98p+14, 0x1.6436p+11, 70, 11},
    {"levels/f32/hbmc-block/completely-parallel+scalar-CSR/cold",
     0x1.ae645b6db6db6p+13, 208264, 14740, 35, 0, 14913, 188, 0x1.4a7d5b6db6db6p+13, 0x1.8f9cp+11, 24, 11},
    {"levels/f32/hbmc-block/completely-parallel+scalar-CSR/warm",
     0x1.983a555555553p+13, 184200, 14740, 35, 0, 15101, 0, 0x1.3b84db6db6db6p+13, 0x1.72d5e79e79e74p+11, 24, 11},
    {"levels/f32/hbmc-block/completely-parallel+vector-DCSR/cold",
     0x1.aad8db6db6db6p+13, 117428, 14740, 35, 0, 14908, 188, 0x1.4a7d5b6db6db6p+13, 0x1.816ep+11, 24, 11},
    {"levels/f32/hbmc-block/completely-parallel+vector-DCSR/warm",
     0x1.94925b6db6db6p+13, 93364, 14740, 35, 0, 15096, 0, 0x1.3b84db6db6db6p+13, 0x1.6436p+11, 24, 11},
    {"levels/f32/hbmc-block/level-set+vector-CSR/cold",
     0x1.73914p+14, 106000, 14740, 81, 0, 11554, 188, 0x1.43638p+14, 0x1.816ep+11, 70, 11},
    {"levels/f32/hbmc-block/level-set+vector-CSR/warm",
     0x1.4f604p+14, 81936, 14740, 81, 0, 11742, 0, 0x1.22d98p+14, 0x1.6436p+11, 70, 11},
    {"levels/f32/hbmc-block/level-set+scalar-DCSR/cold",
     0x1.7557p+14, 207692, 14740, 81, 0, 11549, 188, 0x1.43638p+14, 0x1.8f9cp+11, 70, 11},
    {"levels/f32/hbmc-block/level-set+scalar-DCSR/warm",
     0x1.5149061861862p+14, 183628, 14740, 81, 0, 11737, 0, 0x1.22d98p+14, 0x1.737c30c30c30cp+11, 70, 11},
    {"levels/f32/hbmc-block/sync-free+scalar-CSR/cold",
     0x1.ae645b6db6db6p+13, 208264, 14740, 35, 0, 14913, 188, 0x1.4a7d5b6db6db6p+13, 0x1.8f9cp+11, 24, 11},
    {"levels/f32/hbmc-block/sync-free+scalar-CSR/warm",
     0x1.983a555555553p+13, 184200, 14740, 35, 0, 15101, 0, 0x1.3b84db6db6db6p+13, 0x1.72d5e79e79e74p+11, 24, 11},
    {"levels/f32/hbmc-block/sync-free+vector-DCSR/cold",
     0x1.aad8db6db6db6p+13, 117428, 14740, 35, 0, 14908, 188, 0x1.4a7d5b6db6db6p+13, 0x1.816ep+11, 24, 11},
    {"levels/f32/hbmc-block/sync-free+vector-DCSR/warm",
     0x1.94925b6db6db6p+13, 93364, 14740, 35, 0, 15096, 0, 0x1.3b84db6db6db6p+13, 0x1.6436p+11, 24, 11},
    {"levels/f32/hbmc-block/cusparse-like+vector-CSR/cold",
     0x1.7c168p+13, 192616, 14740, 23, 58, 11554, 188, 0x1.1bbbp+13, 0x1.816ep+11, 12, 11},
    {"levels/f32/hbmc-block/cusparse-like+vector-CSR/warm",
     0x1.33b48p+13, 168552, 14740, 23, 58, 11742, 0, 0x1.b54ep+12, 0x1.6436p+11, 12, 11},
    {"levels/f32/hbmc-block/cusparse-like+scalar-DCSR/cold",
     0x1.7fa2p+13, 294308, 14740, 23, 58, 11549, 188, 0x1.1bbbp+13, 0x1.8f9cp+11, 12, 11},
    {"levels/f32/hbmc-block/cusparse-like+scalar-DCSR/warm",
     0x1.37860c30c30c4p+13, 270244, 14740, 23, 58, 11737, 0, 0x1.b54e000000001p+12, 0x1.737c30c30c30fp+11, 12, 11},
    {"grid/f32/hbmc-block/adaptive/cold",
     0x1.758fa61861861p+15, 79200, 8488, 65, 0, 11116, 180, 0x1.5d78c61861861p+15, 0x1.816ep+11, 54, 11},
    {"grid/f32/hbmc-block/adaptive/warm",
     0x1.684ca61861861p+15, 56160, 8488, 65, 0, 11296, 0, 0x1.5209461861861p+15, 0x1.6436p+11, 54, 11},
    {"grid/f32/hbmc-block/completely-parallel+scalar-CSR/cold",
     0x1.450d861861861p+15, 95352, 8488, 35, 0, 12059, 180, 0x1.2cc7c61861861p+15, 0x1.845cp+11, 24, 11},
    {"grid/f32/hbmc-block/completely-parallel+scalar-CSR/warm",
     0x1.3946861861861p+15, 72312, 8488, 35, 0, 12239, 0, 0x1.22d4461861861p+15, 0x1.6724p+11, 24, 11},
    {"grid/f32/hbmc-block/completely-parallel+vector-DCSR/cold",
     0x1.465aa61861861p+15, 79456, 8488, 35, 0, 11179, 180, 0x1.2e43c61861861p+15, 0x1.816ep+11, 24, 11},
    {"grid/f32/hbmc-block/completely-parallel+vector-DCSR/warm",
     0x1.3917a61861861p+15, 56416, 8488, 35, 0, 11359, 0, 0x1.22d4461861861p+15, 0x1.6436p+11, 24, 11},
    {"grid/f32/hbmc-block/level-set+vector-CSR/cold",
     0x1.095b18p+17, 79008, 8488, 499, 0, 8256, 180, 0x1.03556p+17, 0x1.816ep+11, 488, 11},
    {"grid/f32/hbmc-block/level-set+vector-CSR/warm",
     0x1.038b98p+17, 55968, 8488, 499, 0, 8436, 0, 0x1.fbf58p+16, 0x1.6436p+11, 488, 11},
    {"grid/f32/hbmc-block/level-set+scalar-DCSR/cold",
     0x1.0a3b5p+17, 84280, 8488, 499, 0, 7376, 180, 0x1.0429ep+17, 0x1.845cp+11, 488, 11},
    {"grid/f32/hbmc-block/level-set+scalar-DCSR/warm",
     0x1.03975p+17, 61240, 8488, 499, 0, 7556, 0, 0x1.fbf58p+16, 0x1.6724p+11, 488, 11},
    {"grid/f32/hbmc-block/sync-free+scalar-CSR/cold",
     0x1.450d861861861p+15, 95352, 8488, 35, 0, 12059, 180, 0x1.2cc7c61861861p+15, 0x1.845cp+11, 24, 11},
    {"grid/f32/hbmc-block/sync-free+scalar-CSR/warm",
     0x1.3946861861861p+15, 72312, 8488, 35, 0, 12239, 0, 0x1.22d4461861861p+15, 0x1.6724p+11, 24, 11},
    {"grid/f32/hbmc-block/sync-free+vector-DCSR/cold",
     0x1.465aa61861861p+15, 79456, 8488, 35, 0, 11179, 180, 0x1.2e43c61861861p+15, 0x1.816ep+11, 24, 11},
    {"grid/f32/hbmc-block/sync-free+vector-DCSR/warm",
     0x1.3917a61861861p+15, 56416, 8488, 35, 0, 11359, 0, 0x1.22d4461861861p+15, 0x1.6436p+11, 24, 11},
    {"grid/f32/hbmc-block/cusparse-like+vector-CSR/cold",
     0x1.33256p+15, 176040, 8488, 23, 476, 8256, 180, 0x1.1b0e8p+15, 0x1.816ep+11, 12, 11},
    {"grid/f32/hbmc-block/cusparse-like+vector-CSR/warm",
     0x1.1be76p+15, 153000, 8488, 23, 476, 8436, 0, 0x1.05a4p+15, 0x1.6436p+11, 12, 11},
    {"grid/f32/hbmc-block/cusparse-like+scalar-DCSR/cold",
     0x1.36a64p+15, 181312, 8488, 23, 476, 7376, 180, 0x1.1e608p+15, 0x1.845cp+11, 12, 11},
    {"grid/f32/hbmc-block/cusparse-like+scalar-DCSR/warm",
     0x1.1c164p+15, 158272, 8488, 23, 476, 7556, 0, 0x1.05a4p+15, 0x1.6724p+11, 12, 11},
    {"baseline/levels/f64/level-set",
     0x1.f3bp+13, 100440, 14740, 60, 0, 10370, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/levels/f64/sync-free",
     0x1.2b4a924924925p+12, 112440, 14740, 2, 0, 17740, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/levels/f64/cusparse-like",
     0x1.185p+12, 371760, 14740, 1, 59, 10370, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/grid/f64/level-set",
     0x1.3851cp+14, 62448, 8488, 75, 0, 7124, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/grid/f64/sync-free",
     0x1.4fd86db6db6dbp+12, 73968, 8488, 2, 0, 11368, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/grid/f64/cusparse-like",
     0x1.387bp+12, 220992, 8488, 1, 74, 7124, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/diagonal/f64/completely-parallel",
     0x1.05e79e79e79e8p+8, 8000, 2000, 1, 0, 2000, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/levels/f32/level-set",
     0x1.f3bp+13, 70960, 14740, 60, 0, 10370, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/levels/f32/sync-free",
     0x1.2abbb6db6db6ep+12, 76960, 14740, 2, 0, 17740, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/levels/f32/cusparse-like",
     0x1.185p+12, 253840, 14740, 1, 59, 10370, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/grid/f32/level-set",
     0x1.3851cp+14, 45472, 8488, 75, 0, 7124, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/grid/f32/sync-free",
     0x1.4f4f492492492p+12, 51232, 8488, 2, 0, 11368, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/grid/f32/cusparse-like",
     0x1.387bp+12, 153088, 8488, 1, 74, 7124, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"baseline/diagonal/f32/completely-parallel",
     0x1.031p+8, 4000, 2000, 1, 0, 2000, 0, 0x0p+0, 0x0p+0, 0, 0},
    {"tuned/grid/f64/cold",
     0x1.74d9cc30c30c4p+14, 1517592, 107460, 5, 0, 148281, 3939, 0x1.6d5476db6db6ep+14, 0x1.e15555555556p+8, 4, 1},
    {"tuned/grid/f64/warm",
     0x1.7484cc30c30c4p+14, 1517464, 107460, 5, 0, 148282, 3938, 0x1.6cff76db6db6ep+14, 0x1.e15555555556p+8, 4, 1},
};
// clang-format on

std::string row(const Pin& p) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %a, %lld, %lld, %d, %d, %llu, %llu, %a, %a, %d, %d},",
                p.tag, p.ns, p.bytes, p.flops, p.launches, p.syncs, p.hits,
                p.misses, p.tri_ns, p.spmv_ns, p.tri_kernels, p.spmv_kernels);
  return buf;
}

void expect_pin(const std::string& tag, const sim::SolveReport& r,
                const BlockSolveBreakdown& bd = {}) {
  const Pin got{tag.c_str(),  r.ns,          r.bytes,       r.flops,
                r.kernel_launches,           r.grid_syncs,  r.cache_hits,
                r.cache_misses, bd.tri_ns,   bd.spmv_ns,    bd.tri_kernels,
                bd.spmv_kernels};
  std::string want = "(no pin for " + tag + ")";
  for (const Pin& p : kPins)
    if (tag == p.tag) want = row(p);
  EXPECT_EQ(row(got), want);
}

/// The device every solve_simulated and baseline pin runs on.
sim::GpuSpec device() {
  return sim::scale_for_dataset(sim::titan_rtx(), bench::kDatasetScale);
}

struct Fixture {
  const char* name;
  Csr<double> lower;
};

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> f = {
      {"levels", gen::random_levels(1500, 60, 3.0, 1.0, 5)},
      {"grid", gen::grid2d(40, 36, 3)},
  };
  return f;
}

template <class T>
const char* precision() {
  return sizeof(T) == 8 ? "f64" : "f32";
}

/// Cold then warm solve_simulated of `s`, each pinned under `tag`.
template <class T>
void expect_simulated(const std::string& tag, const BlockSolver<T>& s,
                      const std::vector<T>& b, const sim::GpuSpec& gpu) {
  sim::CacheModel cache(gpu.cache_bytes, gpu.cache_line_bytes,
                        gpu.cache_assoc);
  for (const char* pass : {"cold", "warm"}) {
    sim::SolveReport rep;
    BlockSolveBreakdown bd;
    s.solve_simulated(b, gpu, &cache, &rep, &bd);
    expect_pin(tag + "/" + pass, rep, bd);
  }
}

/// Every forced (triangle, square) kernel pair and the adaptive plan of
/// `scheme`, on every fixture in precision T. Each triangle kind meets a CSR
/// and a DCSR square kind, and the four square kinds each meet two triangle
/// kinds.
template <class T>
void expect_scheme(BlockScheme scheme) {
  const sim::GpuSpec gpu = device();
  for (const Fixture& f : fixtures()) {
    const Csr<T> L = gen::convert_values<T>(f.lower);
    const auto b = gen::random_rhs<T>(L.nrows, 7);
    auto opt = bench::bench_block_options<T>(128);
    opt.scheme = scheme;
    opt.planner.nseg = 4;
    const std::string base = std::string(f.name) + "/" + precision<T>() +
                             "/" + to_string(scheme) + "/";
    expect_simulated(base + "adaptive", BlockSolver<T>(L, opt), b, gpu);
    opt.adaptive = false;
    for (int t = 0; t < 4; ++t) {
      const bool even = t % 2 == 0;
      for (const SpmvKernelKind sq :
           {even ? SpmvKernelKind::kScalarCsr : SpmvKernelKind::kVectorCsr,
            even ? SpmvKernelKind::kVectorDcsr
                 : SpmvKernelKind::kScalarDcsr}) {
        opt.forced_tri = static_cast<TriKernelKind>(t);
        opt.forced_square = sq;
        expect_simulated(base + to_string(opt.forced_tri) + "+" +
                             to_string(sq),
                         BlockSolver<T>(L, opt), b, gpu);
      }
    }
  }
}

TEST(ModelPins, ColumnScheme) {
  expect_scheme<double>(BlockScheme::kColumn);
  expect_scheme<float>(BlockScheme::kColumn);
}

TEST(ModelPins, RowScheme) {
  expect_scheme<double>(BlockScheme::kRow);
  expect_scheme<float>(BlockScheme::kRow);
}

TEST(ModelPins, RecursiveScheme) {
  expect_scheme<double>(BlockScheme::kRecursive);
  expect_scheme<float>(BlockScheme::kRecursive);
}

TEST(ModelPins, HbmcScheme) {
  expect_scheme<double>(BlockScheme::kHbmc);
  expect_scheme<float>(BlockScheme::kHbmc);
}

template <class T>
void expect_baselines() {
  const sim::GpuSpec gpu = device();
  for (const Fixture& f : fixtures()) {
    const Csr<T> L = gen::convert_values<T>(f.lower);
    const auto b = gen::random_rhs<T>(L.nrows, 7);
    const std::string base =
        std::string("baseline/") + f.name + "/" + precision<T>() + "/";
    for (const TriKernelKind kind :
         {TriKernelKind::kLevelSet, TriKernelKind::kSyncFree,
          TriKernelKind::kCusparseLike})
      expect_pin(base + to_string(kind),
                 bench::measure_baseline(TriSolver<T>(kind, L), L, b, gpu)
                     .report);
  }
  const Csr<T> D = gen::convert_values<T>(gen::diagonal(1000, 3));
  const auto b = gen::random_rhs<T>(D.nrows, 7);
  expect_pin(
      std::string("baseline/diagonal/") + precision<T>() +
          "/completely-parallel",
      bench::measure_baseline(
          TriSolver<T>(TriKernelKind::kCompletelyParallel, D), D, b, gpu)
          .report);
}

TEST(ModelPins, BaselineKernels) {
  expect_baselines<double>();
  expect_baselines<float>();
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Calibration scores every kernel on the model; its fit is pinned in full.
TEST(ModelPins, CalibratedCostModel) {
  const tune::CostModel m = tune::calibrate_cost_model(sim::titan_rtx());
  std::string got = m.valid ? "valid" : "invalid";
  for (const tune::KernelCost& c : m.tri)
    got += " " + hex(c.setup_ns) + " " + hex(c.per_row_ns) + " " +
           hex(c.per_nnz_ns) + " " + hex(c.per_level_ns);
  for (const tune::KernelCost& c : m.sq)
    got += " " + hex(c.setup_ns) + " " + hex(c.per_row_ns) + " " +
           hex(c.per_nnz_ns) + " " + hex(c.per_level_ns);
  EXPECT_EQ(got,
            "valid 0x1.02e52e0f6494ep+11 0x1.a59cf2480ae94p-12 "
            "0x1.a59cf2480ae97p-12 0x1.02e52e0f64b67p+11 "
            "0x1.451a6d7a2be8bp+7 0x0p+0 0x1.39577befede66p-5 "
            "0x1.0a8faf8a39dbbp+12 0x1.dbf1d66d91fc3p+13 0x0p+0 "
            "0x1.047e267598479p+1 0x1.0430dde733106p+10 "
            "0x1.22afae2c0ad9ep+14 0x0p+0 0x1.cab20a756bcb9p+1 "
            "0x1.fca61b7de2e8bp+9 0x1.458ad538f29bdp+12 0x0p+0 "
            "0x1.e311356e5de9bp-4 0x0p+0 0x1.fe5b6952e41dfp+11 "
            "0x1.c218a36d868b4p-5 0x1.743ecac3c8423p-7 0x0p+0 "
            "0x1.498247c7cfff5p+12 0x0p+0 0x1.682d5ced563fdp-3 0x0p+0 "
            "0x1.0116308c300f2p+12 0x0p+0 0x1.b3f91c36af85ap-7 0x0p+0");
}

// One tuned plan: the kinds the search picks, its oracle and model scores,
// and the plan's simulated solve. HBMC candidates are off, as they were
// when this pin was recorded.
TEST(ModelPins, TunedPlan) {
  const Csr<double> L = gen::grid2d(150, 120, 5);
  BlockSolver<double>::Options opt;
  opt.planner.stop_rows = 512;
  opt.tune.enabled = true;
  opt.tune.gpu = device();
  opt.tune.sa_iterations = 8;
  opt.tune.consider_hbmc = false;
  const BlockSolver<double> s(L, opt);

  std::string kinds;
  for (const auto& t : s.tri_info()) kinds += to_string(t.kind) + " ";
  kinds += "|";
  for (const auto& q : s.square_info()) kinds += " " + to_string(q.kind);
  EXPECT_EQ(kinds, "sync-free sync-free | scalar-CSR");

  const tune::TuneStats& st = s.tune_stats();
  EXPECT_EQ(hex(st.oracle_default_ns) + " " + hex(st.oracle_tuned_ns) + " " +
                hex(st.model_default_ns) + " " + hex(st.model_tuned_ns) +
                " " + std::to_string(st.sa_moves) + " " +
                std::to_string(st.sa_accepted) + " " +
                (st.fell_back ? "fell-back" : "tuned"),
            "0x1.3d8336db6db6dp+16 0x1.7484cc30c30c4p+14 "
            "0x1.1e9f63aa8e242p+16 0x1.9d4f86fa82179p+14 8 4 tuned");

  expect_simulated("tuned/grid/f64", s,
                   gen::random_rhs<double>(L.nrows, 7), opt.tune.gpu);
}

}  // namespace
}  // namespace blocktri
