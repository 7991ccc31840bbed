#pragma once

// Per-layer measurements taken from outside the library.
//
// Two sources feed them. The driver's own report (GemmProfile: phases,
// scheduler deltas, tile shape, depth, splits, measured work/span, the tree
// profile) is read as-is. The layers whose rate the profile cannot give are
// replayed through their public functions at the shape the workload
// actually ran: the leaf kernel at its tile, the quadrant adds at the d0-d2
// quadrant sizes, the layout conversion at its geometry. Two host probes,
// an FMA-throughput loop and a copy loop, give the roofline those rates are
// set against.

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/gemm.hpp"

namespace rlabench {

/// The shape one gemm call ran at, as the driver reported it.
struct LayerShape {
  rla::Algorithm algorithm = rla::Algorithm::Standard;
  int depth = 0;
  std::uint32_t tile_m = 1, tile_k = 1, tile_n = 1;
  /// Binary splits the driver made (GemmProfile::splits); a shape split s
  /// times runs as s + 1 squat pieces.
  int splits = 0;
  bool trans_a = false, trans_b = false;
  double alpha = 1.0, beta = 0.0;

  int pieces() const noexcept { return splits + 1; }
};

LayerShape shape_of(const rla::GemmProfile& p, rla::Algorithm alg, bool trans_a,
                    bool trans_b, double alpha, double beta);

/// A gemm call's wall time next to what the driver reported for it.
struct CallSample {
  double wall_s = 0.0;
  rla::GemmProfile profile;
  LayerShape shape;
};

/// Leaf multiplies per call, computed from the depth (8^d or 7^d per piece).
double analytic_leaf_calls(const LayerShape& s);
/// FLOPs the tree profiler should attribute per call (leaf multiplies plus
/// every quadrant add pass), computed from the recursion's structure.
double analytic_tree_flops(const LayerShape& s);

/// Host roofline probes, run once per process.
void add_roofline_metrics(Sheet& sheet, SpanLog& spans, double& fma_gflops);

/// kernels.*, add.*, convert.gbs: replays at `shape`. `compute_ms` is the
/// driver's median compute phase for the same calls.
void add_replay_metrics(Sheet& sheet, SpanLog& spans, const LayerShape& shape,
                        double compute_ms, double fma_gflops);

/// convert.*_ms, gemm.*, sched.*_per_call from untraced calls; depth, tile
/// and splits are reported for `shape`. Returns gemm.compute_ms.
double add_profile_metrics(Sheet& sheet, const std::vector<CallSample>& calls,
                         const LayerShape& shape);

/// sched.parallelism, sched.util, treeprof.* from calls run with the tree
/// profiler armed. Calls whose session was busy are skipped.
void add_traced_profile_metrics(Sheet& sheet, const std::vector<CallSample>& calls);

}  // namespace rlabench
