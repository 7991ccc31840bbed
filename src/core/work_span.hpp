#pragma once

// Analytic work/span (critical path) model of the three parallel recursions.
//
// The paper (§5) used Cilk's critical-path tracking to report that at
// n = 1000 the standard algorithm has enough parallelism to keep ~40
// processors busy versus ~23 for the fast algorithms, with work O(n^{2+δ})
// and span O(lg² n).  Work/span is a property of the task DAG, independent
// of the hardware, so we reproduce the claim by mirroring the exact spawn
// structure of recursion.cpp and the bilinear rows (core/bilinear.hpp) they
// run: leaf multiplies cost 2·t_m·t_k·t_n flops,
// quadrant additions one flop per element (multi-operand adds one per
// operand), temporary zeroing one store per element.

#include <cstdint>

#include "core/config.hpp"

namespace rla {

/// Work and critical-path length, both in (weighted) flops.
struct WorkSpan {
  double work = 0.0;
  double span = 0.0;
  double parallelism() const noexcept { return span > 0.0 ? work / span : 0.0; }
};

struct WorkSpanParams {
  Algorithm algorithm = Algorithm::Standard;
  StandardVariant standard_variant = StandardVariant::Temporaries;
  FastVariant fast_variant = FastVariant::Parallel;
  int depth = 0;                 ///< recursion depth d (grid is 2^d tiles)
  std::uint32_t tile_m = 16;     ///< C tile rows (= A tile rows)
  std::uint32_t tile_k = 16;     ///< A tile cols (= B tile rows)
  std::uint32_t tile_n = 16;     ///< C tile cols (= B tile cols)
  int fast_cutoff_level = 0;     ///< as GemmConfig::fast_cutoff_level
};

/// Work/span of the multiplication DAG (conversion excluded, matching the
/// paper's measurement of the parallel multiply itself).
WorkSpan analyze_work_span(const WorkSpanParams& params);

/// Convenience: model an n×n (or m×n×k) multiply under `cfg`, choosing the
/// depth the gemm driver would choose. Throws if the shape would require
/// splitting (analyze pieces individually instead).
WorkSpan analyze_gemm(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                      const GemmConfig& cfg);

}  // namespace rla
