// Tests of the analytic work/span model (paper §5's critical-path claims).

#include <gtest/gtest.h>

#include <cmath>

#include "core/work_span.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

TEST(WorkSpan, LeafOnly) {
  WorkSpanParams p;
  p.depth = 0;
  p.tile_m = p.tile_k = p.tile_n = 16;
  const WorkSpan ws = analyze_work_span(p);
  EXPECT_DOUBLE_EQ(ws.work, 2.0 * 16 * 16 * 16);
  EXPECT_DOUBLE_EQ(ws.span, ws.work);
  EXPECT_DOUBLE_EQ(ws.parallelism(), 1.0);
}

TEST(WorkSpan, StandardInPlaceClosedForm) {
  // InPlace: W = 8^d * leaf, S = 2^d * leaf.
  WorkSpanParams p;
  p.standard_variant = StandardVariant::InPlace;
  p.tile_m = p.tile_k = p.tile_n = 8;
  const double leaf = 2.0 * 8 * 8 * 8;
  for (int d = 0; d <= 5; ++d) {
    p.depth = d;
    const WorkSpan ws = analyze_work_span(p);
    EXPECT_DOUBLE_EQ(ws.work, std::pow(8.0, d) * leaf) << d;
    EXPECT_DOUBLE_EQ(ws.span, std::pow(2.0, d) * leaf) << d;
  }
}

TEST(WorkSpan, StandardTemporariesFlopCountDominatedByMultiplies) {
  WorkSpanParams p;
  p.depth = 6;
  p.tile_m = p.tile_k = p.tile_n = 16;
  const WorkSpan ws = analyze_work_span(p);
  const double n = 16.0 * 64;  // 1024
  const double mult_flops = 2.0 * n * n * n;
  EXPECT_GT(ws.work, mult_flops);
  EXPECT_LT(ws.work, 1.10 * mult_flops);  // adds/zeros are lower order (~6%)
}

TEST(WorkSpan, StrassenWorkBelowStandard) {
  WorkSpanParams strassen;
  strassen.algorithm = Algorithm::Strassen;
  strassen.depth = 6;
  strassen.tile_m = strassen.tile_k = strassen.tile_n = 16;
  WorkSpanParams standard = strassen;
  standard.algorithm = Algorithm::Standard;
  EXPECT_LT(analyze_work_span(strassen).work, analyze_work_span(standard).work);
}

TEST(WorkSpan, WinogradWorkBelowStrassen) {
  // 15 vs 18 additions per level; same multiplication count.
  WorkSpanParams w;
  w.algorithm = Algorithm::Winograd;
  w.depth = 6;
  w.tile_m = w.tile_k = w.tile_n = 16;
  WorkSpanParams s = w;
  s.algorithm = Algorithm::Strassen;
  EXPECT_LT(analyze_work_span(w).work, analyze_work_span(s).work);
}

TEST(WorkSpan, StandardHasMoreParallelismThanFastAlgorithms) {
  // The paper's §5 observation: parallelism ≈ 40 (standard) vs ≈ 23 (fast)
  // at n = 1000 — the ordering and rough ratio are DAG properties.
  GemmConfig cfg;
  cfg.tiles = TileRange{16, 32, 16};
  cfg.algorithm = Algorithm::Standard;
  const WorkSpan std_ws = analyze_gemm(1000, 1000, 1000, cfg);
  cfg.algorithm = Algorithm::Strassen;
  const WorkSpan str_ws = analyze_gemm(1000, 1000, 1000, cfg);
  cfg.algorithm = Algorithm::Winograd;
  const WorkSpan win_ws = analyze_gemm(1000, 1000, 1000, cfg);
  EXPECT_GT(std_ws.parallelism(), str_ws.parallelism());
  EXPECT_GT(std_ws.parallelism(), win_ws.parallelism());
  // All three have plenty of parallelism for a small SMP.
  EXPECT_GT(str_ws.parallelism(), 4.0);
  EXPECT_GT(win_ws.parallelism(), 4.0);
}

TEST(WorkSpan, ParallelismGrowsWithProblemSize) {
  GemmConfig cfg;
  double last = 0.0;
  for (std::uint32_t n : {128u, 256u, 512u, 1024u}) {
    const WorkSpan ws = analyze_gemm(n, n, n, cfg);
    EXPECT_GT(ws.parallelism(), last) << n;
    last = ws.parallelism();
  }
}

TEST(WorkSpan, SpanIsQuadraticWhileWorkIsCubic) {
  // With the serial streaming additions of §4, the span of the Temporaries
  // variant is dominated by the top-level quadrant additions: Θ(n²) against
  // Θ(n³) work. Doubling depth three times grows work ~8³ and span ~4³.
  WorkSpanParams p;
  p.tile_m = p.tile_k = p.tile_n = 16;
  p.depth = 3;
  const WorkSpan small = analyze_work_span(p);
  p.depth = 6;
  const WorkSpan big = analyze_work_span(p);
  const double work_growth = big.work / small.work;   // ≈ 512
  const double span_growth = big.span / small.span;   // ≈ 64-ish
  EXPECT_NEAR(work_growth, 512.0, 32.0);
  EXPECT_LT(span_growth, 100.0);
  EXPECT_GT(work_growth, 4.0 * span_growth);
}

TEST(WorkSpan, CutoffReducesToStandardModel) {
  WorkSpanParams p;
  p.algorithm = Algorithm::Strassen;
  p.depth = 4;
  p.fast_cutoff_level = 4;  // cutoff at the root: entirely standard
  p.tile_m = p.tile_k = p.tile_n = 8;
  WorkSpanParams q = p;
  q.algorithm = Algorithm::Standard;
  q.fast_cutoff_level = 0;
  EXPECT_DOUBLE_EQ(analyze_work_span(p).work, analyze_work_span(q).work);
  EXPECT_DOUBLE_EQ(analyze_work_span(p).span, analyze_work_span(q).span);
}

TEST(WorkSpan, AnalyzeGemmRejectsUnsplittableShapes) {
  GemmConfig cfg;
  EXPECT_THROW(analyze_gemm(600, 24, 24, cfg), std::invalid_argument);
}

TEST(WorkSpan, RectangularTiles) {
  GemmConfig cfg;
  const WorkSpan ws = analyze_gemm(512, 256, 384, cfg);
  EXPECT_GT(ws.work, 2.0 * 512 * 256 * 384 * 0.99);
  EXPECT_GT(ws.parallelism(), 1.0);
}

TEST(WorkSpan, LowMemAddWorkMatchesExecutedPasses) {
  // The model counts leaf multiplies, add passes and temporary zeroing; the
  // tree profiler counts the first two as executed. Their difference must
  // be exactly the zeroing: one store per element of the seven P
  // temporaries of every inner node (64 over 8-element tiles: three levels).
  constexpr std::uint32_t kN = 64, kTile = 8;
  for (Algorithm alg : {Algorithm::Strassen, Algorithm::Winograd}) {
    GemmConfig cfg;
    cfg.algorithm = alg;
    cfg.fast_variant = FastVariant::SerialLowMem;
    cfg.tiles = {kTile, kTile, kTile};
    cfg.tree_profile = true;
    Matrix a = testing::random_matrix(kN, kN, 1), b = testing::random_matrix(kN, kN, 2);
    Matrix c(kN, kN);
    GemmProfile profile;
    gemm(kN, kN, kN, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None, 0.0,
         c.data(), c.ld(), cfg, &profile);
    ASSERT_TRUE(profile.tree_measured);
    double executed = 0.0;
    for (const auto& node : profile.tree_profile) {
      executed += static_cast<double>(node.flops);
    }
    double zeros = 0.0;
    for (int level = 1, nodes = 49; level <= 3; ++level, nodes /= 7) {
      const double half = static_cast<double>(kTile << (level - 1));
      zeros += nodes * 7.0 * half * half;
    }
    EXPECT_DOUBLE_EQ(analyze_gemm(kN, kN, kN, cfg).work, executed + zeros)
        << static_cast<int>(alg);
  }
}

}  // namespace
}  // namespace rla
