// Tests of orientation-aware quadrant additions (paper §4): streaming,
// Gray-Morton half-step, and Hilbert mapping-array paths, each validated
// against element-level logical arithmetic and against the generic path.

#include <gtest/gtest.h>

#include "core/add.hpp"
#include "core/tiled_matrix.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

constexpr std::uint32_t kN = 32;
constexpr int kDepth = 3;  // 8x8 tiles of 4x4

TileGeometry geom(Curve c) { return make_geometry(kN, kN, kDepth, c); }

TiledMatrix filled(Curve c, double scale, double offset) {
  TiledMatrix m(geom(c));
  for (std::uint32_t i = 0; i < kN; ++i) {
    for (std::uint32_t j = 0; j < kN; ++j) {
      m.at(i, j) = scale * (i * 100.0 + j) + offset;
    }
  }
  return m;
}

/// Logical top-left of quadrant q at level (depth-1).
std::uint32_t origin(int q, bool row) {
  const std::uint32_t h = kN / 2;
  return row ? (static_cast<std::uint32_t>(q) >> 1) * h
             : (static_cast<std::uint32_t>(q) & 1) * h;
}

class AddTest : public ::testing::TestWithParam<Curve> {};

TEST_P(AddTest, SetAddAcrossAllQuadrantPairs) {
  const Curve c = GetParam();
  TiledMatrix x = filled(c, 1.0, 0.0);
  TiledMatrix y = filled(c, -2.0, 5.0);
  const std::uint32_t h = kN / 2;
  for (int qd = 0; qd < 4; ++qd) {
    for (int qa = 0; qa < 4; ++qa) {
      for (int qb = 0; qb < 4; ++qb) {
        TiledMatrix z(geom(c));
        z.zero();
        block_set_add(z.root().quadrant(qd), x.root().quadrant(qa), +1.0,
                      y.root().quadrant(qb));
        const std::uint32_t di = origin(qd, true), dj = origin(qd, false);
        const std::uint32_t ai = origin(qa, true), aj = origin(qa, false);
        const std::uint32_t bi = origin(qb, true), bj = origin(qb, false);
        for (std::uint32_t u = 0; u < h; u += 3) {
          for (std::uint32_t v = 0; v < h; v += 3) {
            ASSERT_DOUBLE_EQ(z.at(di + u, dj + v),
                             x.at(ai + u, aj + v) + y.at(bi + u, bj + v))
                << curve_name(c) << " qd=" << qd << " qa=" << qa << " qb=" << qb;
          }
        }
      }
    }
  }
}

TEST_P(AddTest, GenericPathAgreesWithFastPath) {
  const Curve c = GetParam();
  TiledMatrix x = filled(c, 1.0, 0.0);
  TiledMatrix y = filled(c, 3.0, -1.0);
  for (int qa = 0; qa < 4; ++qa) {
    for (int qb = 0; qb < 4; ++qb) {
      TiledMatrix fast(geom(c)), generic(geom(c));
      fast.zero();
      generic.zero();
      block_set_add(fast.root().quadrant(kNW), x.root().quadrant(qa), -1.0,
                    y.root().quadrant(qb), /*force_generic=*/false);
      block_set_add(generic.root().quadrant(kNW), x.root().quadrant(qa), -1.0,
                    y.root().quadrant(qb), /*force_generic=*/true);
      for (std::uint64_t e = 0; e < fast.size(); ++e) {
        ASSERT_EQ(fast.data()[e], generic.data()[e]) << curve_name(c);
      }
    }
  }
}

TEST_P(AddTest, AccumulateWithSign) {
  const Curve c = GetParam();
  TiledMatrix x = filled(c, 1.0, 0.0);
  TiledMatrix z = filled(c, 2.0, 1.0);
  const std::uint32_t h = kN / 2;
  // z_NE -= x_SE (different orientations for Gray/Hilbert).
  block_acc(z.root().quadrant(kNE), -1.0, x.root().quadrant(kSE));
  for (std::uint32_t u = 0; u < h; ++u) {
    for (std::uint32_t v = 0; v < h; ++v) {
      const double expect =
          (2.0 * (u * 100.0 + (h + v)) + 1.0) - x.at(h + u, h + v);
      ASSERT_DOUBLE_EQ(z.at(u, h + v), expect) << curve_name(c);
    }
  }
}

TEST_P(AddTest, MultiOperandAccumulators) {
  const Curve c = GetParam();
  TiledMatrix p1 = filled(c, 1.0, 0.0);
  TiledMatrix p2 = filled(c, 2.0, 0.5);
  TiledMatrix p3 = filled(c, -1.0, 0.25);
  TiledMatrix p4 = filled(c, 0.5, -2.0);
  const std::uint32_t h = kN / 2;

  TiledMatrix z2(geom(c)), z3(geom(c)), z4(geom(c));
  z2.zero();
  z3.zero();
  z4.zero();
  const double s2[] = {+1.0, -1.0}, s3[] = {+1.0, +1.0, -1.0},
               s4[] = {+1.0, +1.0, -1.0, +1.0};
  const TiledBlock q2[] = {p1.root().quadrant(kSE), p2.root().quadrant(kNE)};
  const TiledBlock q3[] = {p1.root().quadrant(kNW), p2.root().quadrant(kSW),
                           p3.root().quadrant(kSE)};
  const TiledBlock q4[] = {p1.root().quadrant(kNW), p2.root().quadrant(kNE),
                           p3.root().quadrant(kSW), p4.root().quadrant(kSE)};
  block_acc_n(z2.root().quadrant(kNW), 2, s2, q2);
  block_acc_n(z3.root().quadrant(kNW), 3, s3, q3);
  block_acc_n(z4.root().quadrant(kSE), 4, s4, q4);
  for (std::uint32_t u = 0; u < h; u += 5) {
    for (std::uint32_t v = 0; v < h; v += 5) {
      ASSERT_DOUBLE_EQ(z2.at(u, v), p1.at(h + u, h + v) - p2.at(u, h + v))
          << curve_name(c);
      ASSERT_DOUBLE_EQ(z3.at(u, v),
                       p1.at(u, v) + p2.at(h + u, v) - p3.at(h + u, h + v))
          << curve_name(c);
      ASSERT_DOUBLE_EQ(z4.at(h + u, h + v),
                       p1.at(u, v) + p2.at(u, h + v) - p3.at(h + u, v) +
                           p4.at(h + u, h + v))
          << curve_name(c);
    }
  }
}

TEST_P(AddTest, BlockCopyAcrossOrientations) {
  const Curve c = GetParam();
  TiledMatrix x = filled(c, 1.0, 0.0);
  const std::uint32_t h = kN / 2;
  for (int qd = 0; qd < 4; ++qd) {
    for (int qs = 0; qs < 4; ++qs) {
      TiledMatrix z(geom(c));
      z.zero();
      block_copy(z.root().quadrant(qd), x.root().quadrant(qs));
      const std::uint32_t di = origin(qd, true), dj = origin(qd, false);
      const std::uint32_t si = origin(qs, true), sj = origin(qs, false);
      for (std::uint32_t u = 0; u < h; u += 3) {
        for (std::uint32_t v = 0; v < h; v += 3) {
          ASSERT_EQ(z.at(di + u, dj + v), x.at(si + u, sj + v)) << curve_name(c);
        }
      }
    }
  }
}

TEST_P(AddTest, BlockZero) {
  const Curve c = GetParam();
  TiledMatrix x = filled(c, 1.0, 1.0);
  block_zero(x.root().quadrant(kSW));
  const std::uint32_t h = kN / 2;
  for (std::uint32_t u = 0; u < h; ++u) {
    for (std::uint32_t v = 0; v < h; ++v) {
      ASSERT_EQ(x.at(h + u, v), 0.0);
      ASSERT_NE(x.at(u, v), 0.0);  // other quadrants untouched
    }
  }
}

TEST_P(AddTest, TempRootAgainstQuadrantOrientation) {
  // The algorithms add original-matrix quadrants into orientation-0
  // temporaries; emulate S1 = A11 + A22 and check logically.
  const Curve c = GetParam();
  TiledMatrix a = filled(c, 1.0, 0.0);
  TileGeometry tg;
  tg.tile_rows = 4;
  tg.tile_cols = 4;
  tg.depth = kDepth - 1;
  tg.curve = c;
  tg.rows = tg.padded_rows();
  tg.cols = tg.padded_cols();
  TiledMatrix s1(tg);
  s1.zero();
  block_set_add(s1.root(), a.root().quadrant(kNW), +1.0, a.root().quadrant(kSE));
  const std::uint32_t h = kN / 2;
  for (std::uint32_t u = 0; u < h; ++u) {
    for (std::uint32_t v = 0; v < h; ++v) {
      ASSERT_DOUBLE_EQ(s1.at(u, v), a.at(u, v) + a.at(h + u, h + v))
          << curve_name(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRecursive, AddTest,
                         ::testing::ValuesIn(kRecursiveCurves),
                         [](const ::testing::TestParamInfo<Curve>& info) {
                           return rla::testing::sanitize(curve_name(info.param));
                         });

TEST(TileMapTest, GrayMismatchUsesRotation) {
  TiledMatrix a(geom(Curve::GrayMorton));
  const TiledBlock nw = a.root().quadrant(kNW);
  const TiledBlock ne = a.root().quadrant(kNE);
  ASSERT_NE(nw.orient, ne.orient);
  const TileMap m = make_tile_map(nw, ne);
  EXPECT_EQ(m.map, nullptr);
  EXPECT_EQ(m.rot, nw.tile_count() / 2);
}

TEST(TileMapTest, HilbertMismatchUsesMappingArray) {
  TiledMatrix a(geom(Curve::Hilbert));
  const TiledBlock nw = a.root().quadrant(kNW);
  const TiledBlock ne = a.root().quadrant(kNE);
  if (nw.orient == ne.orient) GTEST_SKIP() << "unexpected equal orientations";
  const TileMap m = make_tile_map(nw, ne);
  EXPECT_NE(m.map, nullptr);
}

TEST(TileMapTest, SameOrientationIsIdentityStream) {
  for (Curve c : kRecursiveCurves) {
    TiledMatrix a(geom(c));
    const TileMap m = make_tile_map(a.root(), a.root());
    EXPECT_TRUE(m.identity()) << curve_name(c);
  }
}

}  // namespace
}  // namespace rla
