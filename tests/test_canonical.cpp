// Tests of the canonical-layout (L_C) baseline recursions.

#include <gtest/gtest.h>

#include <cstring>

#include "core/canonical.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::random_matrix;

double canon_std_error(std::uint32_t m, std::uint32_t n, std::uint32_t k,
                       const CanonContext& ctx) {
  Matrix a = random_matrix(m, k, 200);
  Matrix b = random_matrix(k, n, 201);
  Matrix c = random_matrix(m, n, 202);
  Matrix c_ref = c;
  canon_standard(ctx, c.view(), a.view(), b.view());
  reference_gemm(m, n, k, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 1.0, c_ref.data(), c_ref.ld());
  return max_abs_diff(c.view(), c_ref.view());
}

TEST(Canonical, StandardSquarePowerOfTwo) {
  WorkerPool pool(0);
  CanonContext ctx;
  ctx.pool = &pool;
  EXPECT_LT(canon_std_error(64, 64, 64, ctx), 1e-11);
}

TEST(Canonical, StandardOddSizes) {
  WorkerPool pool(0);
  CanonContext ctx;
  ctx.pool = &pool;
  // Ceiling-half splits must handle every awkward shape in place.
  EXPECT_LT(canon_std_error(37, 41, 53, ctx), 1e-11);
  EXPECT_LT(canon_std_error(1, 100, 1, ctx), 1e-11);
  EXPECT_LT(canon_std_error(100, 1, 7, ctx), 1e-11);
  EXPECT_LT(canon_std_error(65, 33, 129, ctx), 1e-11);
}

TEST(Canonical, StandardLeafSizeIndependence) {
  WorkerPool pool(0);
  for (std::uint32_t leaf : {8u, 16u, 32u, 64u}) {
    CanonContext ctx;
    ctx.pool = &pool;
    ctx.leaf = leaf;
    EXPECT_LT(canon_std_error(70, 70, 70, ctx), 1e-11) << "leaf=" << leaf;
  }
}

TEST(Canonical, StandardParallelMatchesSerial) {
  const std::uint32_t n = 96;
  Matrix a = random_matrix(n, n, 1);
  Matrix b = random_matrix(n, n, 2);
  auto run = [&](unsigned threads, StandardVariant variant) {
    WorkerPool pool(threads);
    CanonContext ctx;
    ctx.pool = &pool;
    ctx.standard_variant = variant;
    ctx.spawn_flops = 1;  // spawn aggressively
    Matrix c(n, n);
    c.zero();
    canon_standard(ctx, c.view(), a.view(), b.view());
    return c;
  };
  // Each variant fixes its summation order whether or not a node forks, so
  // serial and parallel runs agree bit for bit.
  for (StandardVariant variant :
       {StandardVariant::InPlace, StandardVariant::Temporaries}) {
    const Matrix serial = run(0, variant);
    const Matrix parallel = run(3, variant);
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(double)),
              0)
        << static_cast<int>(variant);
  }
}

double canon_fast_error(bool winograd, std::uint32_t s, const CanonContext& ctx) {
  Matrix a = random_matrix(s, s, 300);
  Matrix b = random_matrix(s, s, 301);
  Matrix c(s, s);
  c.zero();
  if (winograd) {
    canon_winograd(ctx, c.view(), a.view(), b.view());
  } else {
    canon_strassen(ctx, c.view(), a.view(), b.view());
  }
  Matrix c_ref(s, s);
  c_ref.zero();
  reference_gemm(s, s, s, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 0.0, c_ref.data(), c_ref.ld());
  return max_abs_diff(c.view(), c_ref.view());
}

TEST(Canonical, StrassenPowerOfTwo) {
  WorkerPool pool(0);
  CanonContext ctx;
  ctx.pool = &pool;
  ctx.leaf = 16;
  EXPECT_LT(canon_fast_error(false, 128, ctx), 1e-10);
}

TEST(Canonical, WinogradPowerOfTwo) {
  WorkerPool pool(0);
  CanonContext ctx;
  ctx.pool = &pool;
  ctx.leaf = 16;
  EXPECT_LT(canon_fast_error(true, 128, ctx), 1e-10);
}

TEST(Canonical, FastAlgorithmsHalvableNonPowerOfTwo) {
  // 96 = 24 * 4: halves down to 24 <= leaf(32).
  WorkerPool pool(0);
  CanonContext ctx;
  ctx.pool = &pool;
  EXPECT_LT(canon_fast_error(false, 96, ctx), 1e-10);
  EXPECT_LT(canon_fast_error(true, 96, ctx), 1e-10);
}

TEST(Canonical, FastParallelMatchesSerial) {
  const std::uint32_t s = 64;
  Matrix a = random_matrix(s, s, 5);
  Matrix b = random_matrix(s, s, 6);
  auto run = [&](unsigned threads) {
    WorkerPool pool(threads);
    CanonContext ctx;
    ctx.pool = &pool;
    ctx.leaf = 16;
    ctx.spawn_flops = 1;
    Matrix c(s, s);
    c.zero();
    canon_strassen(ctx, c.view(), a.view(), b.view());
    return c;
  };
  Matrix serial = run(0);
  Matrix parallel = run(4);
  EXPECT_EQ(max_abs_diff(serial.view(), parallel.view()), 0.0);
}

TEST(Canonical, SubviewsUntouchedOutsideTarget) {
  // In-place recursion must write only the target block of a larger array.
  WorkerPool pool(0);
  CanonContext ctx;
  ctx.pool = &pool;
  Matrix big = random_matrix(50, 50, 7);
  Matrix snapshot = big;
  Matrix a = random_matrix(20, 20, 8);
  Matrix b = random_matrix(20, 20, 9);
  MatrixView target{&big(10, 10), big.ld(), 20, 20};
  canon_standard(ctx, target, a.view(), b.view());
  for (std::uint32_t j = 0; j < 50; ++j) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      if (i >= 10 && i < 30 && j >= 10 && j < 30) continue;
      ASSERT_EQ(big(i, j), snapshot(i, j)) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace rla
