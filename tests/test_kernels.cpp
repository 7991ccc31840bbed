// Tests of the leaf multiply kernels (all tiers) and the streaming /
// strided elementwise helpers.

#include <gtest/gtest.h>

#include <tuple>

#include "core/kernels.hpp"
#include "core/matrix.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

using rla::testing::random_matrix;

class KernelTest
    : public ::testing::TestWithParam<
          std::tuple<KernelKind, std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>> {};

TEST_P(KernelTest, MatchesReference) {
  const auto [kind, shape] = GetParam();
  const auto [m, n, k] = shape;
  Matrix a = random_matrix(m, k, 10);
  Matrix b = random_matrix(k, n, 11);
  Matrix c = random_matrix(m, n, 12);
  Matrix c_ref = c;
  leaf_mm(kind, m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), c.data(), c.ld());
  reference_gemm(m, n, k, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 1.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-12)
      << kernel_name(kind) << " " << m << "x" << n << "x" << k;
}

TEST_P(KernelTest, AlphaScaling) {
  const auto [kind, shape] = GetParam();
  const auto [m, n, k] = shape;
  Matrix a = random_matrix(m, k, 20);
  Matrix b = random_matrix(k, n, 21);
  Matrix c = random_matrix(m, n, 22);
  Matrix c_ref = c;
  leaf_mm(kind, m, n, k, -1.75, a.data(), a.ld(), b.data(), b.ld(), c.data(),
          c.ld());
  reference_gemm(m, n, k, -1.75, a.data(), a.ld(), false, b.data(), b.ld(), false,
                 1.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelTest,
    ::testing::Combine(
        ::testing::Values(KernelKind::Naive, KernelKind::TiledUnrolled,
                          KernelKind::Blocked4x4),
        ::testing::Values(std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{1, 1, 1},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{4, 4, 4},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{16, 16, 16},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{32, 32, 32},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{33, 17, 9},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{7, 5, 3},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{64, 48, 40},
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>{5, 64, 13})),
    [](const auto& info) {
      const KernelKind kind = std::get<0>(info.param);
      const auto shape = std::get<1>(info.param);
      return rla::testing::sanitize(kernel_name(kind)) + "_" +
             std::to_string(std::get<0>(shape)) + "x" +
             std::to_string(std::get<1>(shape)) + "x" +
             std::to_string(std::get<2>(shape));
    });

TEST(Kernels, LeadingDimensionViews) {
  // Multiply submatrix views inside larger arrays (exercises the canonical
  // baseline's ld-carrying leaves).
  Matrix big_a = random_matrix(20, 20, 30);
  Matrix big_b = random_matrix(20, 20, 31);
  Matrix big_c(20, 20);
  big_c.zero();
  Matrix ref(6, 5);
  ref.zero();
  // A block at (3,2) of size 6x4, B block at (1,7) of size 4x5.
  for (KernelKind kind :
       {KernelKind::Naive, KernelKind::TiledUnrolled, KernelKind::Blocked4x4}) {
    big_c.zero();
    leaf_mm(kind, 6, 5, 4, 1.0, &big_a(3, 2), big_a.ld(), &big_b(1, 7),
            big_b.ld(), &big_c(0, 0), big_c.ld());
    ref.zero();
    reference_gemm(6, 5, 4, 1.0, &big_a(3, 2), big_a.ld(), false, &big_b(1, 7),
                   big_b.ld(), false, 0.0, ref.data(), ref.ld());
    for (std::uint32_t i = 0; i < 6; ++i) {
      for (std::uint32_t j = 0; j < 5; ++j) {
        ASSERT_NEAR(big_c(i, j), ref(i, j), 1e-13) << kernel_name(kind);
      }
    }
  }
}

TEST(Kernels, ZeroDimensionsAreNoOps) {
  Matrix c = random_matrix(4, 4, 40);
  Matrix before = c;
  leaf_mm(KernelKind::TiledUnrolled, 0, 4, 4, 1.0, nullptr, 1, nullptr, 1,
          c.data(), c.ld());
  leaf_mm(KernelKind::TiledUnrolled, 4, 4, 0, 1.0, nullptr, 1, nullptr, 1,
          c.data(), c.ld());
  leaf_mm(KernelKind::Blocked4x4, 4, 4, 4, 0.0, nullptr, 1, nullptr, 1, c.data(),
          c.ld());
  EXPECT_EQ(max_abs_diff(c.view(), before.view()), 0.0);
}

TEST(Kernels, VectorOps) {
  constexpr std::uint64_t n = 257;  // odd length to catch tail handling
  std::vector<double> a(n), b(n), c(n), d(n), dst(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = 2.0 * static_cast<double>(i) + 1;
    c[i] = -static_cast<double>(i);
    d[i] = 0.5;
  }
  vset_add(dst.data(), a.data(), -1.0, b.data(), n);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(dst[i], a[i] - b[i]);

  vacc(dst.data(), 2.0, c.data(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(dst[i], a[i] - b[i] + 2.0 * c[i]);
  }

  const double s2[] = {1.0, -1.0}, s3[] = {1.0, 1.0, 1.0}, s4[] = {1.0, -1.0, 1.0, -1.0};
  const double* src[] = {a.data(), b.data(), c.data(), d.data()};
  std::fill(dst.begin(), dst.end(), 1.0);
  vacc_n(dst.data(), 2, s2, src, n);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(dst[i], 1.0 + a[i] - b[i]);

  std::fill(dst.begin(), dst.end(), 0.0);
  vacc_n(dst.data(), 3, s3, src, n);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(dst[i], a[i] + b[i] + c[i]);

  std::fill(dst.begin(), dst.end(), 0.0);
  vacc_n(dst.data(), 4, s4, src, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(dst[i], a[i] - b[i] + c[i] - d[i]);
  }
}

TEST(Kernels, StridedOps) {
  Matrix a = random_matrix(7, 9, 50);
  Matrix b = random_matrix(7, 9, 51);
  Matrix d(7, 9);
  strided_set_add(d.data(), d.ld(), a.data(), a.ld(), -1.0, b.data(), b.ld(), 7, 9);
  for (std::uint32_t j = 0; j < 9; ++j) {
    for (std::uint32_t i = 0; i < 7; ++i) {
      ASSERT_DOUBLE_EQ(d(i, j), a(i, j) - b(i, j));
    }
  }
  strided_acc(d.data(), d.ld(), 2.0, b.data(), b.ld(), 7, 9);
  for (std::uint32_t j = 0; j < 9; ++j) {
    for (std::uint32_t i = 0; i < 7; ++i) {
      ASSERT_DOUBLE_EQ(d(i, j), a(i, j) + b(i, j));
    }
  }
  strided_scale(d.data(), d.ld(), 0.5, 7, 9);
  ASSERT_DOUBLE_EQ(d(3, 3), 0.5 * (a(3, 3) + b(3, 3)));
  strided_scale(d.data(), d.ld(), 0.0, 7, 9);
  EXPECT_EQ(max_abs(d.view()), 0.0);
}

TEST(Kernels, StridedScaleZeroKillsNaN) {
  Matrix d(2, 2);
  d(0, 0) = std::numeric_limits<double>::quiet_NaN();
  strided_scale(d.data(), d.ld(), 0.0, 2, 2);
  EXPECT_EQ(d(0, 0), 0.0);
}

TEST(Kernels, StridedTranspose) {
  Matrix src = random_matrix(13, 37, 60);
  Matrix dst(37, 13);
  strided_transpose(dst.data(), dst.ld(), src.data(), src.ld(), 37, 13);
  for (std::uint32_t i = 0; i < 37; ++i) {
    for (std::uint32_t j = 0; j < 13; ++j) ASSERT_EQ(dst(i, j), src(j, i));
  }
}

TEST(Kernels, StridedCopy) {
  Matrix src = random_matrix(8, 8, 70);
  Matrix dst(8, 8);
  dst.zero();
  strided_copy(dst.data(), dst.ld(), src.data(), src.ld(), 8, 8);
  EXPECT_EQ(max_abs_diff(src.view(), dst.view()), 0.0);
}

}  // namespace
}  // namespace rla
