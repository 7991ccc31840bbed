// Tests of the fast-algorithm rows (core/bilinear.hpp) and the engine that
// runs them: each row, under each schedule, reproduces the classical 2×2
// block product exactly; a row with one sign flipped is caught; through
// gemm() both storage adapters are exact on integer operands at one
// recursion level, and every algorithm (Standard too) is bit-identical across
// thread counts on both storages.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>

#include "core/bilinear.hpp"
#include "test_common.hpp"

namespace rla {
namespace {

namespace bl = bilinear;

/// Engine adapter over a 2×2 matrix of doubles (column-major, ld 2): the
/// root is the whole matrix and its quadrants are single elements, so one
/// engine level is the whole multiply and the leaf is a scalar product.
struct ScalarOps {
  using Ctx = bl::Context;
  struct View {
    double* p = nullptr;
    int n = 0;  ///< 2 (root) or 1 (quadrant)
  };
  using CView = View;
  using Temp = std::unique_ptr<double>;

  static bool parallel(const Ctx&, const View&, const View&) { return true; }
  static bool at_cutoff(const Ctx&, const View& c) { return c.n == 1; }
  static bool skip(const Ctx&, const View&, const View&) { return false; }
  static bool is_leaf(const Ctx&, const View& c, const View&) { return c.n == 1; }
  static void leaf(const Ctx&, const View& c, const View& a, const View& b) {
    *c.p += *a.p * *b.p;
  }
  static bl::Split<ScalarOps> split(const Ctx&, const View& c, const View& a,
                                    const View& b) {
    bl::Split<ScalarOps> s;
    for (int q = 0; q < 4; ++q) {
      s.c[q] = quadrant(c, q);
      s.a[q] = quadrant(a, q);
      s.b[q] = quadrant(b, q);
    }
    return s;
  }
  static View quadrant(const View& x, int q) { return {x.p + (q >> 1) + 2 * (q & 1), 1}; }
  static Temp temp(const View&) { return std::make_unique<double>(0.0); }
  static View view(Temp& t) { return {t.get(), 1}; }
  static std::uint64_t elems(const View&) { return 1; }
  static void zero(const Ctx&, const View& d) { *d.p = 0.0; }
  static void set_add(const Ctx&, const View& d, const View& x, double s, const View& y) {
    *d.p = *x.p + s * *y.p;
  }
  static void acc(const Ctx&, const View& d, std::size_t n,
                  const std::array<double, 4>& s, const std::array<View, 4>& p) {
    for (std::size_t i = 0; i < n; ++i) *d.p += s[i] * *p[i].p;
  }
};

using M2 = std::array<double, 4>;  // column-major 2×2

M2 classical(const M2& a, const M2& b) {
  M2 c{};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      for (int l = 0; l < 2; ++l) c[i + 2 * j] += a[i + 2 * l] * b[l + 2 * j];
    }
  }
  return c;
}

M2 run_row(const bl::Row& row, FastVariant variant, M2 a, M2 b) {
  WorkerPool pool(0);
  bl::Context ctx;
  ctx.pool = &pool;
  ctx.fast_variant = variant;
  M2 c{};
  bl::run<ScalarOps>(row, ctx, {c.data(), 2}, {a.data(), 2}, {b.data(), 2});
  return c;
}

/// True when `row` reproduces the classical product under `variant` on
/// every pair of unit operands (which pins every coefficient of the
/// bilinear form) and on a few integer-valued pairs (exact in double).
bool reproduces_classical(const bl::Row& row, FastVariant variant) {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      M2 a{}, b{};
      a[i] = 1.0;
      b[j] = 1.0;
      if (run_row(row, variant, a, b) != classical(a, b)) return false;
    }
  }
  const M2 ints[] = {{3, -1, 4, 1}, {-5, 9, 2, -6}, {5, 3, -5, 8}};
  for (const M2& a : ints) {
    for (const M2& b : ints) {
      if (run_row(row, variant, a, b) != classical(a, b)) return false;
    }
  }
  return true;
}

constexpr FastVariant kVariants[] = {FastVariant::Parallel, FastVariant::SerialLowMem};

TEST(Bilinear, RowsReproduceTheClassicalBlockProduct) {
  EXPECT_EQ(bl::row_for(Algorithm::Standard), nullptr);
  for (Algorithm alg : {Algorithm::Strassen, Algorithm::Winograd}) {
    for (FastVariant v : kVariants) {
      EXPECT_TRUE(reproduces_classical(*bl::row_for(alg), v))
          << static_cast<int>(alg) << " " << static_cast<int>(v);
    }
  }
}

TEST(Bilinear, StandardEngineReproducesTheClassicalBlockProduct) {
  const M2 a{3, -1, 4, 1}, b{-5, 9, 2, -6};
  for (StandardVariant v : {StandardVariant::Temporaries, StandardVariant::InPlace}) {
    WorkerPool pool(0);
    bl::Context ctx;
    ctx.pool = &pool;
    ctx.standard_variant = v;
    M2 x = a, y = b, c{};
    bl::standard<ScalarOps>(ctx, {c.data(), 2}, {x.data(), 2}, {y.data(), 2});
    EXPECT_EQ(c, classical(a, b)) << static_cast<int>(v);
  }
}

TEST(Bilinear, RowWithOneFlippedSignIsRejected) {
  // The SPAA'99 scan prints S3 = A11 - A12 for P5's A-operand.
  bl::Row typo = bl::kStrassen;
  typo.a[4] = bl::Slot::A11 - bl::Slot::A12;
  typo.pre = {};
  typo.s_temps = typo.t_temps = 0;
  typo = bl::complete(typo);
  for (FastVariant v : kVariants) {
    EXPECT_FALSE(reproduces_classical(typo, v)) << static_cast<int>(v);
  }
  // A flip inside an explicit add program is caught by the parallel schedule.
  bl::Row chain = bl::kWinograd;
  bl::Step& s2 = chain.pre.items[0].items[0].items[1];
  ASSERT_EQ(s2.dst, bl::Slot::S2);
  s2.sum.items[1].s = -s2.sum.items[1].s;
  EXPECT_FALSE(reproduces_classical(chain, FastVariant::Parallel));
  EXPECT_TRUE(reproduces_classical(chain, FastVariant::SerialLowMem));
}

/// Integer-valued operands in [-8, 8]: every intermediate of a one-level
/// fast product is an exact small integer in double.
Matrix integer_matrix(std::uint32_t rows, std::uint32_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Xoshiro256 rng(seed);
  m.fill([&](std::uint32_t, std::uint32_t) {
    return static_cast<double>(static_cast<int>(rng.next_double(0.0, 17.0)) - 8);
  });
  return m;
}

Matrix run_gemm(std::uint32_t n, const Matrix& a, const Matrix& b,
                const GemmConfig& cfg) {
  Matrix c(n, n);
  c.zero();
  gemm(n, n, n, 1.0, a.data(), a.ld(), Op::None, b.data(), b.ld(), Op::None, 0.0,
       c.data(), c.ld(), cfg);
  return c;
}

TEST(Bilinear, OneLevelGemmIsExactOnIntegerOperands) {
  // n = 64 with 32×32 tiles: depth 1 on the tiled path, and the canonical
  // fast path halves 64 once down to its 32 leaf.
  const std::uint32_t n = 64;
  const Matrix a = integer_matrix(n, n, 3), b = integer_matrix(n, n, 4);
  Matrix ref(n, n);
  reference_gemm(n, n, n, 1.0, a.data(), a.ld(), false, b.data(), b.ld(), false, 0.0,
                 ref.data(), ref.ld());
  for (Curve layout : {Curve::ZMorton, Curve::ColMajor}) {
    for (Algorithm alg : {Algorithm::Strassen, Algorithm::Winograd}) {
      for (FastVariant v : kVariants) {
        GemmConfig cfg;
        cfg.layout = layout;
        cfg.algorithm = alg;
        cfg.fast_variant = v;
        cfg.tiles = {32, 32, 32};
        const Matrix c = run_gemm(n, a, b, cfg);
        EXPECT_EQ(max_abs_diff(c.view(), ref.view()), 0.0)
            << static_cast<int>(layout) << " " << static_cast<int>(alg) << " "
            << static_cast<int>(v);
      }
    }
  }
}

TEST(Bilinear, GemmIsBitIdenticalAcrossThreadCounts) {
  // Every algorithm under both of its schedules: the fast rows' FastVariants
  // and the standard recursion's StandardVariants. Each schedule fixes one
  // summation order per element, whatever the thread count and storage.
  const std::uint32_t n = 128;
  const Matrix a = testing::random_matrix(n, n, 5), b = testing::random_matrix(n, n, 6);
  for (Curve layout : {Curve::ZMorton, Curve::ColMajor}) {
    for (Algorithm alg : {Algorithm::Standard, Algorithm::Strassen, Algorithm::Winograd}) {
      for (int v = 0; v < 2; ++v) {
        GemmConfig cfg;
        cfg.layout = layout;
        cfg.algorithm = alg;
        cfg.fast_variant = kVariants[v];
        cfg.standard_variant =
            v == 0 ? StandardVariant::Temporaries : StandardVariant::InPlace;
        cfg.tiles = {8, 8, 8};
        cfg.threads = 1;
        const Matrix serial = run_gemm(n, a, b, cfg);
        cfg.threads = 4;
        const Matrix parallel = run_gemm(n, a, b, cfg);
        EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                              serial.size() * sizeof(double)),
                  0)
            << static_cast<int>(layout) << " " << static_cast<int>(alg) << " "
            << "variant " << v;
      }
    }
  }
}

}  // namespace
}  // namespace rla
