#include "core/canonical.hpp"

#include <array>

#include "analysis/annotations.hpp"
#include "core/bilinear.hpp"
#include "core/kernels.hpp"

namespace rla {

namespace treeprof = obs::treeprof;

namespace {

ConstMatrixView sub(ConstMatrixView v, std::uint32_t r0, std::uint32_t c0,
                    std::uint32_t rows, std::uint32_t cols) {
  return {v.data + static_cast<std::size_t>(c0) * v.ld + r0, v.ld, rows, cols};
}

MatrixView sub(MatrixView v, std::uint32_t r0, std::uint32_t c0, std::uint32_t rows,
               std::uint32_t cols) {
  return {v.data + static_cast<std::size_t>(c0) * v.ld + r0, v.ld, rows, cols};
}

/// Fork the subproblems of an m×n×k node as tasks? Always under race
/// detection, which certifies the parallel task DAG even on a serial pool.
bool spawn_here(const CanonContext& ctx, std::uint64_t m, std::uint64_t n,
                std::uint64_t k) {
  return analysis::detection_active() ||
         (!ctx.pool->serial() && 2 * m * n * k >= ctx.spawn_flops);
}

/// The strided column-major adapter of the recursion engines
/// (core/bilinear.hpp): pieces are leading-dimension views, temporaries are
/// compact (ld == rows), so each level of the fast recursions halves the
/// leading dimension (paper §5.1).
struct StridedOps {
  using Ctx = CanonContext;
  using View = MatrixView;
  using CView = ConstMatrixView;
  using Temp = Matrix;

  static bool parallel(const Ctx& ctx, const View& c, const CView& a) {
    return spawn_here(ctx, c.rows, c.cols, a.cols);
  }
  static bool at_cutoff(const Ctx& ctx, const View& c) {
    return c.rows <= ctx.leaf || (c.rows & 1) != 0;
  }
  static bool skip(const Ctx&, const CView&, const CView&) { return false; }
  static bool is_leaf(const Ctx& ctx, const View& c, const CView& a) {
    return c.rows <= ctx.leaf && c.cols <= ctx.leaf && a.cols <= ctx.leaf;
  }
  static void leaf(const Ctx& ctx, const View& c, const CView& a, const CView& b) {
    leaf_mm(ctx.kernel, c.rows, c.cols, a.cols, 1.0, a.data, a.ld, b.data, b.ld,
            c.data, c.ld);
    treeprof::add_flops(2ull * c.rows * c.cols * a.cols);
  }
  /// Ceiling halves of each dimension above the leaf; the others stay whole.
  static bilinear::Split<StridedOps> split(const Ctx& ctx, const View& c,
                                           const CView& a, const CView& b) {
    bilinear::Split<StridedOps> s;
    auto edges = [&](std::uint32_t x, std::size_t& pieces) {
      pieces = x > ctx.leaf ? 2 : 1;
      return std::array<std::uint32_t, 3>{0, pieces == 2 ? (x + 1) / 2 : x, x};
    };
    const auto me = edges(c.rows, s.mp), ne = edges(c.cols, s.np),
               ke = edges(a.cols, s.kp);
    for (std::uint32_t q = 0; q < 4; ++q) {
      const std::uint32_t r = q >> 1, col = q & 1;
      if (r < s.mp && col < s.np) {
        s.c[q] = sub(c, me[r], ne[col], me[r + 1] - me[r], ne[col + 1] - ne[col]);
      }
      if (r < s.mp && col < s.kp) {
        s.a[q] = sub(a, me[r], ke[col], me[r + 1] - me[r], ke[col + 1] - ke[col]);
      }
      if (r < s.kp && col < s.np) {
        s.b[q] = sub(b, ke[r], ne[col], ke[r + 1] - ke[r], ne[col + 1] - ne[col]);
      }
    }
    return s;
  }
  template <typename V>
  static V quadrant(const V& x, int q) {
    const std::uint32_t h = x.rows / 2;
    return sub(x, static_cast<std::uint32_t>(q >> 1) * h,
               static_cast<std::uint32_t>(q & 1) * h, h, h);
  }
  static Temp temp(const CView& like) { return Matrix(like.rows, like.cols); }
  static View view(Temp& t) { return t.view(); }
  static std::uint64_t elems(const View& x) {
    return static_cast<std::uint64_t>(x.rows) * x.cols;
  }
  static void zero(const Ctx&, const View& d) {
    strided_scale(d.data, d.ld, 0.0, d.rows, d.cols);
  }
  static void set_add(const Ctx&, const View& d, const CView& x, double s,
                      const CView& y) {
    strided_set_add(d.data, d.ld, x.data, x.ld, s, y.data, y.ld, d.rows, d.cols);
  }
  /// d += Σ s[i]·p[i], one fused pass per column.
  static void acc(const Ctx&, const View& d, std::size_t n,
                  const std::array<double, 4>& s, const std::array<CView, 4>& p) {
    RLA_RACE_WRITE_STRIDED(d.data, d.rows * sizeof(double), d.ld * sizeof(double),
                           d.cols);
    for (std::size_t k = 0; k < n; ++k) {
      RLA_RACE_READ_STRIDED(p[k].data, p[k].rows * sizeof(double),
                            p[k].ld * sizeof(double), p[k].cols);
    }
    std::array<const double*, 4> src{};
    for (std::uint32_t j = 0; j < d.cols; ++j) {
      for (std::size_t k = 0; k < n; ++k) src[k] = &p[k](0, j);
      vacc_n(&d(0, j), n, s.data(), src.data(), d.rows);
    }
  }
};

}  // namespace

void canon_standard(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  bilinear::standard<StridedOps>(ctx, c, a, b, path);
}

void canon_strassen(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  bilinear::run<StridedOps>(bilinear::kStrassen, ctx, c, a, b, path);
}

void canon_winograd(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  bilinear::run<StridedOps>(bilinear::kWinograd, ctx, c, a, b, path);
}

}  // namespace rla
