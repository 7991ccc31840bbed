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

void leaf(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
          ConstMatrixView b) {
  leaf_mm(ctx.kernel, c.rows, c.cols, a.cols, 1.0, a.data, a.ld, b.data, b.ld,
          c.data, c.ld);
  treeprof::add_flops(2ull * c.rows * c.cols * a.cols);
}

/// Cancellation check at node granularity (external, or a failed sibling
/// task); the canonical counterpart of recursion.cpp's node_cancelled.
bool canon_cancelled(const CanonContext& ctx) noexcept {
  return (ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed)) ||
         (ctx.abort != nullptr && ctx.abort->load(std::memory_order_relaxed));
}

/// Fork the subproblems of an m×n×k node as tasks? Always under race
/// detection, which certifies the parallel task DAG even on a serial pool.
bool spawn_here(const CanonContext& ctx, std::uint64_t m, std::uint64_t n,
                std::uint64_t k) {
  return analysis::detection_active() ||
         (!ctx.pool->serial() && 2 * m * n * k >= ctx.spawn_flops);
}

}  // namespace

using bilinear::fork;

void canon_standard(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  if (canon_cancelled(ctx)) return;
  treeprof::NodeScope tree_node(path);
  const std::uint32_t m = c.rows, n = c.cols, k = a.cols;
  if (m <= ctx.leaf && n <= ctx.leaf && k <= ctx.leaf) {
    leaf(ctx, c, a, b);
    return;
  }
  // Ceiling-half boundaries for each dimension that needs splitting.
  auto bounds = [&](std::uint32_t x) {
    std::array<std::uint32_t, 3> edges{0, x, x};
    std::size_t pieces = 1;
    if (x > ctx.leaf) {
      edges[1] = (x + 1) / 2;
      pieces = 2;
    }
    return std::pair(edges, pieces);
  };
  const auto [me, mp] = bounds(m);
  const auto [ne, np] = bounds(n);
  const auto [ke, kp] = bounds(k);
  const bool par = spawn_here(ctx, m, n, k);

  TaskGroup group(*ctx.pool, nullptr, ctx.priority);
  for (std::size_t mi = 0; mi < mp; ++mi) {
    for (std::size_t nj = 0; nj < np; ++nj) {
      const std::uint32_t r0 = me[mi], rows = me[mi + 1] - me[mi];
      const std::uint32_t c0 = ne[nj], cols = ne[nj + 1] - ne[nj];
      MatrixView cc = sub(c, r0, c0, rows, cols);
      // Tree addresses follow the tiled recursion's convention: C-quadrant
      // products of the first k-half are children 0..3, the second k-half
      // 4..7.
      const unsigned ci = static_cast<unsigned>(mi * 2 + nj);
      fork(group, par, [=, &ctx, &ke = ke, kp = kp] {
        if (kp == 1) {
          canon_standard(ctx, cc, sub(a, r0, 0, rows, k), sub(b, 0, c0, k, cols),
                         treeprof::child_path(path, ci));
          return;
        }
        const std::uint32_t k1 = ke[1];
        ConstMatrixView a1 = sub(a, r0, 0, rows, k1);
        ConstMatrixView a2 = sub(a, r0, k1, rows, k - k1);
        ConstMatrixView b1 = sub(b, 0, c0, k1, cols);
        ConstMatrixView b2 = sub(b, k1, c0, k - k1, cols);
        if (ctx.standard_variant == StandardVariant::Temporaries && par) {
          // Paper Fig. 1(a) parallel form: both k-halves at once, the second
          // into a temporary folded in by a post-addition.
          Matrix tmp(rows, cols);
          TaskGroup inner(*ctx.pool, nullptr, ctx.priority);
          inner.spawn([=, &ctx] {
            canon_standard(ctx, cc, a1, b1, treeprof::child_path(path, ci));
          });
          inner.spawn([&tmp, a2, b2, &ctx, path, ci] {
            tmp.zero();
            canon_standard(ctx, tmp.view(), a2, b2,
                           treeprof::child_path(path, 4 + ci));
          });
          inner.wait();
          treeprof::NodeScope add_node(path);
          strided_acc(cc.data, cc.ld, 1.0, tmp.data(), tmp.ld(), rows, cols);
          treeprof::add_flops(static_cast<std::uint64_t>(rows) * cols);
        } else {
          canon_standard(ctx, cc, a1, b1, treeprof::child_path(path, ci));
          canon_standard(ctx, cc, a2, b2, treeprof::child_path(path, 4 + ci));
        }
      });
    }
  }
  group.wait();
}

namespace {

/// The strided column-major adapter of the bilinear engine
/// (core/bilinear.hpp): quadrants are leading-dimension views, temporaries
/// are compact (ld == h), so each level of the fast recursions halves the
/// leading dimension (paper §5.1).
struct StridedOps {
  using Ctx = CanonContext;
  using View = MatrixView;
  using CView = ConstMatrixView;
  using Temp = Matrix;

  static bool cancelled(const Ctx& ctx) { return canon_cancelled(ctx); }
  static std::atomic<bool>* cancel_flag(const Ctx& ctx) { return ctx.abort; }
  static bool at_cutoff(const Ctx& ctx, const View& c) {
    return c.rows <= ctx.leaf || (c.rows & 1) != 0;
  }
  static void fallback(const Ctx& ctx, const View& c, const CView& a, const CView& b,
                       std::uint64_t path) {
    treeprof::NodeScope node(path);
    leaf(ctx, c, a, b);
  }
  static bool parallel(const Ctx& ctx, const View& c) {
    return spawn_here(ctx, c.rows, c.rows, c.rows);
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

void canon_strassen(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  bilinear::run<StridedOps>(bilinear::kStrassen, ctx, c, a, b, path);
}

void canon_winograd(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b, std::uint64_t path) {
  bilinear::run<StridedOps>(bilinear::kWinograd, ctx, c, a, b, path);
}

}  // namespace rla
