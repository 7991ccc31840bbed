#include "core/recursion.hpp"

#include <array>
#include <cfenv>
#include <limits>

#include "analysis/annotations.hpp"
#include "core/add.hpp"
#include "core/bilinear.hpp"
#include "core/kernels.hpp"
#include "core/zero_tree.hpp"
#include "robust/fault.hpp"

namespace rla {

namespace treeprof = obs::treeprof;

namespace {

/// Elements covered by one block: 2^level × 2^level tiles of
/// tile_rows × tile_cols. FLOP weight of one elementwise add pass.
std::uint64_t block_elems(const TiledBlock& b) noexcept {
  return (static_cast<std::uint64_t>(b.geom->tile_rows) << b.level) *
         (static_cast<std::uint64_t>(b.geom->tile_cols) << b.level);
}

/// Fresh temporary with the same tile shape and curve as `like`, sized to
/// one block of like.level levels. Root orientation is 0 by construction.
TiledMatrix make_temp(const TiledBlock& like) {
  TileGeometry g;
  g.tile_rows = like.geom->tile_rows;
  g.tile_cols = like.geom->tile_cols;
  g.depth = like.level;
  g.curve = like.geom->curve;
  g.rows = g.padded_rows();
  g.cols = g.padded_cols();
  return TiledMatrix(g);
}

bool spawn_here(const MulContext& ctx, int level) {
  // Race detection certifies the PARALLEL task DAG, so every fork that could
  // be a task on a real pool must become one, even on the serial pool the
  // detector runs on and below the spawn threshold.
  if (analysis::detection_active()) return true;
  return !ctx.pool->serial() && level >= ctx.spawn_min_level;
}

/// The tiled-block adapter of the recursion engines (core/bilinear.hpp):
/// pieces are quadrants, temporaries fresh TiledMatrix blocks.
struct TiledOps {
  using Ctx = MulContext;
  using View = TiledBlock;
  using CView = TiledBlock;
  using Temp = TiledMatrix;

  static bool parallel(const Ctx& ctx, const View& c, const CView&) {
    return spawn_here(ctx, c.level);
  }
  static bool at_cutoff(const Ctx& ctx, const View& c) {
    return c.level <= ctx.fast_cutoff_level;
  }
  /// Frens–Wise flags: an all-zero operand annihilates the product.
  static bool skip(const Ctx& ctx, const CView& a, const CView& b) {
    return (ctx.zero_a != nullptr && ctx.zero_a->zero(a.level, a.s_base)) ||
           (ctx.zero_b != nullptr && ctx.zero_b->zero(b.level, b.s_base));
  }
  static bool is_leaf(const Ctx&, const View& c, const CView&) { return c.level == 0; }
  static void leaf(const Ctx& ctx, const View& c, const CView& a, const CView& b) {
    leaf_mm_tile(ctx.kernel, c.geom->tile_rows, c.geom->tile_cols, a.geom->tile_cols,
                 a.tile(), b.tile(), c.tile());
    treeprof::add_flops(2ull * c.geom->tile_rows * c.geom->tile_cols *
                        a.geom->tile_cols);
    if (fault::should_fail(fault::Site::KernelCorrupt)) c.tile()[0] += 1.0e6;
    if (fault::should_fail(fault::Site::KernelFpe)) {
      // Raise a real FE_INVALID and poison the output the way an actual
      // kernel NaN would. feraiseexcept (rather than computing 0/0) keeps
      // the injection visible to the fenv capture without tripping
      // -fsanitize=float-divide-by-zero builds.
      std::feraiseexcept(FE_INVALID);
      c.tile()[0] += std::numeric_limits<double>::quiet_NaN();
    }
  }
  static bilinear::Split<TiledOps> split(const Ctx&, const View& c, const CView& a,
                                         const CView& b) {
    bilinear::Split<TiledOps> s;
    for (int q = 0; q < 4; ++q) {
      s.c[q] = c.quadrant(q);
      s.a[q] = a.quadrant(q);
      s.b[q] = b.quadrant(q);
    }
    return s;
  }
  static TiledBlock quadrant(const TiledBlock& x, int q) { return x.quadrant(q); }
  static Temp temp(const CView& like) { return make_temp(like); }
  static View view(Temp& t) { return t.root(); }
  static std::uint64_t elems(const View& x) { return block_elems(x); }
  static void zero(const Ctx&, const View& d) { block_zero(d); }
  static void set_add(const Ctx& ctx, const View& d, const CView& x, double s,
                      const CView& y) {
    block_set_add(d, x, s, y, ctx.force_generic_additions);
  }
  static void acc(const Ctx& ctx, const View& d, std::size_t n,
                  const std::array<double, 4>& s, const std::array<CView, 4>& p) {
    if (n == 1) {
      block_acc(d, s[0], p[0], ctx.force_generic_additions);
    } else {
      block_acc_n(d, n, s.data(), p.data(), ctx.force_generic_additions);
    }
  }
};

}  // namespace

void mul_standard(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  bilinear::standard<TiledOps>(ctx, c, a, b, path);
}
void mul_strassen(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  bilinear::run<TiledOps>(bilinear::kStrassen, ctx, c, a, b, path);
}

void mul_winograd(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  bilinear::run<TiledOps>(bilinear::kWinograd, ctx, c, a, b, path);
}

void mul_dispatch(const MulContext& ctx, Algorithm alg, const TiledBlock& c,
                  const TiledBlock& a, const TiledBlock& b,
                  std::uint64_t path) {
  if (const bilinear::Row* row = bilinear::row_for(alg)) {
    bilinear::run<TiledOps>(*row, ctx, c, a, b, path);
  } else {
    bilinear::standard<TiledOps>(ctx, c, a, b, path);
  }
}

}  // namespace rla
