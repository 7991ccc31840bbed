#include "core/recursion.hpp"

#include <array>
#include <cfenv>
#include <limits>

#include "analysis/annotations.hpp"
#include "core/bilinear.hpp"
#include "core/kernels.hpp"
#include "core/zero_tree.hpp"
#include "obs/collector.hpp"
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

void leaf(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
          const TiledBlock& b) {
  leaf_mm_tile(ctx.kernel, c.geom->tile_rows, c.geom->tile_cols, a.geom->tile_cols,
               a.tile(), b.tile(), c.tile());
  treeprof::add_flops(2ull * c.geom->tile_rows * c.geom->tile_cols *
                      a.geom->tile_cols);
  if (fault::should_fail(fault::Site::KernelCorrupt)) c.tile()[0] += 1.0e6;
  if (fault::should_fail(fault::Site::KernelFpe)) {
    // Raise a real FE_INVALID and poison the output the way an actual kernel
    // NaN would. feraiseexcept (rather than computing 0/0) keeps the
    // injection visible to the fenv capture without tripping
    // -fsanitize=float-divide-by-zero builds.
    std::feraiseexcept(FE_INVALID);
    c.tile()[0] += std::numeric_limits<double>::quiet_NaN();
  }
}

/// Cancellation + task.throw preamble shared by every recursion entry: one
/// relaxed load (and one more inside should_fail) when nothing is armed.
/// Returns true when the caller should return immediately.
bool node_cancelled(const MulContext& ctx) {
  if (ctx.cancel != nullptr && ctx.cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  if (ctx.external_cancel != nullptr &&
      ctx.external_cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  fault::maybe_fail_task(fault::Site::TaskThrow);
  return false;
}

bool spawn_here(const MulContext& ctx, int level) {
  // Race detection certifies the PARALLEL task DAG, so every fork that could
  // be a task on a real pool must become one, even on the serial pool the
  // detector runs on and below the spawn threshold.
  if (analysis::detection_active()) return true;
  return !ctx.pool->serial() && level >= ctx.spawn_min_level;
}

/// The tiled-block adapter of the bilinear engine (core/bilinear.hpp).
struct TiledOps {
  using Ctx = MulContext;
  using View = TiledBlock;
  using CView = TiledBlock;
  using Temp = TiledMatrix;

  static bool cancelled(const Ctx& ctx) { return node_cancelled(ctx); }
  static std::atomic<bool>* cancel_flag(const Ctx& ctx) { return ctx.cancel; }
  static bool at_cutoff(const Ctx& ctx, const View& c) {
    return c.level <= ctx.fast_cutoff_level;
  }
  static void fallback(const Ctx& ctx, const View& c, const CView& a, const CView& b,
                       std::uint64_t path) {
    mul_standard(ctx, c, a, b, path);
  }
  static bool parallel(const Ctx& ctx, const View& c) {
    return spawn_here(ctx, c.level);
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

using bilinear::fork;

void mul_standard(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b, std::uint64_t path) {
  if (node_cancelled(ctx)) return;
  // Frens–Wise flags: an all-zero operand annihilates the product.
  if ((ctx.zero_a != nullptr && ctx.zero_a->zero(a.level, a.s_base)) ||
      (ctx.zero_b != nullptr && ctx.zero_b->zero(b.level, b.s_base))) {
    return;
  }
  treeprof::NodeScope node(path);
  if (c.level == 0) {
    leaf(ctx, c, a, b);
    return;
  }
  const bool par = spawn_here(ctx, c.level);
  const bool fg = ctx.force_generic_additions;

  const TiledBlock c11 = c.quadrant(kNW), c12 = c.quadrant(kNE);
  const TiledBlock c21 = c.quadrant(kSW), c22 = c.quadrant(kSE);
  const TiledBlock a11 = a.quadrant(kNW), a12 = a.quadrant(kNE);
  const TiledBlock a21 = a.quadrant(kSW), a22 = a.quadrant(kSE);
  const TiledBlock b11 = b.quadrant(kNW), b12 = b.quadrant(kNE);
  const TiledBlock b21 = b.quadrant(kSW), b22 = b.quadrant(kSE);

  if (ctx.standard_variant == StandardVariant::InPlace) {
    // Two phases of four accumulating products; C quadrants are disjoint
    // within each phase, so no temporaries are needed.
    {
      TaskGroup group(*ctx.pool, ctx.cancel, ctx.priority);
      fork(group, par, [&] { mul_standard(ctx, c11, a11, b11, treeprof::child_path(path, 0)); });
      fork(group, par, [&] { mul_standard(ctx, c12, a11, b12, treeprof::child_path(path, 1)); });
      fork(group, par, [&] { mul_standard(ctx, c21, a21, b11, treeprof::child_path(path, 2)); });
      fork(group, par, [&] { mul_standard(ctx, c22, a21, b12, treeprof::child_path(path, 3)); });
      group.wait();
    }
    TaskGroup group(*ctx.pool, ctx.cancel, ctx.priority);
    fork(group, par, [&] { mul_standard(ctx, c11, a12, b21, treeprof::child_path(path, 4)); });
    fork(group, par, [&] { mul_standard(ctx, c12, a12, b22, treeprof::child_path(path, 5)); });
    fork(group, par, [&] { mul_standard(ctx, c21, a22, b21, treeprof::child_path(path, 6)); });
    fork(group, par, [&] { mul_standard(ctx, c22, a22, b22, treeprof::child_path(path, 7)); });
    group.wait();
    return;
  }

  // Paper Fig. 1(a): all eight products concurrently. The first four target
  // the C quadrants directly; the other four go to quadrant-sized
  // temporaries folded in by the post-additions.
  TiledMatrix t11 = bilinear::temp<TiledOps>(c11), t12 = bilinear::temp<TiledOps>(c12);
  TiledMatrix t21 = bilinear::temp<TiledOps>(c21), t22 = bilinear::temp<TiledOps>(c22);
  {
    TaskGroup group(*ctx.pool, ctx.cancel, ctx.priority);
    fork(group, par, [&] { mul_standard(ctx, c11, a11, b11, treeprof::child_path(path, 0)); });
    fork(group, par, [&] { mul_standard(ctx, c12, a11, b12, treeprof::child_path(path, 1)); });
    fork(group, par, [&] { mul_standard(ctx, c21, a21, b11, treeprof::child_path(path, 2)); });
    fork(group, par, [&] { mul_standard(ctx, c22, a21, b12, treeprof::child_path(path, 3)); });
    fork(group, par, [&] {
      t11.zero();
      mul_standard(ctx, t11.root(), a12, b21, treeprof::child_path(path, 4));
    });
    fork(group, par, [&] {
      t12.zero();
      mul_standard(ctx, t12.root(), a12, b22, treeprof::child_path(path, 5));
    });
    fork(group, par, [&] {
      t21.zero();
      mul_standard(ctx, t21.root(), a22, b21, treeprof::child_path(path, 6));
    });
    fork(group, par, [&] {
      t22.zero();
      mul_standard(ctx, t22.root(), a22, b22, treeprof::child_path(path, 7));
    });
    group.wait();
  }
  // "adds" phases mark the serial joints between product waves in the
  // trace; only spawning nodes emit them (deep nodes would flood the ring).
  // Forked add tasks attribute to this node's own path (same depth).
  obs::PhaseScope adds_phase("adds", par);
  TaskGroup group(*ctx.pool, ctx.cancel, ctx.priority);
  fork(group, par, [&] {
    treeprof::NodeScope add_node(path);
    block_acc(c11, 1.0, t11.root(), fg);
    treeprof::add_flops(block_elems(c11));
  });
  fork(group, par, [&] {
    treeprof::NodeScope add_node(path);
    block_acc(c12, 1.0, t12.root(), fg);
    treeprof::add_flops(block_elems(c12));
  });
  fork(group, par, [&] {
    treeprof::NodeScope add_node(path);
    block_acc(c21, 1.0, t21.root(), fg);
    treeprof::add_flops(block_elems(c21));
  });
  fork(group, par, [&] {
    treeprof::NodeScope add_node(path);
    block_acc(c22, 1.0, t22.root(), fg);
    treeprof::add_flops(block_elems(c22));
  });
  group.wait();
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
    mul_standard(ctx, c, a, b, path);
  }
}

}  // namespace rla
