#include "core/add.hpp"

#include <array>
#include <cassert>
#include <cstring>

#include "analysis/annotations.hpp"
#include "analysis/numerics/shadow.hpp"
#include "core/kernels.hpp"
#include "layout/mapping.hpp"

namespace rla {

namespace {

void check_compatible(const TiledBlock& a, const TiledBlock& b) {
  assert(a.level == b.level);
  assert(a.geom->tile_elems() == b.geom->tile_elems());
  (void)a;
  (void)b;
}

}  // namespace

// hotpath-exempt: the order-map registry locks and allocates only on first
// use per (curve, orientation, level); steady state returns a cached pointer.
TileMap make_tile_map(const TiledBlock& dst, const TiledBlock& src,
                      bool force_generic) {
  check_compatible(dst, src);
  TileMap m;
  m.mask = dst.tile_count() - 1;
  if (force_generic) {
    m.map = cached_order_map(dst.geom->curve, dst.orient, src.orient, dst.level).data();
    return m;
  }
  if (dst.orient == src.orient) return m;  // identity stream
  if (dst.geom->curve == Curve::GrayMorton) {
    // The two Gray-Morton orientations' tile orders differ by a rotation of
    // half the tile count (paper §3.4; verified in test_mapping).
    m.rot = dst.tile_count() / 2;
    return m;
  }
  m.map = cached_order_map(dst.geom->curve, dst.orient, src.orient, dst.level).data();
  return m;
}

// rla-hotpath
void block_set_add(const TiledBlock& dst, const TiledBlock& a, double sb,
                   const TiledBlock& b, bool force_generic) {
  const TileMap ma = make_tile_map(dst, a, force_generic);
  const TileMap mb = make_tile_map(dst, b, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  // Tile maps only permute tiles within each operand's contiguous span, so
  // one span annotation per operand is exact.
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(a.begin(), a.elems() * sizeof(double));
  RLA_RACE_READ(b.begin(), b.elems() * sizeof(double));
  if (ma.identity() && mb.identity()) {
    vset_add(dst.begin(), a.begin(), sb, b.begin(), dst.elems());
    return;
  }
  double* d = dst.begin();
  const double* pa = a.begin();
  const double* pb = b.begin();
  for (std::uint64_t s = 0; s < dst.tile_count(); ++s) {
    vset_add(d + s * tsz, pa + ma(s) * tsz, sb, pb + mb(s) * tsz, tsz);
  }
}

// rla-hotpath
void block_acc(const TiledBlock& dst, double s, const TiledBlock& src,
               bool force_generic) {
  const TileMap m = make_tile_map(dst, src, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(src.begin(), src.elems() * sizeof(double));
  if (m.identity()) {
    vacc(dst.begin(), s, src.begin(), dst.elems());
    return;
  }
  if (m.map == nullptr) {
    // Gray-Morton half-step: two contiguous streaming passes.
    const std::uint64_t half = dst.elems() / 2;
    vacc(dst.begin(), s, src.begin() + half, half);
    vacc(dst.begin() + half, s, src.begin(), half);
    return;
  }
  double* d = dst.begin();
  const double* p = src.begin();
  for (std::uint64_t t = 0; t < dst.tile_count(); ++t) {
    vacc(d + t * tsz, s, p + m(t) * tsz, tsz);
  }
}

// rla-hotpath
void block_acc_n(const TiledBlock& dst, std::size_t n, const double* s,
                 const TiledBlock* p, bool force_generic) {
  std::array<TileMap, 4> m{};
  bool identity = true;
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  for (std::size_t k = 0; k < n; ++k) {
    m[k] = make_tile_map(dst, p[k], force_generic);
    identity = identity && m[k].identity();
    RLA_RACE_READ(p[k].begin(), p[k].elems() * sizeof(double));
  }
  std::array<const double*, 4> src{};
  if (identity) {
    for (std::size_t k = 0; k < n; ++k) src[k] = p[k].begin();
    vacc_n(dst.begin(), n, s, src.data(), dst.elems());
    return;
  }
  const std::uint64_t tsz = dst.geom->tile_elems();
  for (std::uint64_t t = 0; t < dst.tile_count(); ++t) {
    for (std::size_t k = 0; k < n; ++k) src[k] = p[k].begin() + m[k](t) * tsz;
    vacc_n(dst.begin() + t * tsz, n, s, src.data(), tsz);
  }
}

// rla-hotpath
void block_copy(const TiledBlock& dst, const TiledBlock& src, bool force_generic) {
  const TileMap m = make_tile_map(dst, src, force_generic);
  const std::uint64_t tsz = dst.geom->tile_elems();
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_RACE_READ(src.begin(), src.elems() * sizeof(double));
  if (m.identity()) {
    RLA_SHADOW_MOVE(dst.begin(), src.begin(), dst.elems());
    std::memcpy(dst.begin(), src.begin(), dst.elems() * sizeof(double));
    return;
  }
  if (m.map == nullptr) {
    const std::uint64_t half = dst.elems() / 2;
    const std::uint64_t half_bytes = half * sizeof(double);
    RLA_SHADOW_MOVE(dst.begin(), src.begin() + half, half);
    RLA_SHADOW_MOVE(dst.begin() + half, src.begin(), half);
    std::memcpy(dst.begin(), src.begin() + half, half_bytes);
    std::memcpy(dst.begin() + half, src.begin(), half_bytes);
    return;
  }
  double* d = dst.begin();
  const double* p = src.begin();
  for (std::uint64_t s = 0; s < dst.tile_count(); ++s) {
    RLA_SHADOW_MOVE(d + s * tsz, p + m(s) * tsz, tsz);
    std::memcpy(d + s * tsz, p + m(s) * tsz, tsz * sizeof(double));
  }
}

// rla-hotpath
void block_zero(const TiledBlock& dst) noexcept {
  RLA_RACE_WRITE(dst.begin(), dst.elems() * sizeof(double));
  RLA_SHADOW_CLEAR(dst.begin(), dst.elems() * sizeof(double));
  std::memset(dst.begin(), 0, dst.elems() * sizeof(double));
}

}  // namespace rla
