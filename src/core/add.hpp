#pragma once

// Orientation-aware quadrant additions (paper §4, "Issues with pre- and
// post-additions").
//
// Every block is contiguous in memory, so additions stream — but when two
// blocks' sub-curves have different orientations (possible for Gray-Morton
// and Hilbert), corresponding tiles sit at different relative positions.
// Three resolution strategies, exactly as the paper prescribes:
//
//   * same orientation           -> single streaming pass
//   * Gray-Morton mismatch       -> two half-passes (the §3.4 symmetry: the
//                                   two orientations' tile orders differ by a
//                                   rotation of half the tile count)
//   * Hilbert (or forced) mismatch -> global mapping arrays per orientation
//                                   pair (cached_order_map)
//
// All operands must share tile shape and level; only orientations differ.

#include "core/tiled_matrix.hpp"

namespace rla {

/// How tile positions of a source block map onto the destination's
/// streaming order. Resolves to identity, rotate-by-half, or a mapping array.
struct TileMap {
  const std::uint32_t* map = nullptr;  ///< mapping array, or null
  std::uint64_t rot = 0;               ///< rotation amount when map == null
  std::uint64_t mask = 0;              ///< tile_count - 1 (tile count is 4^level)

  std::uint64_t operator()(std::uint64_t s) const noexcept {
    return map != nullptr ? map[s] : ((s + rot) & mask);
  }
  bool identity() const noexcept { return map == nullptr && rot == 0; }
};

/// Build the map taking the destination block's tile positions to the
/// source's. `force_generic` always materializes a mapping array (ablation
/// of the streaming/half-step fast paths).
TileMap make_tile_map(const TiledBlock& dst, const TiledBlock& src,
                      bool force_generic = false);

/// dst = a + sb·b (sb = ±1).
void block_set_add(const TiledBlock& dst, const TiledBlock& a, double sb,
                   const TiledBlock& b, bool force_generic = false);

/// dst += s·src.
void block_acc(const TiledBlock& dst, double s, const TiledBlock& src,
               bool force_generic = false);

/// dst += Σ_k s[k]·p[k] over k < n (2..4 sources), in one fused pass.
void block_acc_n(const TiledBlock& dst, std::size_t n, const double* s,
                 const TiledBlock* p, bool force_generic = false);

/// dst = src (orientation-aware copy).
void block_copy(const TiledBlock& dst, const TiledBlock& src,
                bool force_generic = false);

/// Zero the block's storage.
void block_zero(const TiledBlock& dst) noexcept;

}  // namespace rla
