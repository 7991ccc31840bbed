#pragma once

// The three recursive multiplication algorithms over tiled blocks (paper §2,
// Fig. 1), with the parallel spawn structure of §2 ("the seven or eight
// calls are spawned in parallel") expressed as TaskGroup forks. The
// recursions themselves are core/bilinear.hpp's engines — standard() and
// the fast rows' run() — driven through recursion.cpp's tiled-block adapter;
// canonical.hpp runs the same engines over column-major views.
//
// All routines compute C += A·B on blocks of equal level; A's tiles are
// t_m × t_k, B's t_k × t_n, C's t_m × t_n. Temporaries are fresh TiledMatrix
// allocations of quadrant size — for the fast algorithms this is the paper's
// §5.1 observation that every recursion level halves the leading dimension.

#include <cstdint>

#include "core/bilinear.hpp"
#include "core/tiled_matrix.hpp"
#include "obs/treeprof/treeprof.hpp"

namespace rla {

class ZeroTree;

/// One tiled multiplication: the shared engine fields plus the tiled
/// recursion's own.
struct MulContext : bilinear::Context {
  int fast_cutoff_level = 0;     ///< Strassen/Winograd hand over to standard at/below
  bool force_generic_additions = false;
  /// Recursive calls are spawned as tasks at this block level and above;
  /// below it the recursion runs serially inside the owning task.
  int spawn_min_level = 2;
  /// Optional Frens–Wise zero-block flags for the original A/B operands
  /// (standard algorithm only): all-zero blocks act as multiplicative
  /// annihilators and their products are skipped. Must describe exactly the
  /// matrices whose blocks the recursion receives.
  const ZeroTree* zero_a = nullptr;
  const ZeroTree* zero_b = nullptr;
};

// Each routine carries its node's quadrant path (obs/treeprof/ encoding) so
// an armed tree-profiling session can attribute cost per recursion-tree
// node; recursive calls extend it with the child index (standard products
// 0..7, fast-algorithm products P1..P7 -> 0..6, forked add tasks attribute
// to their node's own path). Defaulting to kRootPath keeps external callers
// unchanged; when no session is armed the per-node cost is one relaxed load.

/// C += A·B, standard 8-multiply recursion (Fig. 1(a)).
void mul_standard(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

/// C += A·B, Strassen's 7-multiply recurrence (Fig. 1(b)).
void mul_strassen(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

/// C += A·B, Winograd's variant (Fig. 1(c)).
void mul_winograd(const MulContext& ctx, const TiledBlock& c, const TiledBlock& a,
                  const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

/// Dispatch on ctx/algorithm.
void mul_dispatch(const MulContext& ctx, Algorithm alg, const TiledBlock& c,
                  const TiledBlock& a, const TiledBlock& b,
                  std::uint64_t path = obs::treeprof::kRootPath);

}  // namespace rla
