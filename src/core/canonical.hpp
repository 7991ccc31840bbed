#pragma once

// The canonical-layout (column-major L_C) baseline algorithms (paper §5):
// core/bilinear.hpp's engines run over canonical.cpp's strided adapter,
// whose pieces are leading-dimension views.
//
// The standard recursion works directly on the user's column-major arrays,
// any shapes: it splits each dimension above the leaf at its ceiling half,
// so no padding is needed, and the leaf products see a leading dimension
// equal to the full matrix extent. This is precisely the property the paper
// identifies (§5.1) as the source of the canonical layout's performance
// swings. Its StandardVariant schedule matches the tiled recursion's, so
// L_C and L_Z differ only in storage: InPlace accumulates every product
// into C and allocates nothing; Temporaries gives every non-leaf node
// compact quadrant temporaries as large as its C piece for the second
// k-half (bilinear::temp, the alloc.temp site) and adds them into C after.
//
// The fast algorithms require equal power-of-two quadrants; the gemm driver
// hands them padded square copies (dimensions divisible by 2^depth), and
// their temporaries are compact buffers — every recursion level halves the
// leading dimension, the paper's explanation for Strassen's robustness even
// on canonical storage.

#include <cstdint>

#include "core/bilinear.hpp"
#include "core/matrix.hpp"
#include "obs/treeprof/treeprof.hpp"

namespace rla {

/// One canonical multiplication: the shared engine fields plus the strided
/// recursion's own.
struct CanonContext : bilinear::Context {
  std::uint32_t leaf = 32;       ///< recurse until every dimension <= leaf
  std::uint64_t spawn_flops = 1ull << 21;  ///< spawn subproblems above this
};

/// C += A·B on column-major views, standard recursion, any shapes
/// (A m×k, B k×n, C m×n).
///
/// `path` is this node's recursion-tree address for the treeprof profiler
/// (obs/treeprof/); callers other than the recursion itself leave the root
/// default. Same convention on the fast recursions below.
void canon_standard(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b,
                    std::uint64_t path = obs::treeprof::kRootPath);

/// C += A·B, Strassen recurrence. All of m, n, k must be equal and divisible
/// by 2 down to <= ctx.leaf (the driver guarantees this by padding).
void canon_strassen(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b,
                    std::uint64_t path = obs::treeprof::kRootPath);

/// C += A·B, Winograd's variant; same shape requirements as canon_strassen.
void canon_winograd(const CanonContext& ctx, MatrixView c, ConstMatrixView a,
                    ConstMatrixView b,
                    std::uint64_t path = obs::treeprof::kRootPath);

}  // namespace rla
