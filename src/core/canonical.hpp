#pragma once

// The canonical-layout (column-major L_C) baseline algorithms (paper §5).
//
// The standard recursion runs *in place* on the user's column-major arrays —
// quadrants are leading-dimension views, so the leaf products see a leading
// dimension equal to the full matrix extent. This is precisely the property
// the paper identifies (§5.1) as the source of the canonical layout's
// performance swings.
//
// The fast algorithms (core/bilinear.hpp's rows, run through canonical.cpp's
// strided adapter) require equal power-of-two quadrants; the gemm driver
// hands them padded square copies (dimensions divisible by 2^depth), and
// their temporaries are compact buffers — every recursion level halves the
// leading dimension, the paper's explanation for Strassen's robustness even
// on canonical storage.

#include <cstdint>

#include "core/config.hpp"
#include "core/matrix.hpp"
#include "obs/treeprof/treeprof.hpp"
#include "parallel/worker_pool.hpp"

namespace rla {

struct CanonContext {
  KernelKind kernel = KernelKind::TiledUnrolled;
  StandardVariant standard_variant = StandardVariant::Temporaries;
  FastVariant fast_variant = FastVariant::Parallel;
  std::uint32_t leaf = 32;       ///< recurse until every dimension <= leaf
  std::uint64_t spawn_flops = 1ull << 21;  ///< spawn subproblems above this
  WorkerPool* pool = nullptr;
  /// External cancellation (GemmConfig::cancel): nodes return without
  /// descending once set; the driver raises rla::Error{Cancelled} after the
  /// task tree drains. Null = never cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Call-local cancellation: forked TaskGroups set it when a task throws
  /// (a fast node's temporary failing alloc.temp), so sibling subtrees
  /// return without descending before the exception reaches gemm().
  /// Null = no forked failure is pruned.
  std::atomic<bool>* abort = nullptr;
  /// Injection-queue priority for forked TaskGroups (GemmConfig::priority).
  int priority = 0;
};

/// C += A·B on column-major views, standard recursion, any shapes
/// (A m×k, B k×n, C m×n); splits use ceiling halves so no padding is needed.
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
