#pragma once

// Leaf-level multiply kernels (paper §5).
//
// The recursion terminates on cache-resident column-major tiles; all the
// floating-point work happens here.  Three tiers are provided, mirroring the
// kernel tiers of the paper's Fig. 7 study:
//
//   Naive         — textbook dot-product triple loop (the "unoptimized" tier)
//   TiledUnrolled — the paper's own C kernel: 6-loop tiled multiply with the
//                   innermost accumulation loop unrolled four-way
//   Blocked4x4    — register-blocked 4×4 micro-kernel, the stand-in for the
//                   vendor dgemm tier
//
// All kernels compute C += alpha * A·B on column-major blocks with leading
// dimensions, so they serve both the tiled leaves (ld == tile rows) and the
// canonical recursion's in-place leaves (ld == full matrix rows).

#include <cstddef>
#include <cstdint>

#include "core/config.hpp"

namespace rla {

/// C (m×n, ldc) += alpha * A (m×k, lda) · B (k×n, ldb); all column-major.
void leaf_mm(KernelKind kind, std::uint32_t m, std::uint32_t n, std::uint32_t k,
             double alpha, const double* a, std::size_t lda, const double* b,
             std::size_t ldb, double* c, std::size_t ldc) noexcept;

/// Contiguous-tile convenience: C (tm×tn) += A (tm×tk) · B (tk×tn), each
/// tile dense column-major (ld == rows).
inline void leaf_mm_tile(KernelKind kind, std::uint32_t tm, std::uint32_t tn,
                         std::uint32_t tk, const double* a, const double* b,
                         double* c) noexcept {
  leaf_mm(kind, tm, tn, tk, 1.0, a, tm, b, tk, c, tm);
}

// ---- contiguous elementwise vector ops (quadrant additions stream through
// these; paper §4 notes the adds are "ideally suited to streaming") ----

/// dst[i] = a[i] + sb * b[i]   (sb is ±1)
void vset_add(double* dst, const double* a, double sb, const double* b,
              std::uint64_t n) noexcept;

/// dst[i] += s * src[i]
void vacc(double* dst, double s, const double* src, std::uint64_t n) noexcept;

/// dst[i] += Σ_k s[k]*src[k][i] over k < n_src (1..4), in one fused pass
/// (the quadrant post-additions' multi-operand accumulations).
void vacc_n(double* dst, std::size_t n_src, const double* s, const double* const* src,
            std::uint64_t n) noexcept;

// ---- strided (leading-dimension) counterparts for the canonical path ----

/// dst = a + sb * b over an m×n column-major block.
void strided_set_add(double* dst, std::size_t ldd, const double* a, std::size_t lda,
                     double sb, const double* b, std::size_t ldb, std::uint32_t m,
                     std::uint32_t n) noexcept;

/// dst += s * src over an m×n column-major block.
void strided_acc(double* dst, std::size_t ldd, double s, const double* src,
                 std::size_t lds, std::uint32_t m, std::uint32_t n) noexcept;

/// dst *= s over an m×n column-major block (s == 0 becomes a store of zeros).
void strided_scale(double* dst, std::size_t ldd, double s, std::uint32_t m,
                   std::uint32_t n) noexcept;

/// dst = src over an m×n column-major block.
void strided_copy(double* dst, std::size_t ldd, const double* src, std::size_t lds,
                  std::uint32_t m, std::uint32_t n) noexcept;

/// dst (m×n) = transpose of src (n×m), both column-major.
void strided_transpose(double* dst, std::size_t ldd, const double* src,
                       std::size_t lds, std::uint32_t m, std::uint32_t n) noexcept;

}  // namespace rla
