#include "core/kernels.hpp"

#include "analysis/annotations.hpp"
#include "analysis/numerics/shadow.hpp"

namespace rla {

namespace {

/// Textbook jik dot-product loop; deliberately unblocked.
void mm_naive(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
              const double* a, std::size_t lda, const double* b, std::size_t ldb,
              double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  for (std::uint32_t j = 0; j < n; ++j) {
    const double* bj = b + static_cast<std::size_t>(j) * ldb;
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (std::uint32_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::uint32_t l = 0; l < k; ++l) acc += a[static_cast<std::size_t>(l) * lda + i] * bj[l];
      cj[i] += alpha * acc;
    }
  }
}

/// The paper's leaf kernel: tiled loops with the innermost accumulation loop
/// unrolled four-way. For cache-resident leaf tiles the outer tiling loops
/// collapse; the tiling matters when the canonical baseline calls this with
/// large leading dimensions.
void mm_tiled_unrolled(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                       const double* a, std::size_t lda, const double* b,
                       std::size_t ldb, double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  constexpr std::uint32_t kTile = 32;
  for (std::uint32_t jj = 0; jj < n; jj += kTile) {
    const std::uint32_t jmax = jj + kTile < n ? jj + kTile : n;
    for (std::uint32_t ii = 0; ii < m; ii += kTile) {
      const std::uint32_t imax = ii + kTile < m ? ii + kTile : m;
      for (std::uint32_t ll = 0; ll < k; ll += kTile) {
        const std::uint32_t lmax = ll + kTile < k ? ll + kTile : k;
        for (std::uint32_t j = jj; j < jmax; ++j) {
          const double* bj = b + static_cast<std::size_t>(j) * ldb;
          double* cj = c + static_cast<std::size_t>(j) * ldc;
          for (std::uint32_t i = ii; i < imax; ++i) {
            const double* ai = a + i;
            double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
            std::uint32_t l = ll;
            for (; l + 4 <= lmax; l += 4) {
              acc0 += ai[static_cast<std::size_t>(l) * lda] * bj[l];
              acc1 += ai[static_cast<std::size_t>(l + 1) * lda] * bj[l + 1];
              acc2 += ai[static_cast<std::size_t>(l + 2) * lda] * bj[l + 2];
              acc3 += ai[static_cast<std::size_t>(l + 3) * lda] * bj[l + 3];
            }
            for (; l < lmax; ++l) acc0 += ai[static_cast<std::size_t>(l) * lda] * bj[l];
            cj[i] += alpha * (((acc0 + acc1) + (acc2 + acc3)));
          }
        }
      }
    }
  }
}

/// Register-blocked 4×4 micro-kernel: 16 scalar accumulators live in
/// registers across the k loop; the compiler vectorizes the column updates.
void mm_blocked4x4(std::uint32_t m, std::uint32_t n, std::uint32_t k, double alpha,
                   const double* a, std::size_t lda, const double* b, std::size_t ldb,
                   double* c, std::size_t ldc) noexcept {
  // rla-lint: covered-by-caller (leaf_mm annotates a, b, c for every variant)
  const std::uint32_t m4 = m & ~3u;
  const std::uint32_t n4 = n & ~3u;
  for (std::uint32_t j = 0; j < n4; j += 4) {
    const double* b0 = b + static_cast<std::size_t>(j) * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    double* c0 = c + static_cast<std::size_t>(j) * ldc;
    double* c1 = c0 + ldc;
    double* c2 = c1 + ldc;
    double* c3 = c2 + ldc;
    for (std::uint32_t i = 0; i < m4; i += 4) {
      double acc[4][4] = {};
      const double* ai = a + i;
      for (std::uint32_t l = 0; l < k; ++l) {
        const double* al = ai + static_cast<std::size_t>(l) * lda;
        const double bv0 = b0[l], bv1 = b1[l], bv2 = b2[l], bv3 = b3[l];
        for (int r = 0; r < 4; ++r) {
          const double av = al[r];
          acc[0][r] += av * bv0;
          acc[1][r] += av * bv1;
          acc[2][r] += av * bv2;
          acc[3][r] += av * bv3;
        }
      }
      for (int r = 0; r < 4; ++r) {
        c0[i + r] += alpha * acc[0][r];
        c1[i + r] += alpha * acc[1][r];
        c2[i + r] += alpha * acc[2][r];
        c3[i + r] += alpha * acc[3][r];
      }
    }
    if (m4 < m) {
      mm_tiled_unrolled(m - m4, 4, k, alpha, a + m4, lda, b0, ldb, c0 + m4, ldc);
    }
  }
  if (n4 < n) {
    mm_tiled_unrolled(m, n - n4, k, alpha, a, lda,
                      b + static_cast<std::size_t>(n4) * ldb, ldb,
                      c + static_cast<std::size_t>(n4) * ldc, ldc);
  }
}

}  // namespace

// rla-hotpath
void leaf_mm(KernelKind kind, std::uint32_t m, std::uint32_t n, std::uint32_t k,
             double alpha, const double* a, std::size_t lda, const double* b,
             std::size_t ldb, double* c, std::size_t ldc) noexcept {
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  // One annotation per operand covers every kernel variant: a is m×k and b
  // is k×n (column-major, leading dimensions lda/ldb); c is accumulated
  // into, so the write annotation subsumes its read.
  RLA_RACE_READ_STRIDED(a, m * sizeof(double), lda * sizeof(double), k);
  RLA_RACE_READ_STRIDED(b, k * sizeof(double), ldb * sizeof(double), n);
  RLA_RACE_WRITE_STRIDED(c, m * sizeof(double), ldc * sizeof(double), n);
  // One shadow pass covers every kernel variant (they compute the same
  // products; only the double-precision summation order differs, which the
  // extended-precision mirror absorbs). Must precede the double kernel so
  // the mirror reads the pre-update C.
  RLA_SHADOW_MM(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  switch (kind) {
    case KernelKind::Naive:
      mm_naive(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
    case KernelKind::TiledUnrolled:
      mm_tiled_unrolled(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
    case KernelKind::Blocked4x4:
      mm_blocked4x4(m, n, k, alpha, a, lda, b, ldb, c, ldc);
      break;
  }
}

// rla-hotpath
void vset_add(double* dst, const double* a, double sb, const double* b,
              std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_SET_ADD(dst, a, sb, b, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] = a[i] + sb * b[i];
}

// rla-hotpath
void vacc(double* dst, double s, const double* src, std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC(dst, s, src, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] += s * src[i];
}

namespace {

// rla-hotpath
void vacc2(double* dst, double s1, const double* a, double s2, const double* b,
           std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC2(dst, s1, a, s2, b, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] += s1 * a[i] + s2 * b[i];
}

// rla-hotpath
void vacc3(double* dst, double s1, const double* a, double s2, const double* b,
           double s3, const double* c, std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC3(dst, s1, a, s2, b, s3, c, n);
  for (std::uint64_t i = 0; i < n; ++i) dst[i] += s1 * a[i] + s2 * b[i] + s3 * c[i];
}

// rla-hotpath
void vacc4(double* dst, double s1, const double* a, double s2, const double* b,
           double s3, const double* c, double s4, const double* d,
           std::uint64_t n) noexcept {
  // rla-lint: covered-by-caller (block_* ops in add.cpp annotate whole tile runs)
  RLA_SHADOW_ACC4(dst, s1, a, s2, b, s3, c, s4, d, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    dst[i] += s1 * a[i] + s2 * b[i] + s3 * c[i] + s4 * d[i];
  }
}

}  // namespace

// rla-hotpath
void vacc_n(double* dst, std::size_t n_src, const double* s, const double* const* src,
            std::uint64_t n) noexcept {
  switch (n_src) {
    case 1:
      vacc(dst, s[0], src[0], n);
      break;
    case 2:
      vacc2(dst, s[0], src[0], s[1], src[1], n);
      break;
    case 3:
      vacc3(dst, s[0], src[0], s[1], src[1], s[2], src[2], n);
      break;
    default:
      vacc4(dst, s[0], src[0], s[1], src[1], s[2], src[2], s[3], src[3], n);
      break;
  }
}

// rla-hotpath
void strided_set_add(double* dst, std::size_t ldd, const double* a, std::size_t lda,
                     double sb, const double* b, std::size_t ldb, std::uint32_t m,
                     std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(a, m * sizeof(double), lda * sizeof(double), n);
  RLA_RACE_READ_STRIDED(b, m * sizeof(double), ldb * sizeof(double), n);
  for (std::uint32_t j = 0; j < n; ++j) {
    vset_add(dst + static_cast<std::size_t>(j) * ldd,
             a + static_cast<std::size_t>(j) * lda, sb,
             b + static_cast<std::size_t>(j) * ldb, m);
  }
}

// rla-hotpath
void strided_acc(double* dst, std::size_t ldd, double s, const double* src,
                 std::size_t lds, std::uint32_t m, std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(src, m * sizeof(double), lds * sizeof(double), n);
  for (std::uint32_t j = 0; j < n; ++j) {
    vacc(dst + static_cast<std::size_t>(j) * ldd, s,
         src + static_cast<std::size_t>(j) * lds, m);
  }
}

// rla-hotpath
void strided_scale(double* dst, std::size_t ldd, double s, std::uint32_t m,
                   std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_SHADOW_SCALE(dst, ldd, s, m, n);
  for (std::uint32_t j = 0; j < n; ++j) {
    double* col = dst + static_cast<std::size_t>(j) * ldd;
    if (s == 0.0) {
      for (std::uint32_t i = 0; i < m; ++i) col[i] = 0.0;
    } else {
      for (std::uint32_t i = 0; i < m; ++i) col[i] *= s;
    }
  }
}

// rla-hotpath
void strided_copy(double* dst, std::size_t ldd, const double* src, std::size_t lds,
                  std::uint32_t m, std::uint32_t n) noexcept {
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(src, m * sizeof(double), lds * sizeof(double), n);
  RLA_SHADOW_COPY_STRIDED(dst, ldd, src, lds, m, n);
  for (std::uint32_t j = 0; j < n; ++j) {
    const double* in = src + static_cast<std::size_t>(j) * lds;
    double* out = dst + static_cast<std::size_t>(j) * ldd;
    for (std::uint32_t i = 0; i < m; ++i) out[i] = in[i];
  }
}

// rla-hotpath
void strided_transpose(double* dst, std::size_t ldd, const double* src,
                       std::size_t lds, std::uint32_t m, std::uint32_t n) noexcept {
  // dst is m×n, src is n×m; blocked to keep both sides cache-friendly.
  RLA_RACE_WRITE_STRIDED(dst, m * sizeof(double), ldd * sizeof(double), n);
  RLA_RACE_READ_STRIDED(src, n * sizeof(double), lds * sizeof(double), m);
  RLA_SHADOW_TRANSPOSE(dst, ldd, src, lds, m, n);
  constexpr std::uint32_t kBlock = 32;
  for (std::uint32_t jj = 0; jj < n; jj += kBlock) {
    const std::uint32_t jmax = jj + kBlock < n ? jj + kBlock : n;
    for (std::uint32_t ii = 0; ii < m; ii += kBlock) {
      const std::uint32_t imax = ii + kBlock < m ? ii + kBlock : m;
      for (std::uint32_t j = jj; j < jmax; ++j) {
        for (std::uint32_t i = ii; i < imax; ++i) {
          dst[static_cast<std::size_t>(j) * ldd + i] =
              src[static_cast<std::size_t>(i) * lds + j];
        }
      }
    }
  }
}

}  // namespace rla
