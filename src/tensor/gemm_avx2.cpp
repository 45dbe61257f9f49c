// AVX2 gemm backend: the reference blocked kernel with a register-blocked
// 8-row x 8-column micro-kernel on 256-bit vectors.
//
// This translation unit is compiled with "-mavx2 -ffp-contract=off" (and
// APF_GEMM_AVX2_BUILD defined) only when the toolchain supports it; without
// that, the backend compiles to an unavailable stub. Availability is gated
// again at runtime via cpuid, so a binary built with AVX2 support still
// runs (on the other backends) on older CPUs.
//
// Bitwise contract (gemm.h): the packed panels, block boundaries, and beta
// pre-pass are shared with the reference backend (gemm_pack.h), and the
// micro-kernel replicates the reference accumulation order per output
// element — av = alpha * a[i][p] as a scalar, then c += av * b[p][j] as a
// separate multiply and add for each p in sequence. AVX2 only widens the
// j dimension (8 lanes, each still its own element) and keeps the 8x8 C
// block in registers across the k loop instead of re-reading memory every
// p. No FMA is used: a fused multiply-add rounds once where the reference
// kernel rounds twice, which would break bitwise identity with it.

#include "tensor/gemm_backend.h"

#include "core/check.h"
#include "tensor/gemm.h"

#if defined(APF_GEMM_AVX2_BUILD)
#include <immintrin.h>

#include <algorithm>
#include <vector>

#include "tensor/gemm_pack.h"
#endif

namespace apf {
namespace {

#if defined(APF_GEMM_AVX2_BUILD)

// The packed A panel arrives pre-scaled by alpha (the same av = alpha *
// a[i][p] multiplication the reference kernel performs per k step, hoisted
// into the packing pass — identical operands, identical rounding), so the
// kernels below consume av straight from memory.

// B is read at row stride bs everywhere below: the packed panel (bs ==
// cols) or, for untransposed B, the source matrix in place (bs == ldb) —
// same elements in the same order, so bitwise identity is unaffected.

// Scalar column tail, reference order: per element, accumulate
// av * b[p][j] over p in sequence.
inline void tail_cols_scalar(std::int64_t j0, std::int64_t cols,
                             std::int64_t depth,
                             const float* __restrict arow,
                             const float* __restrict bp, std::int64_t bs,
                             float* __restrict crow) {
  for (std::int64_t j = j0; j < cols; ++j) {
    float acc = crow[j];
    for (std::int64_t p = 0; p < depth; ++p) acc += arow[p] * bp[p * bs + j];
    crow[j] = acc;
  }
}

// One C row: vector over j in 8-wide chunks, scalar tail.
inline void kernel_1x8(std::int64_t cols, std::int64_t depth,
                       const float* __restrict arow,
                       const float* __restrict bp, std::int64_t bs,
                       float* __restrict crow) {
  std::int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (std::int64_t p = 0; p < depth; ++p) {
      const __m256 av = _mm256_broadcast_ss(arow + p);
      const __m256 bv = _mm256_loadu_ps(bp + p * bs + j);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  tail_cols_scalar(j, cols, depth, arow, bp, bs, crow);
}

// Eight C rows x one 8-column vector: 8 accumulators live in registers
// across the whole k loop, one B load and 8 memory broadcasts per p.
inline void kernel_8x8(std::int64_t cols, std::int64_t depth,
                       const float* __restrict ap, const float* __restrict bp,
                       std::int64_t bs, float* __restrict c,
                       std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc[8];
    for (int r = 0; r < 8; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc + j);
    for (std::int64_t p = 0; p < depth; ++p) {
      const __m256 bv = _mm256_loadu_ps(bp + p * bs + j);
      for (int r = 0; r < 8; ++r) {
        const __m256 av = _mm256_broadcast_ss(ap + r * depth + p);
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bv));
      }
    }
    for (int r = 0; r < 8; ++r) _mm256_storeu_ps(c + r * ldc + j, acc[r]);
  }
  for (int r = 0; r < 8; ++r)
    tail_cols_scalar(j, cols, depth, ap + r * depth, bp, bs, c + r * ldc);
}

// Panel multiply: C[rows x cols] += Ap[rows x depth] * B[depth x cols]
// with Ap pre-scaled by alpha. Row groups only change which rows share
// register residency — never any element's arithmetic — so row stability
// (gemm.h) holds.
void micro_kernel_avx2(std::int64_t rows, std::int64_t cols,
                       std::int64_t depth, const float* __restrict ap,
                       const float* __restrict bp, std::int64_t bs,
                       float* __restrict c, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 8 <= rows; i += 8)
    kernel_8x8(cols, depth, ap + i * depth, bp, bs, c + i * ldc, ldc);
  for (; i < rows; ++i)
    kernel_1x8(cols, depth, ap + i * depth, bp, bs, c + i * ldc);
}

class Avx2GemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "avx2"; }
  bool is_available() const override {
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
  }

  void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, std::int64_t lda,
             const float* b, std::int64_t ldb, float beta, float* c,
             std::int64_t ldc) const override {
    detail::gemm_scale_c(m, n, beta, c, ldc);
    if (k == 0 || alpha == 0.f) return;

    // Serial over row panels: the apf::gemm dispatcher owns threading and
    // hands each chunk to this backend whole (thread_local buffers keep
    // concurrent chunks from sharing packing space).
    thread_local std::vector<float> a_pack, b_pack;
    a_pack.resize(static_cast<std::size_t>(detail::kGemmBlockM *
                                           detail::kGemmBlockK));
    b_pack.resize(static_cast<std::size_t>(detail::kGemmBlockK *
                                           detail::kGemmBlockN));
    for (std::int64_t i0 = 0; i0 < m; i0 += detail::kGemmBlockM) {
      const std::int64_t rows = std::min(detail::kGemmBlockM, m - i0);
      for (std::int64_t k0 = 0; k0 < k; k0 += detail::kGemmBlockK) {
        const std::int64_t depth = std::min(detail::kGemmBlockK, k - k0);
        detail::gemm_pack_a(trans_a, a, lda, i0, k0, rows, depth,
                            a_pack.data());
        if (alpha != 1.f) {
          // Hoisted av = alpha * a[i][p] (see kernel comment above).
          for (std::int64_t t = 0; t < rows * depth; ++t)
            a_pack[static_cast<std::size_t>(t)] *= alpha;
        }
        for (std::int64_t j0 = 0; j0 < n; j0 += detail::kGemmBlockN) {
          const std::int64_t cols = std::min(detail::kGemmBlockN, n - j0);
          if (!trans_b) {
            // Untransposed B streams from the source in place.
            micro_kernel_avx2(rows, cols, depth, a_pack.data(),
                              b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
          } else {
            detail::gemm_pack_b(trans_b, b, ldb, k0, j0, depth, cols,
                                b_pack.data());
            micro_kernel_avx2(rows, cols, depth, a_pack.data(), b_pack.data(),
                              cols, c + i0 * ldc + j0, ldc);
          }
        }
      }
    }
  }
};

#else  // !APF_GEMM_AVX2_BUILD

// Stub registered when the toolchain cannot target AVX2: listed, never
// selectable.
class Avx2GemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "avx2"; }
  bool is_available() const override { return false; }
  void sgemm(bool, bool, std::int64_t, std::int64_t, std::int64_t, float,
             const float*, std::int64_t, const float*, std::int64_t, float,
             float*, std::int64_t) const override {
    APF_CHECK(false, "avx2 gemm backend was not compiled into this binary");
  }
};

#endif  // APF_GEMM_AVX2_BUILD

}  // namespace

namespace detail {
GemmBackend* avx2_gemm_backend() {
  static Avx2GemmBackend backend;
  return &backend;
}
}  // namespace detail

}  // namespace apf
