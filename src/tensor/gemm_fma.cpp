// FMA gemm backend: the AVX2 register-blocked micro-kernel with fused
// multiply-add accumulation — the ROADMAP's named drop-in follow-on to the
// avx2 backend.
//
// This translation unit is compiled with "-mavx2 -mfma" (and
// APF_GEMM_FMA_BUILD defined) only when the toolchain supports both;
// without that, the backend compiles to an unavailable stub. Availability
// is gated again at runtime via cpuid (AVX2 *and* FMA), so a binary built
// with FMA support still runs (on the other backends) on older CPUs.
//
// Contract level (gemm.h): TOLERANCE-GRADE. A fused
// multiply-add rounds once where the reference kernel rounds twice, so
// results differ from the bitwise-exact backends within normal fp32
// rounding (and are typically slightly MORE accurate). bitwise_exact()
// stays false: the backend never wins the default selection and must be
// requested via APF_GEMM_BACKEND=fma or set_gemm_backend("fma"). The
// panel contract still holds exactly — packing, block boundaries, and the
// beta pre-pass are shared with the other CPU backends (gemm_pack.h), each
// output element accumulates av = alpha * a[i][p] against b[p][j] in fixed
// p order (fused per step), and row panels are computed independently —
// and every call is deterministic for identical arguments.

#include "tensor/gemm_backend.h"

#include "core/check.h"
#include "tensor/gemm.h"

#if defined(APF_GEMM_FMA_BUILD)
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/gemm_pack.h"
#endif

namespace apf {
namespace {

#if defined(APF_GEMM_FMA_BUILD)

// As in the avx2 backend, the packed A panel arrives pre-scaled by alpha,
// so the kernels consume av straight from memory. Scalar tails use
// std::fmaf so every element — vector lane or tail — sees one rounding
// per k step.

// B is read at row stride bs everywhere below: the packed panel (bs ==
// cols) or, for untransposed B, the source matrix in place (bs == ldb).

inline void tail_cols_scalar_fma(std::int64_t j0, std::int64_t cols,
                                 std::int64_t depth,
                                 const float* __restrict arow,
                                 const float* __restrict bp, std::int64_t bs,
                                 float* __restrict crow) {
  for (std::int64_t j = j0; j < cols; ++j) {
    float acc = crow[j];
    for (std::int64_t p = 0; p < depth; ++p)
      acc = std::fmaf(arow[p], bp[p * bs + j], acc);
    crow[j] = acc;
  }
}

inline void kernel_1x8_fma(std::int64_t cols, std::int64_t depth,
                           const float* __restrict arow,
                           const float* __restrict bp, std::int64_t bs,
                           float* __restrict crow) {
  std::int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (std::int64_t p = 0; p < depth; ++p) {
      const __m256 av = _mm256_broadcast_ss(arow + p);
      const __m256 bv = _mm256_loadu_ps(bp + p * bs + j);
      acc = _mm256_fmadd_ps(av, bv, acc);
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  tail_cols_scalar_fma(j, cols, depth, arow, bp, bs, crow);
}

// Eight C rows x one 8-column vector, 8 fused accumulators in registers.
inline void kernel_8x8_fma(std::int64_t cols, std::int64_t depth,
                           const float* __restrict ap,
                           const float* __restrict bp, std::int64_t bs,
                           float* __restrict c, std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc[8];
    for (int r = 0; r < 8; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc + j);
    for (std::int64_t p = 0; p < depth; ++p) {
      const __m256 bv = _mm256_loadu_ps(bp + p * bs + j);
      for (int r = 0; r < 8; ++r) {
        const __m256 av = _mm256_broadcast_ss(ap + r * depth + p);
        acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
      }
    }
    for (int r = 0; r < 8; ++r) _mm256_storeu_ps(c + r * ldc + j, acc[r]);
  }
  for (int r = 0; r < 8; ++r)
    tail_cols_scalar_fma(j, cols, depth, ap + r * depth, bp, bs, c + r * ldc);
}

void micro_kernel_fma(std::int64_t rows, std::int64_t cols,
                      std::int64_t depth, const float* __restrict ap,
                      const float* __restrict bp, std::int64_t bs,
                      float* __restrict c, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 8 <= rows; i += 8)
    kernel_8x8_fma(cols, depth, ap + i * depth, bp, bs, c + i * ldc, ldc);
  for (; i < rows; ++i)
    kernel_1x8_fma(cols, depth, ap + i * depth, bp, bs, c + i * ldc);
}

class FmaGemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "fma"; }
  bool is_available() const override {
    static const bool ok =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return ok;
  }
  // Tolerance-grade (see file header): never claims bitwise exactness.

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
          // Hoisted av = alpha * a[i][p], as in the avx2 backend.
          for (std::int64_t t = 0; t < rows * depth; ++t)
            a_pack[static_cast<std::size_t>(t)] *= alpha;
        }
        for (std::int64_t j0 = 0; j0 < n; j0 += detail::kGemmBlockN) {
          const std::int64_t cols = std::min(detail::kGemmBlockN, n - j0);
          if (!trans_b) {
            // Untransposed B streams from the source in place.
            micro_kernel_fma(rows, cols, depth, a_pack.data(),
                             b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
          } else {
            detail::gemm_pack_b(trans_b, b, ldb, k0, j0, depth, cols,
                                b_pack.data());
            micro_kernel_fma(rows, cols, depth, a_pack.data(), b_pack.data(),
                             cols, c + i0 * ldc + j0, ldc);
          }
        }
      }
    }
  }
};

#else  // !APF_GEMM_FMA_BUILD

// Stub registered when the toolchain cannot target AVX2+FMA: listed,
// never selectable.
class FmaGemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "fma"; }
  bool is_available() const override { return false; }
  void sgemm(bool, bool, std::int64_t, std::int64_t, std::int64_t, float,
             const float*, std::int64_t, const float*, std::int64_t, float,
             float*, std::int64_t) const override {
    APF_CHECK(false, "fma gemm backend was not compiled into this binary");
  }
};

#endif  // APF_GEMM_FMA_BUILD

}  // namespace

namespace detail {
GemmBackend* fma_gemm_backend() {
  static FmaGemmBackend backend;
  return &backend;
}
}  // namespace detail

}  // namespace apf
