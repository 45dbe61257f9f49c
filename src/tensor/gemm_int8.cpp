// Int8 quantized gemm backend: u8 activations x s8 weights -> s32
// accumulators on AVX2 (_mm256_maddubs_epi16 + _mm256_madd_epi16), with the
// dequantizing epilogue fused over the per-row activation scales and the
// per-channel weight scales prepacked by tensor/quantize.cpp.
//
// This translation unit is compiled with "-mavx2 -ffp-contract=off" (and
// APF_GEMM_INT8_AVX2_BUILD defined) only when the toolchain supports it;
// without that, the backend compiles to an unavailable stub. Availability is
// gated again at runtime via cpuid, like the fp32 avx2 backend. There is no
// scalar int8 fallback: a "fallback" loop compiled in a -mavx2 TU could be
// auto-vectorized into AVX2 instructions anyway, defeating the gate, and
// hosts without AVX2 simply keep serving fp32.
//
// Exactness of the integer core (quantize.h has the full scheme): weights
// are clamped to |qw| <= kInt8WeightMax = 63 at prepack time, so every
// maddubs pair-sum is bounded by 255 * 63 * 2 = 32130 < 32767 — the s16
// saturation the instruction is infamous for CANNOT trigger, and the vector
// kernel produces the same int32 accumulators as a scalar loop. Floats
// appear only in the epilogue, one fixed expression per output element
// (-ffp-contract=off pins its rounding), so the backend is run-to-run and
// thread-count deterministic even though it is not bitwise_exact() vs the
// fp32 reference.

#include "tensor/gemm_backend.h"

#include "core/check.h"
#include "tensor/gemm.h"
#include "tensor/quantize.h"

#if defined(APF_GEMM_INT8_AVX2_BUILD)
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>
#endif

namespace apf {
namespace {

#if defined(APF_GEMM_INT8_AVX2_BUILD)

// Beta pre-pass, same semantics as detail::gemm_scale_c (gemm_pack.h):
// beta == 0 overwrites without reading C. Local copy rather than an
// include: gemm_pack.h's packers would be dead code in this TU.
void scale_c(std::int64_t m, std::int64_t n, float beta, float* c,
             std::int64_t ldc) {
  if (beta == 1.f) return;
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.f) {
      std::memset(row, 0, sizeof(float) * static_cast<std::size_t>(n));
    } else {
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// RB quantized rows x one 8-channel weight tile, whole k depth, s32
// accumulators in registers. Per 32-byte group g the tile holds 8 channels
// x 4 consecutive k-values; broadcasting the matching 4 activation bytes to
// every 32-bit lane makes maddubs produce the two-element pair sums of ONE
// channel per s16 lane, and madd-by-ones folds them to that channel's
// 4-deep dot product per s32 lane. One B load is shared by all RB rows.
template <int RB>
inline void kernel_rows(const std::uint8_t* __restrict qa, std::int64_t kp,
                        const std::int8_t* __restrict tile, std::int64_t k4,
                        std::int32_t* __restrict acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i sum[RB];
  for (int r = 0; r < RB; ++r) sum[r] = _mm256_setzero_si256();
  for (std::int64_t g = 0; g < k4; ++g) {
    const __m256i bv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(tile + g * 32));
    for (int r = 0; r < RB; ++r) {
      std::uint32_t a4;  // 4 consecutive u8 activations of row r
      std::memcpy(&a4, qa + r * kp + g * 4, 4);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(a4));
      sum[r] = _mm256_add_epi32(
          sum[r], _mm256_madd_epi16(_mm256_maddubs_epi16(av, bv), ones));
    }
  }
  for (int r = 0; r < RB; ++r)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * 8), sum[r]);
}

#endif  // APF_GEMM_INT8_AVX2_BUILD

}  // namespace

namespace detail {

#if defined(APF_GEMM_INT8_AVX2_BUILD)

void int8_apply(const std::uint8_t* qa, const Int8RowQuant* rq,
                std::int64_t rows, const Int8PackedWeights& w, float alpha,
                const float* bias, bool accumulate, float* y,
                std::int64_t ld_y) {
  const std::int64_t kp = w.in_padded;
  const std::int64_t k4 = kp / 4;
  const std::int64_t tiles = w.out_padded / 8;
  for (std::int64_t i = 0; i < rows;) {
    const int rb = static_cast<int>(std::min<std::int64_t>(4, rows - i));
    const std::uint8_t* qrow = qa + i * kp;
    for (std::int64_t jt = 0; jt < tiles; ++jt) {
      alignas(32) std::int32_t acc[4 * 8];
      const std::int8_t* tile = w.data.data() + jt * k4 * 32;
      switch (rb) {
        case 4: kernel_rows<4>(qrow, kp, tile, k4, acc); break;
        case 3: kernel_rows<3>(qrow, kp, tile, k4, acc); break;
        case 2: kernel_rows<2>(qrow, kp, tile, k4, acc); break;
        default: kernel_rows<1>(qrow, kp, tile, k4, acc); break;
      }
      // Dequantizing epilogue over the tile's REAL channels (padded ones
      // hold zeros and are simply dropped). The expression shape is fixed
      // — sa * (sw * float(acc - zp * colsum)) — and this TU pins
      // -ffp-contract=off, so every element rounds identically no matter
      // how rows were split across panels or threads.
      const std::int64_t j0 = jt * 8;
      const std::int64_t jn = std::min<std::int64_t>(8, w.out - j0);
      for (int r = 0; r < rb; ++r) {
        const Int8RowQuant q = rq[i + r];
        float* yrow = y + (i + r) * ld_y + j0;
        if (accumulate) {
          for (std::int64_t jj = 0; jj < jn; ++jj) {
            const std::int64_t c = j0 + jj;
            const std::int32_t raw =
                acc[r * 8 + jj] - q.zero_point * w.col_sums[c];
            yrow[jj] += alpha * (q.scale * (w.scales[c] *
                                            static_cast<float>(raw)));
          }
        } else if (bias != nullptr) {
          for (std::int64_t jj = 0; jj < jn; ++jj) {
            const std::int64_t c = j0 + jj;
            const std::int32_t raw =
                acc[r * 8 + jj] - q.zero_point * w.col_sums[c];
            yrow[jj] = q.scale * (w.scales[c] * static_cast<float>(raw)) +
                       bias[c];
          }
        } else {
          for (std::int64_t jj = 0; jj < jn; ++jj) {
            const std::int64_t c = j0 + jj;
            const std::int32_t raw =
                acc[r * 8 + jj] - q.zero_point * w.col_sums[c];
            yrow[jj] = q.scale * (w.scales[c] * static_cast<float>(raw));
          }
        }
      }
    }
    i += rb;
  }
}

#else  // !APF_GEMM_INT8_AVX2_BUILD

void int8_apply(const std::uint8_t*, const Int8RowQuant*, std::int64_t,
                const Int8PackedWeights&, float, const float*, bool, float*,
                std::int64_t) {
  APF_CHECK(false, "int8 kernel was not compiled into this binary");
}

#endif  // APF_GEMM_INT8_AVX2_BUILD

}  // namespace detail

namespace {

#if defined(APF_GEMM_INT8_AVX2_BUILD)

// Registry adapter: quantize-on-the-fly sgemm so the int8 path is sweepable
// by the same conformance and bench harnesses as avx2/fma. op(B) is
// quantized and packed PER CALL here (thread_local scratch) — the serving
// path avoids that cost by prepacking weights once per layer and calling
// int8_linear (quantize.h) directly. Quantization is row-/channel-local
// with a fixed scan order, so a panel-split caller (the apf::gemm
// dispatcher) re-derives identical packed bytes in every chunk and the
// kGemmRowPanel split-m contract holds bitwise.
class Int8GemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "int8"; }
  bool is_available() const override {
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
  }
  // Tolerance-grade vs fp32 (quantized), so never the default backend —
  // but run-to-run and thread-count deterministic (see file header).
  bool bitwise_exact() const override { return false; }

  void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, std::int64_t lda,
             const float* b, std::int64_t ldb, float beta, float* c,
             std::int64_t ldc) const override {
    scale_c(m, n, beta, c, ldc);
    if (k == 0 || alpha == 0.f) return;
    thread_local Int8PackedWeights packed;
    thread_local std::vector<std::uint8_t> qa;
    thread_local std::vector<Int8RowQuant> rq;
    int8_prepack_into(trans_b, b, ldb, k, n, &packed);
    qa.resize(static_cast<std::size_t>(m * packed.in_padded));
    rq.resize(static_cast<std::size_t>(m));
    int8_quantize_rows(trans_a, a, lda, m, k, packed.in_padded, qa.data(),
                       rq.data());
    detail::int8_apply(qa.data(), rq.data(), m, packed, alpha,
                       /*bias=*/nullptr, /*accumulate=*/true, c, ldc);
  }
};

#else  // !APF_GEMM_INT8_AVX2_BUILD

// Stub registered when the toolchain cannot target AVX2: listed, never
// selectable.
class Int8GemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "int8"; }
  bool is_available() const override { return false; }
  bool bitwise_exact() const override { return false; }
  void sgemm(bool, bool, std::int64_t, std::int64_t, std::int64_t, float,
             const float*, std::int64_t, const float*, std::int64_t, float,
             float*, std::int64_t) const override {
    APF_CHECK(false, "int8 gemm backend was not compiled into this binary");
  }
};

#endif  // APF_GEMM_INT8_AVX2_BUILD

}  // namespace

namespace detail {
GemmBackend* int8_gemm_backend() {
  static Int8GemmBackend backend;
  return &backend;
}
}  // namespace detail

}  // namespace apf
