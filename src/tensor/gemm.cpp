#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "tensor/gemm_backend.h"
#include "tensor/gemm_pack.h"
#include "core/thread_pool.h"

namespace apf {
namespace {

// Inner kernel: C[rows x cols] += Ap[rows x depth] * B[depth x cols], with
// A packed and B read at row stride bs — the packed panel (bs == cols) or,
// for untransposed B, the source matrix in place (bs == ldb; same elements
// in the same order, so results are identical and the copy is saved). The
// j-loop vectorizes with the baseline ISA; this is the accumulation order
// every backend must replicate.
void micro_kernel(std::int64_t rows, std::int64_t cols, std::int64_t depth,
                  float alpha, const float* __restrict ap,
                  const float* __restrict bp, std::int64_t bs,
                  float* __restrict c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* __restrict crow = c + i * ldc;
    const float* __restrict arow = ap + i * depth;
    for (std::int64_t p = 0; p < depth; ++p) {
      const float av = alpha * arow[p];
      const float* __restrict brow = bp + p * bs;
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += av * brow[j];
    }
  }
}

/// The portable blocked kernel — the bitwise ground truth every other
/// backend is measured against (gemm.h contract). Serial by design:
/// parallelism lives in the apf::gemm dispatcher, which splits m across
/// panel-aligned chunks before any backend runs.
class ReferenceGemmBackend final : public GemmBackend {
 public:
  const char* name() const override { return "reference"; }
  bool is_available() const override { return true; }

  void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
             std::int64_t k, float alpha, const float* a, std::int64_t lda,
             const float* b, std::int64_t ldb, float beta, float* c,
             std::int64_t ldc) const override {
    detail::gemm_scale_c(m, n, beta, c, ldc);
    if (k == 0 || alpha == 0.f) return;

    // Per-thread packing buffers; thread_local avoids repeated allocs.
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
        for (std::int64_t j0 = 0; j0 < n; j0 += detail::kGemmBlockN) {
          const std::int64_t cols = std::min(detail::kGemmBlockN, n - j0);
          if (!trans_b) {
            // Untransposed B is read in place (row stride ldb): the pack
            // would copy the very rows the kernel is about to stream.
            micro_kernel(rows, cols, depth, alpha, a_pack.data(),
                         b + k0 * ldb + j0, ldb, c + i0 * ldc + j0, ldc);
          } else {
            detail::gemm_pack_b(trans_b, b, ldb, k0, j0, depth, cols,
                                b_pack.data());
            micro_kernel(rows, cols, depth, alpha, a_pack.data(),
                         b_pack.data(), cols, c + i0 * ldc + j0, ldc);
          }
        }
      }
    }
  }
};

/// Work below which an extra thread costs more in wake/join latency than
/// it saves in arithmetic (~an L2-resident panel multiply).
constexpr std::int64_t kMinFlopsPerGemmChunk = std::int64_t{1} << 18;

}  // namespace

namespace detail {
GemmBackend* reference_gemm_backend() {
  static ReferenceGemmBackend backend;
  return &backend;
}
}  // namespace detail

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc) {
  APF_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  if (m == 0 || n == 0) return;
  const GemmBackend& backend = active_gemm_backend();

  // Panel-parallel dispatch: split m into kGemmRowPanel-aligned chunks and
  // run them concurrently through the selected backend. Legal for EVERY
  // backend — the panel contract (gemm.h) makes a sub-call starting at a
  // panel boundary perform the exact same per-element arithmetic as the
  // covering full-m call — so the result is bitwise identical to serial
  // dispatch at any thread count (pinned by test_gemm).
  const std::int64_t panels = (m + kGemmRowPanel - 1) / kGemmRowPanel;
  std::int64_t chunks =
      std::min<std::int64_t>(panels, detail::parallel_width());
  if (chunks > 1) {
    // 2*m*n*k flops total; do not split below the per-chunk floor.
    const std::int64_t flops = 2 * m * n * std::max<std::int64_t>(k, 1);
    chunks = std::min(chunks,
                      std::max<std::int64_t>(1, flops / kMinFlopsPerGemmChunk));
  }
  if (chunks <= 1) {
    backend.sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                  ldc);
    return;
  }
  // Panels go to the shared work-stealing scheduler as intra-op tasks:
  // the caller participates, idle workers steal, and WHO runs a panel
  // never changes WHAT it computes, so stealing is bitwise-neutral.
  ThreadPool::global().run_chunks(
      chunks,
      [&](std::int64_t ci) {
        const std::int64_t p0 = panels * ci / chunks;
        const std::int64_t p1 = panels * (ci + 1) / chunks;
        const std::int64_t i0 = p0 * kGemmRowPanel;
        const std::int64_t rows = std::min(m, p1 * kGemmRowPanel) - i0;
        if (rows <= 0) return;
        // Row i0 of op(A) is row i0 of A when not transposed, column i0 of
        // the (k x m) storage otherwise.
        const float* a_chunk = trans_a ? a + i0 : a + i0 * lda;
        backend.sgemm(trans_a, trans_b, rows, n, k, alpha, a_chunk, lda, b,
                      ldb, beta, c + i0 * ldc, ldc);
      },
      TaskKind::kPanel);
}

}  // namespace apf
