#pragma once
// Runtime-dispatched single-precision GEMM — the compute backbone of every
// linear / attention / convolution layer in the library.
//
// apf::gemm() is the stable entry point; the kernel behind it is the active
// apf::GemmBackend (tensor/gemm_backend.h): a cache-blocked reference
// kernel, or an AVX2 (bitwise-exact) or FMA kernel (each when compiled in
// and the CPU supports it).
// Selection is runtime: APF_GEMM_BACKEND env var or set_gemm_backend().
//
// ---------------------------------------------------------------- contract
// Every backend computes C = alpha * op(A) * op(B) + beta * C, row-major,
// with beta == 0 overwriting (never reading) C, and obeys the panel
// contract below. The bitwise-exact backends (reference, avx2) additionally
// guarantee row stability and cross-backend identity. Callers in this
// library depend on all three:
//
//  * Panel contract (ALL backends): output rows are computed independently
//    per kGemmRowPanel-row panel, so splitting an m-range into separate
//    gemm calls at multiples of that boundary is bitwise identical to one
//    full-m call. The fused inference attention kernel
//    (nn::fused_masked_attention) splits its query loop on this boundary.
//
//  * Row stability (backends with bitwise_exact() == true): each output
//    element's accumulation order depends only on its own op(A) row, op(B)
//    column, and k — never on m, n, or which other rows share the call.
//    Consequently (a) splitting at ARBITRARY row boundaries is
//    bitwise-neutral (the mask-aware dense layers run one gemm per batch
//    item over just its valid prefix), and (b) truncating n or k to a
//    prefix leaves the surviving elements' values unchanged (the fused
//    attention kernel stops at each item's last valid key).
//
//  * Cross-backend identity (backends with bitwise_exact() == true): the
//    per-element arithmetic replicates the reference kernel exactly —
//    av = alpha * a[i][k] followed by c += av * b[k][j] as a separate
//    multiply and add per k step, k-blocked at the same boundaries, with no
//    FMA contraction (the kernel translation units pin -ffp-contract=off).
//    reference and avx2 therefore produce bitwise-identical results for
//    every call.
//
// The tolerance-grade fma backend honors the panel contract and is
// deterministic for identical calls, but its values may differ from
// reference within normal fp32 rounding — which is why it is opt-in and
// never wins the default selection.
//
// ------------------------------------------------- parallel dispatch
// apf::gemm() itself parallelizes: it splits m into kGemmRowPanel-aligned
// chunks and runs them concurrently on the shared apf::ThreadPool
// (core/thread_pool.h), each chunk a plain sub-call into the (serial)
// selected backend. Because chunk boundaries are panel boundaries, the
// panel contract makes this BITWISE IDENTICAL to serial dispatch for
// every backend at every thread count (pinned by test_gemm) — work
// stealing only moves a chunk between threads, never its boundaries.
// Thread count comes from apf::set_num_threads() / APF_NUM_THREADS; calls
// issued from inside a parallel region (e.g. the fused attention kernel's
// per-panel tasks) submit to the same scheduler and compose, and small
// calls below a flops floor (or with m <= kGemmRowPanel) stay inline.

#include <cstdint>

namespace apf {

/// Row-panel height every gemm backend blocks/parallelizes over. Public
/// because split-m callers (the fused attention path) depend on it; see the
/// panel contract above.
inline constexpr std::int64_t kGemmRowPanel = 64;

/// Depth (k) and width (n) of the op(B) block the in-tree CPU backends
/// stream per micro-kernel pass. The k-block boundaries are part of every
/// bitwise-exact backend's accumulation order (contract above). Public so
/// callers that generate B on the fly (Conv2d's im2col bands) can size it
/// to about one block, which stays in L2 while the kernel streams it.
inline constexpr std::int64_t kGemmBlockK = 256;
inline constexpr std::int64_t kGemmBlockN = 256;

/// Row-major sgemm. A is (m x k) when trans_a is false, (k x m) otherwise;
/// B is (k x n) / (n x k) likewise; C is always (m x n) with leading
/// dimension ldc. Validates arguments, then dispatches to
/// active_gemm_backend() (tensor/gemm_backend.h).
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc);

}  // namespace apf
