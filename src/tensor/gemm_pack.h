#pragma once
// Shared cache-blocking helpers for the in-tree CPU gemm backends
// (reference and avx2): block sizes, the beta pre-pass, and the op(A)/op(B)
// panel packers. Keeping these identical across backends is what makes them
// bitwise-interchangeable — backends may only differ in how the packed
// micro-kernel multiplies, and even there they must preserve the
// per-element accumulation order documented in gemm.h.
//
// Everything here is SERIAL: threading belongs to the apf::gemm dispatcher
// (panel-parallel chunks over the whole call), so backends — and these
// helpers — run single-threaded inside their chunk.

#include <algorithm>
#include <cstring>

#include "tensor/gemm.h"

namespace apf::detail {

// Cache-blocking parameters, sized for typical L1/L2 of x86 cores. All
// three are public (gemm.h): split-m callers depend on the row-panel
// height, and Conv2d sizes its im2col bands to one B block.
inline constexpr std::int64_t kGemmBlockM = kGemmRowPanel;
using apf::kGemmBlockK;
using apf::kGemmBlockN;

// The helpers below are internal-linkage ON PURPOSE (anonymous namespace,
// not `inline`): this header is included by translation units compiled for
// DIFFERENT ISAs (gemm.cpp at the baseline, gemm_avx2.cpp with -mavx2).
// With ordinary inline (comdat) linkage the linker keeps ONE copy — which
// could be the AVX2-vectorized one — and the reference backend would then
// execute AVX2 instructions on CPUs the runtime cpuid gate promised to
// protect. Each backend TU must own a copy built with its own flags.
namespace {

// Packs a (rows x depth) block of op(A) into contiguous row-major storage
// so the micro-kernel streams unit-stride regardless of transposition.
void gemm_pack_a(bool trans, const float* a, std::int64_t lda,
                 std::int64_t i0, std::int64_t k0, std::int64_t rows,
                 std::int64_t depth, float* out) {
  if (!trans) {
    for (std::int64_t i = 0; i < rows; ++i)
      std::memcpy(out + i * depth, a + (i0 + i) * lda + k0,
                  sizeof(float) * static_cast<std::size_t>(depth));
  } else {
    // Cache-blocked transpose. The transposed pack reads column i0 + i of
    // the (k x m) storage — a stride-lda walk. Tiling both loops keeps the
    // working set (kPackTile source rows x kPackTile destination rows) in
    // L1 and makes the INNER loop walk the source contiguously, instead of
    // the all-strided column walk a direct i-then-p nest performs. Pure
    // reordering of the same element copies, so the packed panel — and
    // every result built from it — is bitwise identical.
    constexpr std::int64_t kPackTile = 16;
    for (std::int64_t pt = 0; pt < depth; pt += kPackTile) {
      const std::int64_t pe = std::min(depth, pt + kPackTile);
      for (std::int64_t it = 0; it < rows; it += kPackTile) {
        const std::int64_t ie = std::min(rows, it + kPackTile);
        for (std::int64_t p = pt; p < pe; ++p) {
          const float* src = a + (k0 + p) * lda + i0;
          for (std::int64_t i = it; i < ie; ++i)
            out[i * depth + p] = src[i];
        }
      }
    }
  }
}

// Packs a (depth x cols) block of op(B), row-major by depth.
void gemm_pack_b(bool trans, const float* b, std::int64_t ldb,
                 std::int64_t k0, std::int64_t j0, std::int64_t depth,
                 std::int64_t cols, float* out) {
  if (!trans) {
    for (std::int64_t p = 0; p < depth; ++p)
      std::memcpy(out + p * cols, b + (k0 + p) * ldb + j0,
                  sizeof(float) * static_cast<std::size_t>(cols));
  } else {
    for (std::int64_t p = 0; p < depth; ++p)
      for (std::int64_t j = 0; j < cols; ++j)
        out[p * cols + j] = b[(j0 + j) * ldb + (k0 + p)];
  }
}

// Scales C by beta (beta == 0 overwrites, never reads C). Every CPU
// backend runs this identical pre-pass so beta semantics — and their
// rounding — cannot differ between backends.
void gemm_scale_c(std::int64_t m, std::int64_t n, float beta, float* c,
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

}  // namespace
}  // namespace apf::detail
