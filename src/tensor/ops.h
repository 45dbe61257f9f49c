#pragma once
// Forward-only tensor math kernels.
//
// These are the non-differentiable building blocks; the autograd layer
// (tensor/autograd.h) and the nn modules compose them into differentiable
// operations. All functions allocate and return fresh contiguous tensors
// unless documented otherwise.

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace apf::ops {

// ---- Elementwise binary (same shape) -----------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

/// In-place a += alpha * b (same shape). The one mutating op, used by
/// optimizers and gradient accumulation.
void axpy(Tensor& a, float alpha, const Tensor& b);

// ---- Elementwise with scalar --------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- Elementwise unary ----------------------------------------------------
Tensor relu(const Tensor& a);
/// Tanh-approximation GELU (the variant used by ViT implementations),
/// computed by gelu_row.
Tensor gelu(const Tensor& a);
/// d gelu(x) / dx, elementwise (used by the autograd layer).
Tensor gelu_grad(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);

// ---- Broadcast helpers ------------------------------------------------------
/// x of shape [..., D] plus bias of shape [D].
Tensor add_bias(const Tensor& x, const Tensor& bias);
/// Sum of x over all leading dims: [..., D] -> [D]. (Bias gradient.)
Tensor sum_to_lastdim(const Tensor& x);

// ---- Matrix products ---------------------------------------------------------
/// 2-D matmul with optional transposes: op(a)[m,k] @ op(b)[k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);
/// Batched 3-D matmul: op(a)[B,m,k] @ op(b)[B,k,n] -> [B,m,n].
Tensor bmm(const Tensor& a, const Tensor& b, bool trans_a = false,
           bool trans_b = false);

// ---- Shape manipulation -----------------------------------------------------
/// General permutation copy, e.g. permute(x, {0,2,1,3}).
Tensor permute(const Tensor& x, const std::vector<int>& perm);
/// Transpose the last two dims of a 2-D or 3-D tensor (copy).
Tensor transpose_last2(const Tensor& x);
/// Concatenate along axis; all inputs must agree on the other dims.
Tensor concat(const std::vector<Tensor>& xs, std::int64_t axis);
/// Contiguous slice [start, start+len) along axis.
Tensor slice(const Tensor& x, std::int64_t axis, std::int64_t start,
             std::int64_t len);

// ---- Reductions ----------------------------------------------------------------
float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
/// Row-wise argmax over the last dim; returns indices of shape rows.
std::vector<std::int64_t> argmax_lastdim(const Tensor& x);

// ---- Softmax and GELU row kernels ------------------------------------------------
// Both run 4-lane vectors on the baseline ISA, with one private exp:
// round-to-nearest range reduction, a degree-5 polynomial and the exponent
// bits, using IEEE +, *, compares and integer bit operations only. That exp
// returns exactly 0 below ln(FLT_MIN) (including -inf), +inf above 88.376
// (where 2^n would leave the float range) and NaN for NaN. It reads the
// exponent from the bits of the rounded, clamped argument, so no
// float -> int conversion runs. Results are deterministic on every backend
// and thread count, but they are not libm's. Against the same formula in
// double: softmax({0, x}) is within 1.9e-7 relative for x in [-87, 0] (in
// longer rows the float x - max adds its own rounding), and GELU within
// 1.6e-6 relative on [-4, inf), growing to 1.5e-5 at -10, where the
// rounding of the float exp argument is amplified by |2u| <= 87.

/// One softmax row over n elements: y = exp(x - max) / sum, in place when
/// x == y. mask (optional, length n) masks keys whose entry is 0; masked
/// keys get probability 0. Lane order is part of the contract: element j
/// always feeds lane j % 4, masked keys and the tail past n read as -inf,
/// so they add exact zeros to the same four float lane sums, which combine
/// as (s0 + s1) + (s2 + s3). A row's first v outputs are therefore
/// bitwise the same whether it is run over its first v elements or over a
/// longer row whose suffix is masked — the fused attention kernel stops at
/// each item's last valid key and still matches the full masked row.
/// Rows with no surviving probability mass (all keys masked, or every
/// unmasked entry -inf) are all-zero, never NaN; a NaN or +inf score makes
/// its row NaN.
void softmax_row(const float* x, const float* mask, std::int64_t n, float* y);

/// Tanh-approximation GELU over n elements, in place when x == y:
/// 0.5 x (1 + tanh(u)) with u = sqrt(2/pi) (x + 0.044715 x^3), evaluated
/// as x / (1 + exp(-2u)). Elementwise and lane-independent, so any split
/// of a tensor into rows gives the same bits as ops::gelu on the whole —
/// the mask-aware inference path (nn::Mlp) runs it on valid rows only.
/// gelu(+inf) = +inf, gelu(-inf) = NaN (as the tanh form), NaN stays NaN.
void gelu_row(const float* x, std::int64_t n, float* y);

/// Numerically stable softmax over the last dimension, one softmax_row
/// per row. If key_mask is non-null it must have shape [B, N] matching x's
/// layout [B*rows_per_b, N] (rows_per_b = x.numel()/(B*N)); masked (0)
/// keys get probability 0. Rows with no surviving probability mass — all
/// keys masked (e.g. an over-padded fit_to_length output) or every
/// unmasked entry -inf — are defined to be all-zero, never NaN.
Tensor softmax_lastdim(const Tensor& x, const Tensor* key_mask = nullptr);
/// Backward of softmax_lastdim: given y = softmax(x) and dL/dy, returns
/// dL/dx = y * (dy - sum(dy * y)).
Tensor softmax_lastdim_grad(const Tensor& y, const Tensor& dy);

// ---- Conv output epilogue ------------------------------------------------
// Next to the softmax and GELU kernels because it shares their 4-lane
// vector helpers (ops.cpp).

/// One channel of an eval batch norm, as BatchNorm2d applies it:
/// v -> (v - mean) * inv_std * gamma + beta, evaluated left to right, with
/// inv_std = 1.f / std::sqrt(running_var + eps).
struct BnChannel {
  float mean, inv_std, gamma, beta;
};

/// The conv layers' output epilogue over n elements of one output channel,
/// in place: v += *bias when bias is non-null, then, when bn is non-null,
/// the batch norm *bn followed by ReLU (v > 0 ? v : 0). Each step is the
/// separate op's float arithmetic (bias add, BatchNorm2d, ops::relu) on
/// the same element, so a layer that runs it on its output bands gives the
/// same bits as running the ops one after another on the whole tensor.
/// ReLU is a compare-select: NaN and -0 become +0, as in ops::relu. Runs
/// 4-lane vectors; lanes are independent, so any split into rows is
/// bitwise neutral.
void conv_epilogue_row(float* y, std::int64_t n, const float* bias,
                       const BnChannel* bn);

// ---- LayerNorm row kernel ------------------------------------------------
/// One LayerNorm row over d elements: y = (x - mean) / sqrt(var + eps) *
/// gamma + beta, with double-precision mean/variance accumulation. This is
/// THE row computation ag::layernorm runs — the mask-aware inference path
/// (nn::LayerNorm) calls it directly for each valid row so skipped-row
/// forwards stay bitwise identical to the full computation. xhat (length d)
/// and inv_std (length 1) receive the saved-for-backward activations when
/// non-null.
void layernorm_row(const float* x, const float* gamma, const float* beta,
                   float eps, std::int64_t d, float* y, float* xhat,
                   float* inv_std);

// ---- Convolution support (NCHW) ----------------------------------------------
/// im2col: input [C, H, W] -> columns [C*kh*kw, out_h*out_w] for the given
/// kernel/stride/padding (zero padding).
Tensor im2col(const Tensor& x, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad);
/// Raw-pointer im2col for the output rows [oi0, oi1) — a band of the
/// column matrix. Writes every one of its C*kh*kw rows (one per
/// (channel, ki, kj) triple), each (oi1 - oi0) * out_w columns long, row r
/// at out + r * ldo. im2col fills its whole-image result one output row
/// per task (ldo = out_h * out_w); Conv2d fills one band at a time into a
/// cache-sized scratch buffer (ldo = the band's column count). A band's
/// values equal the same columns of im2col's result bitwise (the stride-1
/// interior fast path is a pure reordering of the same copies).
void im2col_into(const float* x, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::int64_t kh, std::int64_t kw,
                 std::int64_t stride, std::int64_t pad, float* out,
                 std::int64_t ldo, std::int64_t oi0, std::int64_t oi1);
/// col2im: reverse scatter-add of im2col, producing [C, H, W].
Tensor col2im(const Tensor& cols, std::int64_t c, std::int64_t h,
              std::int64_t w, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad);

}  // namespace apf::ops
