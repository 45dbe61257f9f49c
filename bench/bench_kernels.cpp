// Substrate micro-benchmarks (google-benchmark): GEMM, attention-sized
// batched matmul + softmax, the decoder's 3x3 convolutions and its conv
// and up blocks, Canny, quadtree construction, Morton encoding, adaptive
// patch extraction. These are the kernels whose costs the FrontierModel
// abstracts — measuring them grounds the model's constants.

#include <benchmark/benchmark.h>

#include "core/apf_config.h"
#include "models/patcher.h"
#include "data/synthetic.h"
#include "img/filters.h"
#include "models/unetr.h"
#include "nn/conv.h"
#include "quadtree/morton.h"
#include "quadtree/quadtree.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "core/rng.h"
#include "core/thread_pool.h"

namespace {

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  apf::Rng rng(1);
  apf::Tensor a = apf::Tensor::randn({n, n}, rng);
  apf::Tensor b = apf::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    apf::Tensor c = apf::ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256)->Arg(512);

void BM_GemmTransA(benchmark::State& state) {
  // The trans_a hot path (weight-gradient shape dW = dY^T @ X): op(A) rows
  // are COLUMNS of the (k x m) storage, so the A-pack is a transpose. This
  // pins the cache-blocked transposed pack in gemm_pack.h.
  const std::int64_t n = state.range(0);
  apf::Rng rng(2);
  apf::Tensor a = apf::Tensor::randn({n, n}, rng);  // used as (k x m)
  apf::Tensor b = apf::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    apf::Tensor c = apf::ops::matmul(a, b, /*trans_a=*/true,
                                     /*trans_b=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTransA)->Arg(256)->Arg(512)->Arg(1024);

void BM_AttentionScores(benchmark::State& state) {
  // One attention head block: scores = Q K^T + softmax, L x D.
  const std::int64_t l = state.range(0);
  const std::int64_t d = 64;
  apf::Rng rng(2);
  apf::Tensor q = apf::Tensor::randn({4, l, d}, rng);
  apf::Tensor k = apf::Tensor::randn({4, l, d}, rng);
  for (auto _ : state) {
    apf::Tensor s = apf::ops::bmm(q, k, false, true);
    apf::Tensor p = apf::ops::softmax_lastdim(s);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetLabel("L=" + std::to_string(l));
}
BENCHMARK(BM_AttentionScores)->Arg(64)->Arg(256)->Arg(1024);

void BM_SoftmaxRows(benchmark::State& state) {
  // The softmax row kernel alone, on ~1M standard-normal scores cut into
  // rows of length L (64: a 128 px tile at patch 16; 360: a short adaptive
  // sequence; 1024: the dense_tokens grid), at one thread.
  const std::int64_t l = state.range(0);
  const std::int64_t rows = (std::int64_t{1} << 20) / l;
  apf::ThreadLimitGuard width(1);
  apf::Rng rng(4);
  apf::Tensor s = apf::Tensor::randn({rows, l}, rng);
  for (auto _ : state) {
    apf::Tensor p = apf::ops::softmax_lastdim(s);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * l);
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(360)->Arg(1024);

void BM_Gelu(benchmark::State& state) {
  // Elementwise GELU over 1M values of spread 2 (MLP hidden activations),
  // at one thread.
  const std::int64_t n = std::int64_t{1} << 20;
  apf::ThreadLimitGuard width(1);
  apf::Rng rng(5);
  apf::Tensor x = apf::ops::mul_scalar(apf::Tensor::randn({n}, rng), 2.f);
  for (auto _ : state) {
    apf::Tensor y = apf::ops::gelu(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Gelu);

void BM_Conv2d(benchmark::State& state) {
  // One UNETR decoder 3x3 conv (in_c -> 8 channels, pad 1) on a batch-1
  // z x z map, grad-free under an ArenaScope as in serving (so the output
  // plane is a bump allocation into reused memory, not a fresh heap block),
  // at a parallel width of `threads` (capped by the host's num_threads()).
  // FLOP/s counts a multiply and an add for each of the 8 * in_c * 9 taps
  // of every output pixel.
  const std::int64_t in_c = state.range(0), z = state.range(1);
  apf::ThreadLimitGuard width(static_cast<int>(state.range(2)));
  apf::Rng rng(3);
  apf::nn::Conv2d conv(in_c, 8, 3, 1, 1, rng);
  const apf::Var x =
      apf::Var::constant(apf::Tensor::randn({1, in_c, z, z}, rng));
  apf::NoGradGuard no_grad;
  for (auto _ : state) {
    apf::ArenaScope arena;
    apf::Var y = conv.forward(x);
    benchmark::DoNotOptimize(y.val().data());
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      2.0 * 8 * static_cast<double>(in_c * 9 * z * z),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Conv2d)
    ->ArgNames({"in_c", "z", "threads"})
    ->ArgsProduct({{8, 16}, {128, 512}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ConvBlock2d(benchmark::State& state) {
  // One UNETR decoder conv block (3x3 conv + batch norm + ReLU, twice;
  // in_c -> 8 channels) on a batch-1 z x z map, grad-free, in eval mode
  // and under an ArenaScope as in serving, so each layer runs as one pass
  // with its epilogue fused.
  const std::int64_t in_c = state.range(0), z = state.range(1);
  apf::ThreadLimitGuard width(static_cast<int>(state.range(2)));
  apf::Rng rng(6);
  apf::models::ConvBlock2d block(in_c, 8, rng);
  block.set_training(false);
  const apf::Var x =
      apf::Var::constant(apf::Tensor::randn({1, in_c, z, z}, rng));
  apf::NoGradGuard no_grad;
  for (auto _ : state) {
    apf::ArenaScope arena;
    apf::Var y = block.forward(x);
    benchmark::DoNotOptimize(y.val().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ConvBlock2d)
    ->ArgNames({"in_c", "z", "threads"})
    ->ArgsProduct({{8, 16}, {128, 512}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_UpBlock2d(benchmark::State& state) {
  // One UNETR decoder up block (2x2 stride-2 transposed conv + batch norm
  // + ReLU, 8 -> 8 channels) from a batch-1 z/2 map to z x z, grad-free,
  // in eval mode and under an ArenaScope.
  const std::int64_t z = state.range(0);
  apf::ThreadLimitGuard width(static_cast<int>(state.range(1)));
  apf::Rng rng(7);
  apf::models::UpBlock2d block(8, 8, rng);
  block.set_training(false);
  const apf::Var x =
      apf::Var::constant(apf::Tensor::randn({1, 8, z / 2, z / 2}, rng));
  apf::NoGradGuard no_grad;
  for (auto _ : state) {
    apf::ArenaScope arena;
    apf::Var y = block.forward(x);
    benchmark::DoNotOptimize(y.val().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UpBlock2d)
    ->ArgNames({"z", "threads"})
    ->ArgsProduct({{128, 512}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Canny(benchmark::State& state) {
  const std::int64_t z = state.range(0);
  apf::data::PaipConfig pc;
  pc.resolution = z;
  apf::img::Image im =
      apf::img::to_gray(apf::data::SyntheticPaip(pc).sample(0).image);
  for (auto _ : state) {
    apf::img::Image e = apf::img::canny(im, 100, 200);
    benchmark::DoNotOptimize(e.data.data());
  }
  state.SetItemsProcessed(state.iterations() * z * z);
}
BENCHMARK(BM_Canny)->Arg(256)->Arg(512)->Arg(1024);

void BM_GaussianBlur(benchmark::State& state) {
  const std::int64_t z = state.range(0);
  apf::data::PaipConfig pc;
  pc.resolution = z;
  apf::img::Image im =
      apf::img::to_gray(apf::data::SyntheticPaip(pc).sample(0).image);
  for (auto _ : state) {
    apf::img::Image b = apf::img::gaussian_blur(im, 5);
    benchmark::DoNotOptimize(b.data.data());
  }
  state.SetItemsProcessed(state.iterations() * z * z);
}
BENCHMARK(BM_GaussianBlur)->Arg(512)->Arg(1024);

void BM_QuadtreeBuild(benchmark::State& state) {
  const std::int64_t z = state.range(0);
  apf::data::PaipConfig pc;
  pc.resolution = z;
  apf::img::Image im = apf::data::SyntheticPaip(pc).sample(0).image;
  apf::core::ApfConfig cfg = apf::core::ApfConfig::for_resolution(z);
  apf::core::AdaptivePatcher ap(cfg);
  apf::img::Image edges = ap.edge_map(im);
  apf::qt::QuadtreeConfig qc;
  qc.split_value = cfg.split_value;
  qc.max_depth = cfg.max_depth;
  for (auto _ : state) {
    apf::qt::Quadtree t(edges, qc);
    benchmark::DoNotOptimize(t.num_leaves());
  }
  state.SetItemsProcessed(state.iterations() * z * z);
}
BENCHMARK(BM_QuadtreeBuild)->Arg(256)->Arg(512)->Arg(1024);

void BM_MortonEncode(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::uint32_t x = 12345, y = 54321;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      acc ^= apf::qt::morton_encode(x + i, y - i);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MortonEncode);

void BM_AdaptivePatchPipeline(benchmark::State& state) {
  // Full APF pre-processing for one image (the paper's "overhead").
  const std::int64_t z = state.range(0);
  apf::data::PaipConfig pc;
  pc.resolution = z;
  apf::img::Image im = apf::data::SyntheticPaip(pc).sample(0).image;
  apf::core::ApfConfig cfg = apf::core::ApfConfig::for_resolution(z);
  cfg.patch_size = 4;
  cfg.min_patch = 4;
  apf::core::AdaptivePatcher ap(cfg);
  for (auto _ : state) {
    apf::core::PatchSequence seq = ap.process(im);
    benchmark::DoNotOptimize(seq.tokens.data());
  }
  state.SetItemsProcessed(state.iterations() * z * z);
}
BENCHMARK(BM_AdaptivePatchPipeline)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
