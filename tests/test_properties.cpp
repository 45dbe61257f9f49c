// Property-based parameterized suites: invariants that must hold across
// randomized inputs and configuration sweeps (TEST_P/INSTANTIATE), plus
// serialization round-trips and failure injection on the I/O paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/apf_config.h"
#include "models/patcher.h"
#include "models/scatter.h"
#include "models/sequence_io.h"
#include "data/synthetic.h"
#include "img/draw.h"
#include "img/filters.h"
#include "img/resize.h"
#include "models/unetr.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "quadtree/quadtree.h"
#include "tensor/ops.h"

namespace apf {
namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ======================================================= quadtree invariants

struct QtCase {
  std::uint64_t seed;
  double split_value;
  int max_depth;
  std::int64_t min_size;
};

class QuadtreeInvariants : public ::testing::TestWithParam<QtCase> {};

TEST_P(QuadtreeInvariants, TilingMortonDepthHold) {
  const QtCase& c = GetParam();
  data::PaipConfig pc;
  pc.resolution = 128;
  pc.seed = c.seed;
  img::Image edges = img::canny(
      img::gaussian_blur(img::to_gray(data::SyntheticPaip(pc).sample(0).image),
                         3),
      100, 200);
  qt::QuadtreeConfig qc;
  qc.split_value = c.split_value;
  qc.max_depth = c.max_depth;
  qc.min_size = c.min_size;
  qt::Quadtree t(edges, qc);

  // Invariant 1: exact tiling with strictly increasing Morton codes.
  EXPECT_TRUE(t.leaves_tile_domain());
  // Invariant 2: every leaf respects depth/min-size caps.
  for (const qt::Leaf& l : t.leaves()) {
    EXPECT_LE(l.depth, c.max_depth);
    EXPECT_GE(l.size, c.min_size);
    // Invariant 3 (Eq. 6): an interior split only happened because the
    // parent's detail exceeded v — equivalently any leaf ABOVE min size
    // and depth cap with detail > v would have split, so it cannot exist.
    const bool could_split =
        l.depth < c.max_depth && l.size / 2 >= c.min_size;
    if (could_split) {
      EXPECT_LE(l.detail, c.split_value);
    }
  }
  // Invariant 4: point location agrees with the leaf list.
  for (std::int64_t y = 0; y < 128; y += 17) {
    for (std::int64_t x = 0; x < 128; x += 13) {
      const qt::Leaf& l =
          t.leaves()[static_cast<std::size_t>(t.find_leaf(y, x))];
      EXPECT_TRUE(y >= l.y && y < l.y + l.size);
      EXPECT_TRUE(x >= l.x && x < l.x + l.size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuadtreeInvariants,
    ::testing::Values(QtCase{1, 0.5, 8, 2}, QtCase{2, 10, 8, 2},
                      QtCase{3, 20, 6, 4}, QtCase{4, 50, 5, 8},
                      QtCase{5, 100, 9, 2}, QtCase{6, 20, 3, 2},
                      QtCase{7, 0.5, 12, 2}, QtCase{8, 200, 8, 4}));

// ===================================================== patcher properties

class PatcherProperties
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(PatcherProperties, SequenceGeometryConsistent) {
  auto [patch, seq_len] = GetParam();
  data::PaipConfig pc;
  pc.resolution = 128;
  pc.seed = 11;
  img::Image im = data::SyntheticPaip(pc).sample(1).image;
  core::ApfConfig cfg;
  cfg.patch_size = patch;
  cfg.min_patch = patch;
  cfg.seq_len = seq_len;
  cfg.max_depth = 8;
  Rng rng(5);
  core::PatchSequence seq = core::AdaptivePatcher(cfg).process(im, &rng);

  if (seq_len > 0) {
    EXPECT_EQ(seq.length(), seq_len);
  }
  EXPECT_EQ(seq.tokens.size(1), 3 * patch * patch);
  for (std::int64_t i = 0; i < seq.length(); ++i) {
    const core::PatchToken& t = seq.meta[static_cast<std::size_t>(i)];
    EXPECT_EQ(seq.mask[i], t.valid ? 1.f : 0.f);
    if (t.valid) {
      // Geometry inside the image; token values inside [0, 1].
      EXPECT_GE(t.x, 0);
      EXPECT_GE(t.y, 0);
      EXPECT_LE(t.x + t.size, 128);
      EXPECT_LE(t.y + t.size, 128);
      for (std::int64_t j = 0; j < seq.tokens.size(1); ++j) {
        EXPECT_GE(seq.tokens.at({i, j}), -1e-5f);
        EXPECT_LE(seq.tokens.at({i, j}), 1.f + 1e-5f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PatcherProperties,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(0, 32, 512)));

// Token content property: each token equals the area-resampled crop.
TEST(PatcherProperty, TokenEqualsResampledCrop) {
  data::PaipConfig pc;
  pc.resolution = 64;
  img::Image im = data::SyntheticPaip(pc).sample(3).image;
  core::ApfConfig cfg;
  cfg.patch_size = 4;
  cfg.min_patch = 4;
  cfg.max_depth = 6;
  core::AdaptivePatcher ap(cfg);
  core::PatchSequence seq = ap.process(im);
  for (std::int64_t i = 0; i < std::min<std::int64_t>(8, seq.length()); ++i) {
    const core::PatchToken& t = seq.meta[static_cast<std::size_t>(i)];
    img::Image want =
        img::resize_area(img::crop(im, t.y, t.x, t.size), 4, 4);
    for (std::int64_t ch = 0; ch < 3; ++ch)
      for (std::int64_t y = 0; y < 4; ++y)
        for (std::int64_t x = 0; x < 4; ++x)
          EXPECT_NEAR(seq.tokens.at({i, (ch * 4 + y) * 4 + x}),
                      want.at(y, x, ch), 1e-5f);
  }
}

// ============================================== resize / filter properties

class ResizeProperties : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ResizeProperties, AreaResampleBoundsAndMean) {
  const std::int64_t out = GetParam();
  data::PaipConfig pc;
  pc.resolution = 64;
  img::Image im = img::to_gray(data::SyntheticPaip(pc).sample(2).image);
  img::Image r = img::resize_area(im, out, out);
  float lo = 1e9f, hi = -1e9f;
  double m_in = 0, m_out = 0;
  for (float v : im.data) m_in += v;
  for (float v : r.data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    m_out += v;
  }
  // Area averaging can never extrapolate beyond the input range and must
  // preserve the mean when the ratio is integral.
  EXPECT_GE(lo, 0.f);
  EXPECT_LE(hi, 1.f);
  if (64 % out == 0) {
    EXPECT_NEAR(m_in / im.data.size(), m_out / r.data.size(), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ResizeProperties,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 48, 64, 100));

TEST(FilterProperty, BlurReducesEdgeCount) {
  // More smoothing can only remove Canny edges on noisy texture.
  img::Image noise = img::value_noise(128, 128, 4.0, 3, 0.6, 99);
  double prev = 1e18;
  for (int k : {1, 3, 5, 7, 9}) {
    img::Image e = img::canny(img::gaussian_blur(noise, k), 100, 200);
    double count = 0;
    for (float v : e.data) count += v;
    EXPECT_LE(count, prev * 1.05);  // small slack for NMS direction flips
    prev = count;
  }
}

// ============================================== scatter coverage property

class ScatterCoverage : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ScatterCoverage, FullSequencesCoverEveryCell) {
  const std::int64_t grid = GetParam();
  data::PaipConfig pc;
  pc.resolution = 64;
  img::Image im = data::SyntheticPaip(pc).sample(4).image;
  core::ApfConfig cfg;
  cfg.patch_size = 4;
  cfg.min_patch = 4;
  cfg.max_depth = 6;
  core::PatchSequence seq = core::AdaptivePatcher(cfg).process(im);
  core::GridScatterPlan plan(seq.meta, 64, grid);
  // A full (undropped) tiling must cover the grid exactly.
  EXPECT_DOUBLE_EQ(plan.coverage(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScatterCoverage,
                         ::testing::Values(4, 8, 16, 32, 64));

// ================================================= serialization round trips

TEST(SequenceIo, RoundTripPreservesEverything) {
  data::PaipConfig pc;
  pc.resolution = 64;
  img::Image im = data::SyntheticPaip(pc).sample(0).image;
  core::ApfConfig cfg;
  cfg.patch_size = 4;
  cfg.min_patch = 4;
  cfg.seq_len = 48;
  cfg.max_depth = 6;
  core::PatchSequence seq = core::AdaptivePatcher(cfg).process(im);

  const std::string path = tmp_path("apf_seq_test.bin");
  core::save_sequence(seq, path);
  core::PatchSequence back = core::load_sequence(path);
  ASSERT_EQ(back.length(), seq.length());
  EXPECT_EQ(back.image_size, seq.image_size);
  EXPECT_EQ(back.patch_size, seq.patch_size);
  EXPECT_EQ(back.channels, seq.channels);
  for (std::int64_t i = 0; i < seq.tokens.numel(); ++i)
    EXPECT_EQ(back.tokens[i], seq.tokens[i]);
  for (std::int64_t i = 0; i < seq.length(); ++i) {
    EXPECT_EQ(back.mask[i], seq.mask[i]);
    EXPECT_EQ(back.meta[static_cast<std::size_t>(i)].y,
              seq.meta[static_cast<std::size_t>(i)].y);
    EXPECT_EQ(back.meta[static_cast<std::size_t>(i)].size,
              seq.meta[static_cast<std::size_t>(i)].size);
    EXPECT_EQ(back.meta[static_cast<std::size_t>(i)].valid,
              seq.meta[static_cast<std::size_t>(i)].valid);
  }
  std::remove(path.c_str());
}

TEST(SequenceIo, BatchRoundTrip) {
  data::PaipConfig pc;
  pc.resolution = 32;
  data::SyntheticPaip gen(pc);
  core::ApfConfig cfg;
  cfg.patch_size = 4;
  cfg.min_patch = 4;
  cfg.seq_len = 16;
  cfg.max_depth = 5;
  core::AdaptivePatcher ap(cfg);
  std::vector<core::PatchSequence> seqs;
  for (int i = 0; i < 3; ++i) seqs.push_back(ap.process(gen.sample(i).image));
  const std::string path = tmp_path("apf_seqs_test.bin");
  core::save_sequences(seqs, path);
  auto back = core::load_sequences(path);
  ASSERT_EQ(back.size(), 3u);
  for (int i = 0; i < 3; ++i)
    for (std::int64_t j = 0; j < seqs[static_cast<std::size_t>(i)].tokens.numel(); ++j)
      EXPECT_EQ(back[static_cast<std::size_t>(i)].tokens[j],
                seqs[static_cast<std::size_t>(i)].tokens[j]);
  std::remove(path.c_str());
}

TEST(SequenceIo, RejectsGarbageFile) {
  const std::string path = tmp_path("apf_garbage.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a sequence file at all";
  }
  EXPECT_THROW(core::load_sequences(path), detail::CheckError);
  std::remove(path.c_str());
}

TEST(SequenceIo, RejectsTruncatedFile) {
  data::PaipConfig pc;
  pc.resolution = 32;
  core::ApfConfig cfg;
  cfg.patch_size = 4;
  cfg.min_patch = 4;
  cfg.max_depth = 5;
  core::PatchSequence seq =
      core::AdaptivePatcher(cfg).process(data::SyntheticPaip(pc).sample(0).image);
  const std::string path = tmp_path("apf_trunc.bin");
  core::save_sequence(seq, path);
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(core::load_sequence(path), detail::CheckError);
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveLoadRestoresExactWeights) {
  Rng rng(7);
  nn::Mlp a(8, 16, rng);
  nn::Mlp b(8, 16, rng);  // different init (rng advanced)
  const std::string path = tmp_path("apf_ckpt_test.bin");
  nn::save_parameters(a, path);
  nn::load_parameters(b, path);
  auto pa = a.parameters();
  auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i].numel(); ++j)
      EXPECT_EQ(pa[i].val()[j], pb[i].val()[j]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
  Rng rng(8);
  nn::Mlp a(8, 16, rng);
  nn::Mlp wrong(8, 32, rng);
  nn::Linear other(8, 16, rng);
  const std::string path = tmp_path("apf_ckpt_mismatch.bin");
  nn::save_parameters(a, path);
  EXPECT_THROW(nn::load_parameters(wrong, path), detail::CheckError);
  EXPECT_THROW(nn::load_parameters(other, path), detail::CheckError);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadFailureLeavesModuleUntouched) {
  Rng rng(9);
  nn::Mlp a(4, 8, rng);
  nn::Mlp b(4, 8, rng);
  const Tensor before = b.parameters()[0].val().clone();
  const std::string path = tmp_path("apf_ckpt_trunc.bin");
  nn::save_parameters(a, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 8);
  EXPECT_THROW(nn::load_parameters(b, path), detail::CheckError);
  // Staged loading: failure must not half-update the module.
  for (std::int64_t j = 0; j < before.numel(); ++j)
    EXPECT_EQ(b.parameters()[0].val()[j], before[j]);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedBufferDataLeavesModuleUntouched) {
  // A batch norm's file ends with its running_var data, so cutting the
  // last 8 bytes truncates inside that buffer, after every parameter and
  // running_mean were read. Staged loading must leave b's parameters and
  // running statistics exactly as they were.
  Rng rng(11);
  nn::BatchNorm2d a(4), b(4);
  for (nn::BatchNorm2d* bn : {&a, &b}) {
    for (Var& p : bn->parameters())
      p.val_mut().copy_from(Tensor::randn({4}, rng));
    bn->forward(Var::constant(Tensor::randn({2, 4, 3, 3}, rng, 0.5f, 2.f)));
  }
  std::vector<Tensor> before;
  for (const Var& p : b.parameters()) before.push_back(p.val().clone());
  for (const auto& [name, t] : b.named_buffers()) before.push_back(t.clone());
  ASSERT_EQ(before.size(), 4u);
  const std::string path = tmp_path("apf_ckpt_trunc_buffers.bin");
  nn::save_parameters(a, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  try {
    nn::load_parameters(b, path);
    ADD_FAILURE() << "a truncated checkpoint loaded";
  } catch (const detail::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated at 'running_var'"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  std::vector<Tensor> after;
  for (const Var& p : b.parameters()) after.push_back(p.val());
  for (const auto& [name, t] : b.named_buffers()) after.push_back(t);
  for (std::size_t i = 0; i < before.size(); ++i)
    for (std::int64_t j = 0; j < before[i].numel(); ++j)
      EXPECT_EQ(after[i][j], before[i][j]) << "tensor " << i << " at " << j;
}

TEST(Checkpoint, RoundTripKeepsBatchNormRunningStatistics) {
  // One training-mode forward moves every batch norm's running statistics
  // in `a`. A checkpoint carries them (buffers) along with the parameters,
  // so `b`, identically initialised but never run, reloads into a model
  // whose eval logits equal a's bit for bit.
  const std::int64_t z = 64, patch = 4;
  models::UnetrConfig cfg;
  cfg.enc.token_dim = 3 * patch * patch;
  cfg.enc.d_model = 32;
  cfg.enc.depth = 2;
  cfg.enc.heads = 4;
  cfg.image_size = z;
  cfg.grid = 8;
  cfg.base_channels = 8;
  Rng ra(5), rb(5);
  models::Unetr2d a(cfg, ra);
  models::Unetr2d b(cfg, rb);
  data::PaipConfig pc;
  pc.resolution = z;
  core::ApfConfig acfg;
  acfg.patch_size = patch;
  acfg.min_patch = patch;
  acfg.max_depth = 6;
  const img::Image image = data::SyntheticPaip(pc).sample(0).image;
  const core::TokenBatch batch =
      core::make_batch({core::AdaptivePatcher(acfg).process(image)});
  {
    Rng fwd(0);
    a.forward(batch, fwd);  // training mode: batch statistics
  }
  const std::string path = tmp_path("apf_ckpt_bn.bin");
  nn::save_parameters(a, path);
  nn::load_parameters(b, path);
  std::remove(path.c_str());
  a.set_training(false);
  b.set_training(false);
  NoGradGuard ng;
  Rng fa(1), fb(1);
  const Tensor la = a.forward(batch, fa).val();
  const Tensor lb = b.forward(batch, fb).val();
  ASSERT_EQ(la.shape(), lb.shape());
  for (std::int64_t i = 0; i < la.numel(); ++i)
    ASSERT_EQ(std::memcmp(&la.data()[i], &lb.data()[i], sizeof(float)), 0)
        << "logit " << i << ": " << la[i] << " vs " << lb[i];
}

TEST(Checkpoint, RejectsFileWithoutBuffers) {
  // The format before buffers were saved ("APF_CKPT" magic) cannot restore
  // batch-norm running statistics, so loading it fails loudly.
  Rng rng(10);
  nn::Mlp m(4, 8, rng);
  const std::string path = tmp_path("apf_ckpt_v1.bin");
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint64_t v1_magic = 0x4150465f434b5054ULL;
    f.write(reinterpret_cast<const char*>(&v1_magic), sizeof v1_magic);
  }
  try {
    nn::load_parameters(m, path);
    ADD_FAILURE() << "a checkpoint without buffers loaded";
  } catch (const detail::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("re-save"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ======================================================== softmax sweep

class SoftmaxShapes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SoftmaxShapes, RowsSumToOneUnderAnyWidth) {
  const std::int64_t n = GetParam();
  Rng rng(n);
  Tensor x = Tensor::randn({5, n}, rng, 0.f, 4.f);
  Tensor y = ops::softmax_lastdim(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    double s = 0;
    for (std::int64_t j = 0; j < n; ++j) s += y.at({r, j});
    EXPECT_NEAR(s, 1.0, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SoftmaxShapes,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 256, 1000));

}  // namespace
}  // namespace apf
