// Quickstart: run the Adaptive Patch Framework pipeline on one synthetic
// pathology image and compare against uniform patching — the 30-second tour
// of the library (paper Fig. 1 in miniature).
//
//   ./quickstart [resolution=512] [patch=4] [split_value=20]
//
// Writes the input, edge map, and quadtree partition overlay as PNM images
// next to the binary.

#include <cstdio>
#include <cstdlib>

#include "core/apf_config.h"
#include "models/patcher.h"
#include "models/visualize.h"
#include "data/synthetic.h"
#include "img/pnm_io.h"
#include "img/resize.h"
#include "models/unetr.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  const std::int64_t z = argc > 1 ? std::atoll(argv[1]) : 512;
  const std::int64_t patch = argc > 2 ? std::atoll(argv[2]) : 4;
  const double split_value = argc > 3 ? std::atof(argv[3]) : 20.0;

  std::printf("=== APF quickstart: %lldx%lld synthetic pathology image ===\n",
              static_cast<long long>(z), static_cast<long long>(z));

  // 1. A synthetic whole-slide-like image (stand-in for PAIP, DESIGN.md §1).
  apf::data::PaipConfig pc;
  pc.resolution = z;
  apf::data::SyntheticPaip dataset(pc);
  apf::data::SegSample sample = dataset.sample(0);

  // 2. Configure APF with the paper's per-resolution schedule.
  apf::core::ApfConfig cfg = apf::core::ApfConfig::for_resolution(z);
  cfg.patch_size = patch;
  cfg.min_patch = patch;
  cfg.split_value = split_value;
  apf::core::AdaptivePatcher apf_patcher(cfg);

  // 3. Run the pipeline: blur -> Canny -> quadtree -> Morton -> resample.
  apf::core::PatchSequence adaptive = apf_patcher.process(sample.image);

  // 4. The uniform-grid baseline at the same patch size.
  apf::core::UniformPatcher uniform(patch);
  apf::core::PatchSequence grid = uniform.process(sample.image);

  const double reduction = static_cast<double>(grid.length()) /
                           static_cast<double>(adaptive.length());
  std::printf("uniform patches (%lldx%lld):  %lld tokens\n",
              static_cast<long long>(patch), static_cast<long long>(patch),
              static_cast<long long>(grid.length()));
  std::printf("adaptive patches:          %lld tokens\n",
              static_cast<long long>(adaptive.length()));
  std::printf("sequence reduction:        %.1fx\n", reduction);
  std::printf("attention cost reduction:  ~%.0fx (quadratic in length)\n",
              reduction * reduction);

  // 5. Visualize the partition (Fig. 1 style).
  const apf::qt::Quadtree tree = apf_patcher.build_tree(sample.image);
  std::printf("quadtree: %lld leaves, depth %d, %lld nodes\n",
              static_cast<long long>(tree.num_leaves()),
              tree.max_depth_reached(),
              static_cast<long long>(tree.num_nodes()));
  apf::img::write_ppm("quickstart_input.ppm", sample.image);
  apf::img::write_pgm("quickstart_edges.pgm", apf_patcher.edge_map(sample.image));
  apf::img::write_ppm("quickstart_partition.ppm",
                      apf::core::render_partition(sample.image, tree));
  std::printf(
      "wrote quickstart_input.ppm, quickstart_edges.pgm, "
      "quickstart_partition.ppm\n");

  // 6. Grad-free async serving: submit images to a serve::Server and get
  // std::futures back. Behind submit(), the image is patched (stage 1) on
  // this thread, a background scheduler coalesces pending requests into
  // length-bucketed dynamic batches, and worker threads run the fused
  // no-grad forward (stage 2) + mask decode (stage 3). Results are
  // bitwise identical to the serial InferenceEngine::run path.
  // Demo at <= 128 px so the untrained model forward stays instant.
  const std::int64_t dz = std::min<std::int64_t>(z, 128);
  apf::img::Image demo = sample.image;
  if (z != dz) demo = apf::img::resize_area(demo, dz, dz);
  apf::models::UnetrConfig mcfg;
  mcfg.enc.token_dim = 3 * patch * patch;
  mcfg.enc.d_model = 48;
  mcfg.enc.depth = 3;
  mcfg.enc.heads = 4;
  mcfg.image_size = dz;
  mcfg.grid = 16;
  mcfg.base_channels = 8;
  apf::Rng mrng(1);
  apf::models::Unetr2d model(mcfg, mrng);

  apf::serve::ServerConfig scfg;
  scfg.engine.patcher = apf::core::ApfConfig::for_resolution(dz);
  scfg.engine.patcher.patch_size = patch;
  scfg.engine.patcher.min_patch = patch;
  scfg.engine.patcher.seq_len = dz;  // token budget, far below uniform
  scfg.engine.max_batch = 4;
  scfg.num_workers = 2;
  scfg.batch_deadline_ms = 2.0;

  apf::serve::Server server(model, scfg);
  std::vector<std::future<apf::serve::InferenceResult>> futures =
      server.submit_many({demo, demo, demo, demo});
  apf::serve::InferenceResult res = futures[0].get();
  for (std::size_t i = 1; i < futures.size(); ++i) futures[i].get();
  apf::serve::InferenceStats agg = server.stats();
  std::printf(
      "async server (untrained UNETR, %lldpx): %lld images in %lld "
      "dynamic batches, %.2f img/s\n"
      "first request: %lld valid tokens, batch of %lld, queue wait "
      "%.1fms, forward %.1fms\n"
      "compute backend: %s gemm, %.2f encoder GFLOP/s delivered (select "
      "with APF_GEMM_BACKEND=reference|avx2)\n",
      static_cast<long long>(dz), static_cast<long long>(agg.images),
      static_cast<long long>(agg.batches), agg.images_per_sec(),
      static_cast<long long>(res.stats.tokens),
      static_cast<long long>(res.stats.batch_size),
      1e3 * res.stats.queue_seconds, 1e3 * res.stats.forward_seconds,
      agg.gemm_backend.c_str(), agg.model_gflops_per_sec());
  apf::img::write_pgm("quickstart_mask.pgm", res.masks[0]);
  std::printf("wrote quickstart_mask.pgm\n");
  return 0;
}
