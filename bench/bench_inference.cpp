// Inference fast-path benchmark: grad-free fused forward vs the taped
// training-mode forward on the same UNETR model, plus the end-to-end
// InferenceEngine throughput (patching included).
//
//   ./bench_inference [resolution=128] [patch=4] [depth=4] [iters=5]
//
// Two workloads share one model:
//   * uniform   — every token valid (no padding): the fused path saves the
//                 tape, the saved activations, and the L x L intermediates;
//   * adaptive  — the serving case: adaptive patching padded to the fixed
//                 token budget L, where the fused kernel also prunes all
//                 attention work on padding while the taped path pays the
//                 full quadratic cost.
// Final logits must match bitwise (max |diff| 0) in both: padding never
// leaks past the masked softmax / scatter, and valid rows are computed in
// the exact same floating-point order.
//
// Reports per-image forward latency, speedup, max |diff|, and peak RSS
// after the grad-free block vs after the taped block (peak RSS is
// process-monotone, so the cheap grad-free forwards all run first).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tensor/gemm.h"
#include "tensor/gemm_backend.h"
#include "core/rng.h"
#include "tensor/tensor.h"
#include "core/thread_pool.h"

using namespace apf;

namespace {

// Sweeps every available gemm backend over a serving-shaped workload — one
// ViT-Base-width linear layer over `tokens` tokens, C[tokens x 768] =
// A[tokens x 768] @ W[768 x 768]^T — and reports GFLOP/s plus the speedup
// over the reference backend. Restores the entry backend before returning.
// Results are returned so the JSON report can embed them.
std::vector<std::pair<std::string, double>> gemm_backend_sweep(
    std::int64_t tokens) {
  // The sweep is a KERNEL measurement: pin this thread's parallel width
  // to 1 so the panel-parallel dispatcher stays out and the figures are
  // comparable across hosts with different core counts.
  ThreadLimitGuard serial_only(1);
  const std::int64_t m = tokens, n = 768, k = 768;
  Rng rng(0xbe9c);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor w = Tensor::randn({n, k}, rng);
  Tensor c = Tensor::zeros({m, n});
  const std::string entry = active_gemm_backend().name();

  std::printf("gemm backends (%lld-token x %lldx%lld linear):\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k));
  // Reference first so the other rows can print their speedup against it.
  std::vector<std::string> names = available_gemm_backend_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "reference") std::swap(names[0], names[i]);
  std::vector<std::pair<std::string, double>> results;
  double ref_gflops = 0.0;
  for (const std::string& name : names) {
    set_gemm_backend(name);
    auto call = [&] {
      gemm(false, true, m, n, k, 1.f, a.data(), k, w.data(), k, 0.f,
           c.data(), n);
    };
    call();  // warm-up
    int reps = 0;
    bench::Stopwatch sw;
    double sec = 0.0;
    do {
      call();
      ++reps;
      sec = sw.seconds();
    } while (sec < 0.5);
    const double gflops = 2.0 * m * n * k * reps / sec / 1e9;
    if (name == "reference") ref_gflops = gflops;
    results.emplace_back(name, gflops);
    std::printf("  %-10s %8.2f GFLOP/s", name.c_str(), gflops);
    if (name != "reference" && ref_gflops > 0.0)
      std::printf("   (%.2fx vs reference)", gflops / ref_gflops);
    std::printf("\n");
  }
  set_gemm_backend(entry);
  return results;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB on Linux
}

struct PathResult {
  double sec = 0;
  Tensor out;
};

PathResult time_forward(const models::Unetr2d& model,
                        const core::TokenBatch& batch, bool grad,
                        std::int64_t iters) {
  PathResult r;
  Rng rng(0);
  if (grad) {
    r.out = model.forward(batch, rng).val();  // warm-up
    bench::Stopwatch sw;
    for (std::int64_t i = 0; i < iters; ++i)
      r.out = model.forward(batch, rng).val();
    r.sec = sw.seconds() / static_cast<double>(iters);
  } else {
    NoGradGuard no_grad;
    r.out = model.forward(batch, rng).val();
    bench::Stopwatch sw;
    for (std::int64_t i = 0; i < iters; ++i)
      r.out = model.forward(batch, rng).val();
    r.sec = sw.seconds() / static_cast<double>(iters);
  }
  return r;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  float m = 0.f;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t z = argc > 1 ? std::atoll(argv[1]) : 128;
  const std::int64_t patch = argc > 2 ? std::atoll(argv[2]) : 4;
  const std::int64_t depth = argc > 3 ? std::atoll(argv[3]) : 4;
  const std::int64_t iters = argc > 4 ? std::atoll(argv[4]) : 5;

  // Fixed serving token budget: the uniform grid's natural length.
  const std::int64_t seq_len = (z / patch) * (z / patch);
  models::UnetrConfig mcfg;
  mcfg.enc = bench::bench_encoder(3 * patch * patch, /*d_model=*/64, depth);
  mcfg.image_size = z;
  mcfg.grid = 16;
  mcfg.base_channels = 8;

  std::printf(
      "=== bench_inference: UNETR z=%lld, L=%lld, d=%lld, depth=%lld ===\n",
      static_cast<long long>(z), static_cast<long long>(seq_len),
      static_cast<long long>(mcfg.enc.d_model),
      static_cast<long long>(depth));

  data::PaipConfig pc;
  pc.resolution = z;
  data::SyntheticPaip gen(pc);
  const img::Image image = gen.sample(0).image;

  Rng rng_model(1);
  models::Unetr2d model(mcfg, rng_model);
  model.set_training(false);  // identical dropout/BN behavior in both modes
  std::printf("model parameters: %lld\n",
              static_cast<long long>(model.num_parameters()));

  core::ApfConfig acfg = core::ApfConfig::for_resolution(z);
  acfg.patch_size = patch;
  acfg.min_patch = patch;
  acfg.max_depth = 8;
  acfg.seq_len = seq_len;  // pad to the serving budget
  core::TokenBatch uniform_batch =
      core::make_batch({core::UniformPatcher(patch, seq_len).process(image)});
  core::PatchSequence aseq = core::AdaptivePatcher(acfg).process(image);
  core::TokenBatch adaptive_batch = core::make_batch({aseq});

  struct Row {
    const char* name;
    const core::TokenBatch* batch;
    std::int64_t valid;
  };
  const Row rows[] = {
      {"uniform (all valid)", &uniform_batch, seq_len},
      {"adaptive (padded)", &adaptive_batch, aseq.num_valid()},
  };

  // Peak RSS is process-monotone (ru_maxrss never decreases), so per-phase
  // readings are only meaningful in increasing-cost order: ALL grad-free
  // forwards run first and their peak is snapshotted once, then the taped
  // forwards run and the growth is attributable to the tape.
  const std::size_t n_rows = sizeof(rows) / sizeof(rows[0]);
  PathResult nograd[n_rows], grad[n_rows];
  for (std::size_t i = 0; i < n_rows; ++i)
    nograd[i] = time_forward(model, *rows[i].batch, /*grad=*/false, iters);
  const double rss_nograd = peak_rss_mb();
  for (std::size_t i = 0; i < n_rows; ++i)
    grad[i] = time_forward(model, *rows[i].batch, /*grad=*/true, iters);
  const double rss_grad = peak_rss_mb();

  bench::rule(78);
  std::printf("%-22s %6s | %10s %10s | %8s %9s\n", "workload", "valid",
              "grad ms", "nograd ms", "speedup", "maxdiff");
  bench::rule(78);
  bool identical = true;
  double headline_speedup = 0.0;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const float diff = max_abs_diff(grad[i].out, nograd[i].out);
    identical = identical && diff == 0.f;
    std::printf("%-22s %6lld | %10.2f %10.2f | %7.2fx %9g\n", rows[i].name,
                static_cast<long long>(rows[i].valid), 1e3 * grad[i].sec,
                1e3 * nograd[i].sec, grad[i].sec / nograd[i].sec,
                static_cast<double>(diff));
    headline_speedup = grad[i].sec / nograd[i].sec;  // last row = serving
  }
  bench::rule(78);
  std::printf(
      "serving speedup (grad off vs on): %.2fx   outputs: %s\n"
      "peak RSS: %.1f MiB after all grad-free forwards, %.1f MiB after "
      "taped forwards\n",
      headline_speedup, identical ? "IDENTICAL" : "MISMATCH", rss_nograd,
      rss_grad);

  // --- Compute-backend sweep on the serving token budget.
  bench::rule(78);
  const std::vector<std::pair<std::string, double>> sweep =
      gemm_backend_sweep(seq_len);

  // --- End-to-end serving throughput: the serial single-caller engine vs
  // the async server with length-bucketed dynamic batching, on a
  // MIXED-LENGTH adaptive workload (seq_len = 0: every image keeps its
  // natural token count, so first-come batches pad to the batch's worst
  // case while the server batches only same-length peers).
  //
  // Threading: the bench runs at the scheduler's automatic width
  // (APF_NUM_THREADS still overrides). The unified scheduler bounds
  // EXECUTION concurrency at num_threads() process-wide — extra server
  // workers park on the gate instead of timeslicing — so forcing the
  // width above the host's (as this bench once did) no longer buys
  // anything: capacity follows the hardware, worker count only shapes
  // scheduling.
  const int bench_threads = num_threads();
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("serving threads: %d (hardware_concurrency %u)\n",
              bench_threads, hw_threads);

  core::ApfConfig mixed_cfg = acfg;
  mixed_cfg.seq_len = 0;
  serve::EngineConfig ecfg;
  ecfg.patcher = mixed_cfg;
  ecfg.max_batch = 4;
  serve::InferenceEngine engine(model, ecfg);
  std::vector<img::Image> images;
  for (std::int64_t i = 0; i < 32; ++i)
    images.push_back(gen.sample(i).image);

  // Measurement policy: the host this runs on can be time-shared, and its
  // absolute speed drifts over a run — so serial and server passes are
  // INTERLEAVED round by round (each round times one serial pass, then
  // one server pass) and each side keeps its best round. Drift then hits
  // both sides of every ratio instead of whichever side happened to run
  // later. Every server is warmed with one untimed pass first (thread
  // spawn, arena block faults, pack-buffer growth), matching the serial
  // engine's untimed warm-up.
  engine.run(images);  // warm-up (untimed)

  struct ServerRun {
    serve::ServerConfig cfg;      // the configuration measured
    double wall = 0.0;            // best server round
    double img_s = 0.0;
    double serial_img_s = 0.0;    // best serial round of the SAME sweep
    double speedup = 0.0;         // median of the per-round ratios
    serve::InferenceStats pass;   // best round's delta stats
    serve::InferenceStats window; // whole-lifetime stats (scheduler view)
  };
  constexpr int kRounds = 5;
  const int worker_counts[] = {1, 2, 4};
  std::vector<ServerRun> runs;
  serve::InferenceResult serial;  // best serial pass across all sweeps
  for (int workers : worker_counts) {
    serve::ServerConfig scfg;
    scfg.engine = ecfg;
    scfg.num_workers = workers;
    scfg.max_queue = 64;
    scfg.batch_deadline_ms = 2.0;
    // Exact-length bucketing: measured on the serving rig, per-image cost
    // RISES with batch size (padded slots plus cache footprint outweigh
    // the per-call savings even though the masked kernels skip padded
    // rows), so the server's edge is batching only requests that pad to
    // NOTHING. Granularity 1 admits exactly those.
    scfg.bucket_granularity = 1;
    ServerRun run;
    run.cfg = scfg;
    serve::Server server(model, scfg);
    for (auto& f : server.submit_many(images)) f.get();  // warm-up
    serve::InferenceStats prev = server.stats();
    double serial_best_wall = 0.0;
    std::vector<double> round_ratios;
    for (int rep = 0; rep < kRounds; ++rep) {
      bench::Stopwatch ssw;
      serve::InferenceResult sr = engine.run(images);
      const double serial_wall = ssw.seconds();
      if (serial_best_wall == 0.0 || serial_wall < serial_best_wall)
        serial_best_wall = serial_wall;
      if (serial.stats.images == 0 ||
          sr.stats.images_per_sec() > serial.stats.images_per_sec())
        serial = std::move(sr);

      bench::Stopwatch sw;
      std::vector<std::future<serve::InferenceResult>> futures =
          server.submit_many(images);
      for (auto& f : futures) f.get();
      const double wall = sw.seconds();
      if (wall > 0.0) round_ratios.push_back(serial_wall / wall);
      serve::InferenceStats now = server.stats();
      if (run.wall == 0.0 || wall < run.wall) {
        run.wall = wall;
        run.pass = now;
        run.pass.images -= prev.images;
        run.pass.batches -= prev.batches;
        run.pass.tokens -= prev.tokens;
        run.pass.padded_tokens -= prev.padded_tokens;
        run.pass.forward_seconds -= prev.forward_seconds;
        run.pass.model_flops -= prev.model_flops;
      }
      prev = now;
    }
    run.window = server.stats();
    run.img_s =
        run.wall > 0.0 ? static_cast<double>(images.size()) / run.wall : 0.0;
    run.serial_img_s = serial_best_wall > 0.0
                           ? static_cast<double>(images.size()) /
                                 serial_best_wall
                           : 0.0;
    // The speedup is the MEDIAN of the per-round serial/server ratios:
    // the two passes of a round run back to back, so host drift (which
    // moves absolute img/s by far more than the effect being measured)
    // cancels within each ratio, and the median ignores the odd round
    // where a background burst hit one side only. Comparing each side's
    // independent best would re-import that drift.
    std::sort(round_ratios.begin(), round_ratios.end());
    run.speedup = round_ratios.empty()
                      ? 0.0
                      : round_ratios[round_ratios.size() / 2];
    std::printf("  workers=%d round ratios:", workers);
    for (double r : round_ratios) std::printf(" %.3f", r);
    std::printf("\n");
    runs.push_back(std::move(run));
  }

  const double serial_gflops_busy = serial.stats.model_gflops_per_sec();
  const double serial_gflops_wall =
      serial.stats.total_seconds > 0.0
          ? serial.stats.model_flops / serial.stats.total_seconds / 1e9
          : 0.0;
  std::printf(
      "serial engine: %lld images in %.3fs (%.2f img/s; patch %.3fs, "
      "forward %.3fs)\n"
      "serial engine: %lld valid + %lld pad tokens (padding ratio %.3f), "
      "%s gemm, %.2f GFLOP/s busy / %.2f wall\n",
      static_cast<long long>(serial.stats.images),
      serial.stats.total_seconds, serial.stats.images_per_sec(),
      serial.stats.patch_seconds, serial.stats.forward_seconds,
      static_cast<long long>(serial.stats.tokens),
      static_cast<long long>(serial.stats.padded_tokens),
      serial.stats.padding_ratio(), serial.stats.gemm_backend.c_str(),
      serial_gflops_busy, serial_gflops_wall);

  double min_speedup = 0.0;
  for (const ServerRun& run : runs) {
    if (min_speedup == 0.0 || run.speedup < min_speedup)
      min_speedup = run.speedup;
    std::printf(
        "async server (%d worker%s): %.2f img/s vs %.2f serial interleaved "
        "(%.3fx); %lld batches, pad %.3f, %.2f GFLOP/s busy\n"
        "  config: max_batch %lld, max_queue %lld, bucket_granularity %lld, "
        "batch_deadline_ms %.3g\n",
        run.cfg.num_workers, run.cfg.num_workers == 1 ? "" : "s", run.img_s,
        run.serial_img_s, run.speedup,
        static_cast<long long>(run.pass.batches), run.pass.padding_ratio(),
        run.pass.model_gflops_per_sec(),
        static_cast<long long>(run.cfg.engine.max_batch),
        static_cast<long long>(run.cfg.max_queue),
        static_cast<long long>(run.cfg.bucket_granularity),
        run.cfg.batch_deadline_ms);
    // Scheduler observability over the server's whole lifetime (warm-up
    // included): how the unified pool actually moved the work.
    std::printf(
        "  scheduler: %llu steals, %llu forward tasks, %llu panel tasks; "
        "avg queue depth %.1f; batch sizes:",
        static_cast<unsigned long long>(run.window.scheduler_steals),
        static_cast<unsigned long long>(run.window.forward_tasks),
        static_cast<unsigned long long>(run.window.panel_tasks),
        run.window.avg_queue_depth());
    for (const auto& [size, count] : run.window.batch_size_counts)
      std::printf(" %lldx%lld", static_cast<long long>(count),
                  static_cast<long long>(size));
    std::printf("\n");
  }
  std::printf("server vs serial speedup (min over worker counts): %.3fx\n",
              min_speedup);

  // --- Content-addressed cache: duplicate-heavy warm pass. Production
  // tile serving re-sees pixels constantly (overlapping viewports, retry
  // storms, shared slides); the result tier answers an exact duplicate
  // from submit() without touching the queue or a worker. The cold pass
  // measures this server's miss-path throughput on fresh pixels; the warm
  // pass replays the same images kWarmRepeats times. Per-pass hit rates
  // come from the stats_since_last() window API.
  double cache_cold_img_s = 0.0, cache_warm_img_s = 0.0;
  double cache_hit_rate = 0.0, cache_warm_vs_cold = 0.0;
  {
    constexpr int kWarmRepeats = 4;
    serve::ServerConfig scfg;
    scfg.engine = ecfg;
    scfg.num_workers = 2;
    scfg.max_queue = 64;
    scfg.bucket_granularity = 1;
    scfg.cache.capacity_bytes = 256ll << 20;
    serve::Server server(model, scfg);
    // Untimed warm-up on DISJOINT pixels: spawns threads and faults the
    // arenas without seeding the cache with the measured images.
    std::vector<img::Image> unrelated;
    for (std::int64_t i = 0; i < 8; ++i)
      unrelated.push_back(gen.sample(1000 + i).image);
    for (auto& f : server.submit_many(unrelated)) f.get();
    (void)server.stats_since_last();  // open a fresh window

    bench::Stopwatch cold_sw;
    for (auto& f : server.submit_many(images)) f.get();
    const double cold_wall = cold_sw.seconds();
    const serve::InferenceStats cold = server.stats_since_last();

    bench::Stopwatch warm_sw;
    for (int rep = 0; rep < kWarmRepeats; ++rep)
      for (auto& f : server.submit_many(images)) f.get();
    const double warm_wall = warm_sw.seconds();
    const serve::InferenceStats warm = server.stats_since_last();

    cache_cold_img_s = cold_wall > 0.0
                           ? static_cast<double>(images.size()) / cold_wall
                           : 0.0;
    cache_warm_img_s =
        warm_wall > 0.0
            ? static_cast<double>(kWarmRepeats * images.size()) / warm_wall
            : 0.0;
    cache_hit_rate = warm.result_cache_hit_rate();
    cache_warm_vs_cold =
        cache_cold_img_s > 0.0 ? cache_warm_img_s / cache_cold_img_s : 0.0;
    std::printf(
        "cache (2 workers, result+patch tiers): cold %.2f img/s "
        "(hit rate %.2f), warm %.2f img/s (hit rate %.2f, %lld hits) "
        "-> %.1fx warm/cold; %.1f KiB cached\n",
        cache_cold_img_s, cold.result_cache_hit_rate(), cache_warm_img_s,
        cache_hit_rate, static_cast<long long>(warm.result_cache_hits),
        cache_warm_vs_cold, static_cast<double>(warm.cache_bytes) / 1024.0);
  }

  // The best-throughput configuration is the headline "server" entry the
  // trajectory diff gates on; the full sweep rides along under
  // "server_runs". server_vs_serial_speedup is the MIN ratio over worker
  // counts — the server must beat the serial engine at EVERY benched
  // count, not just its best one.
  const ServerRun* best = &runs.front();
  for (const ServerRun& run : runs)
    if (run.img_s > best->img_s) best = &run;

  // Machine-readable serving trajectory (img/s, delivered GFLOP/s,
  // padding ratio) for CI artifact diffing (scripts/bench_diff.py).
  {
    std::ofstream json("BENCH_serving.json");
    json << "{\n"
         << "  \"resolution\": " << z << ",\n"
         << "  \"images\": " << images.size() << ",\n"
         // Poison builds pay a header + stamp check per allocation; the
         // flag lets bench_diff.py refuse to gate on such numbers.
#ifdef APF_ARENA_POISON
         << "  \"arena_poison\": true,\n"
#else
         << "  \"arena_poison\": false,\n"
#endif
         << "  \"gemm_backend\": \"" << serial.stats.gemm_backend << "\",\n"
         << "  \"num_threads\": " << bench_threads << ",\n"
         << "  \"hardware_concurrency\": " << hw_threads << ",\n"
         << "  \"gemm_backend_sweep_gflops\": {";
    for (std::size_t i = 0; i < sweep.size(); ++i)
      json << (i ? ", " : "") << "\"" << sweep[i].first
           << "\": " << sweep[i].second;
    json << "},\n"
         << "  \"serial\": {\"images_per_sec\": "
         << serial.stats.images_per_sec()
         << ", \"gflops_per_sec_wall\": " << serial_gflops_wall
         << ", \"gflops_per_sec_busy\": " << serial_gflops_busy
         << ", \"padding_ratio\": " << serial.stats.padding_ratio() << "},\n"
         << "  \"server\": {\"images_per_sec\": " << best->img_s
         << ", \"gflops_per_sec_wall\": "
         << (best->wall > 0.0 ? best->pass.model_flops / best->wall / 1e9
                              : 0.0)
         << ", \"gflops_per_sec_busy\": " << best->pass.model_gflops_per_sec()
         << ", \"padding_ratio\": " << best->pass.padding_ratio()
         << ", \"num_workers\": " << best->cfg.num_workers
         << ", \"max_batch\": " << best->cfg.engine.max_batch
         << ", \"max_queue\": " << best->cfg.max_queue
         << ", \"bucket_granularity\": " << best->cfg.bucket_granularity
         << ", \"batch_deadline_ms\": " << best->cfg.batch_deadline_ms
         << "},\n"
         << "  \"server_runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const ServerRun& run = runs[i];
      json << (i ? ",\n    " : "\n    ") << "{\"num_workers\": "
           << run.cfg.num_workers << ", \"images_per_sec\": " << run.img_s
           << ", \"serial_images_per_sec\": " << run.serial_img_s
           << ", \"vs_serial_speedup\": " << run.speedup
           << ", \"batches\": " << run.pass.batches
           << ", \"padding_ratio\": " << run.pass.padding_ratio()
           << ", \"scheduler_steals\": " << run.window.scheduler_steals
           << ", \"forward_tasks\": " << run.window.forward_tasks
           << ", \"panel_tasks\": " << run.window.panel_tasks
           << ", \"avg_queue_depth\": " << run.window.avg_queue_depth()
           << "}";
    }
    json << "\n  ],\n"
         << "  \"cache\": {\"hit_rate\": " << cache_hit_rate
         << ", \"cold_img_per_sec\": " << cache_cold_img_s
         << ", \"warm_img_per_sec\": " << cache_warm_img_s
         << ", \"warm_vs_cold\": " << cache_warm_vs_cold << "},\n"
         << "  \"server_vs_serial_speedup\": " << min_speedup << "\n}\n";
  }
  std::printf("wrote BENCH_serving.json\n");

  return identical ? 0 : 1;
}
