// servebench — the serving benchmark named by BENCHMARK.json.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//
// Four workloads, each loading a different layer of the serving stack
// (DESIGN.md gives the reasons and the metric definitions):
//
//   tile_stream   open loop, 128 px tiles at a fixed rate, then a closed-loop
//                 capacity phase on the same server (latency + capacity)
//   slide_batch   closed loop, 512 px tiles of one slide (patcher + decoder)
//   dense_tokens  closed loop over InferenceEngine's stages with every tile
//                 patched to the full uniform grid (encoder GEMMs)
//   tile_replay   closed loop, 128 px tiles, cache on, seeded hot/cold/new
//                 repeat schedule (serve/cache + core/hash)
//
// The program is driven only through its public entry points; inputs come
// from data::SyntheticPaip under the workload seed. The parallel width is
// fixed at kWidth. A seeded sample of responses is compared bitwise against
// a cold InferenceEngine outside the timed region. The last stdout line is
// one JSON object: end-to-end metrics with --trace 0, per-layer metrics
// (timed from outside around each layer's calls) with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/synthetic.h"
#include "models/patcher.h"
#include "models/unetr.h"
#include "quadtree/quadtree.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tensor/gemm.h"
#include "tensor/gemm_backend.h"
#include "tensor/tensor.h"

using namespace apf;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWidth = 2;              // fixed parallel width (set_num_threads)
constexpr int kChunks = 10;            // throughput = median over this many
constexpr std::int64_t kPatch = 4;     // model patch size (token = 3*4*4)
constexpr std::int64_t kProbeTiles = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Joins the threads it holds when it goes out of scope, exception paths
/// included.
class Threads {
 public:
  Threads() = default;
  ~Threads() {
    for (std::thread& t : threads_) t.join();
  }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  template <class F>
  void spawn(F&& f) {
    threads_.emplace_back(std::forward<F>(f));
  }

 private:
  std::vector<std::thread> threads_;
};

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       q * static_cast<double>(v.size())));
  return v[i];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ------------------------------------------------------------ workloads

enum class Kind { kStream, kSlide, kDense, kReplay };

struct Workload {
  const char* name;
  Kind kind;
  std::int64_t tile_px;
  std::int64_t base_tiles;  ///< SyntheticPaip samples; 8 dihedral variants each
  double slo_ms;            ///< viewer per-tile latency limit; 0 = none
  std::int64_t window;      ///< closed-loop requests in flight (server)
  int setups;               ///< set-ups per run; setup_s is their median
  std::int64_t gate_stride; ///< every gate_stride-th request is gated
};

constexpr double kStreamRate = 50.0;    // tile_stream offered rate, img/s
constexpr double kStreamOpenShare = 0.5;  // rest is the capacity phase

const Workload kWorkloads[] = {
    {"tile_stream", Kind::kStream, 128, 96, 25.0, 8, 25, 64},
    {"slide_batch", Kind::kSlide, 512, 24, 0.0, 8, 11, 16},
    {"dense_tokens", Kind::kDense, 128, 32, 0.0, 0, 11, 12},
    {"tile_replay", Kind::kReplay, 128, 320, 0.0, 8, 25, 64},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = find_workload(val);
      if (!a.workload) throw std::invalid_argument("unknown workload " + val);
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!a.workload || !have_seed || !(a.seconds >= 1.0 && a.seconds <= 600.0))
    throw std::invalid_argument(
        "usage: servebench --workload NAME --seed N --seconds S(1..600) "
        "--trace 0|1");
  return a;
}

// ---------------------------------------------- model + serving config

std::unique_ptr<models::Unetr2d> build_model(std::int64_t z) {
  models::UnetrConfig m;
  m.enc.token_dim = 3 * kPatch * kPatch;
  m.enc.d_model = 64;
  m.enc.depth = 4;
  m.enc.heads = 4;
  m.enc.mlp_ratio = 2;
  m.image_size = z;
  m.grid = 16;
  m.base_channels = 8;
  Rng rng(1);  // fixed weights: the program, not the input
  return std::make_unique<models::Unetr2d>(m, rng);
}

serve::EngineConfig engine_config(std::int64_t z) {
  serve::EngineConfig e;
  e.patcher = core::ApfConfig::for_resolution(z);
  e.patcher.patch_size = kPatch;
  e.patcher.min_patch = kPatch;
  e.patcher.max_depth = 8;
  e.patcher.seq_len = 0;  // natural lengths; the server buckets them
  e.max_batch = 4;
  e.precision = Precision::kFp32;
  return e;
}

/// bench_inference's serving configuration; tile_replay adds the cache.
serve::ServerConfig server_config(const Workload& w) {
  serve::ServerConfig s;
  s.engine = engine_config(w.tile_px);
  s.num_workers = 2;
  s.max_queue = 64;
  s.batch_deadline_ms = 2.0;
  s.bucket_granularity = 1;
  if (w.kind == Kind::kReplay) s.cache.capacity_bytes = 16ll << 20;
  return s;
}

// ------------------------------------------------------------- inputs

/// One of the 8 symmetries of the square: bit 0 transposes, bits 1 and 2
/// flip rows and columns. Distinct pixels, same content statistics.
img::Image dihedral(const img::Image& s, int d) {
  if (d == 0) return s;
  const std::int64_t n = s.h, c = s.c;
  img::Image o(n, n, c);
  for (std::int64_t y = 0; y < n; ++y) {
    for (std::int64_t x = 0; x < n; ++x) {
      std::int64_t sy = y, sx = x;
      if (d & 1) std::swap(sy, sx);
      if (d & 2) sy = n - 1 - sy;
      if (d & 4) sx = n - 1 - sx;
      std::memcpy(&o.data[static_cast<std::size_t>((y * n + x) * c)],
                  &s.data[static_cast<std::size_t>((sy * n + sx) * c)],
                  static_cast<std::size_t>(c) * sizeof(float));
    }
  }
  return o;
}

/// Seeded tile source: base SyntheticPaip samples (generated up front on a
/// few threads) and their dihedral variants. Tile id t is variant
/// (t / base) % 8 of base sample t % base. Four extra samples, never
/// served as tiles, feed the set-up warm-up.
class TilePool {
 public:
  TilePool(std::int64_t z, std::uint64_t seed, std::int64_t base)
      : base_(base) {
    data::PaipConfig pc;
    pc.resolution = z;
    pc.seed = seed;
    const data::SyntheticPaip gen(pc);
    std::vector<img::Image> all(static_cast<std::size_t>(base + 4));
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const std::int64_t threads = std::min<std::int64_t>(4, hw);
    std::exception_ptr error;
    std::mutex error_mu;
    {
      Threads workers;
      for (std::int64_t t = 0; t < threads; ++t) {
        workers.spawn([&, t] {
          try {
            for (std::int64_t i = t; i < base + 4; i += threads)
              all[static_cast<std::size_t>(i)] = gen.sample(i).image;
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            error = std::current_exception();
          }
        });
      }
    }
    if (error) std::rethrow_exception(error);
    warm_.assign(all.begin() + base, all.end());
    all.resize(static_cast<std::size_t>(base));
    tiles_ = std::move(all);
  }

  img::Image tile(std::int64_t id) const {
    return dihedral(tiles_[static_cast<std::size_t>(id % base_)],
                    static_cast<int>((id / base_) % 8));
  }
  std::int64_t distinct() const { return 8 * base_; }
  const std::vector<img::Image>& warm() const { return warm_; }

 private:
  std::int64_t base_;
  std::vector<img::Image> tiles_;
  std::vector<img::Image> warm_;
};

// --------------------------------------------------- request schedule

enum class Slot { kNew, kHot, kCold };

struct Step {
  Slot slot = Slot::kNew;
  std::int64_t tile = 0;
};

/// tile_replay's seeded schedule. Every block of 8 positions holds 2 hot
/// repeats, 2 cold repeats and 4 new tiles in a seeded order. A hot repeat
/// re-sends a new tile from window+2..window+9 positions back: more than
/// the in-flight window (so the original resolved first) and far inside the
/// result tier's capacity (16 MiB ~ 120 results at 128 px), so it always
/// hits. A
/// cold repeat re-sends one from 512..639 positions back, several times
/// that capacity, so its result was always evicted (the smaller patch
/// entries survive, so it hits the patch tier); each new tile is re-sent
/// cold at most once, or the second cold repeat would hit the first.
/// Where no original exists yet, the slot sends a new tile.
class ReplayPlan {
 public:
  ReplayPlan(std::uint64_t seed, std::int64_t window)
      : rng_(seed ^ 0x7e91a5c3ull), hot_from_(window + 2) {}

  Step at(std::int64_t pos) {
    while (static_cast<std::int64_t>(steps_.size()) <= pos) extend();
    return steps_[static_cast<std::size_t>(pos)];
  }
  /// Planned result-tier hits among positions [lo, hi).
  std::int64_t planned_hits(std::int64_t lo, std::int64_t hi) {
    std::int64_t hits = 0;
    for (std::int64_t i = lo; i < hi; ++i) hits += at(i).slot == Slot::kHot;
    return hits;
  }

 private:
  void extend() {
    Slot block[8] = {Slot::kHot,  Slot::kHot,  Slot::kCold, Slot::kCold,
                     Slot::kNew,  Slot::kNew,  Slot::kNew,  Slot::kNew};
    for (int i = 7; i > 0; --i)  // Fisher-Yates: portable across libstdc++s
      std::swap(block[i], block[rng_() % static_cast<std::uint64_t>(i + 1)]);
    for (Slot s : block) {
      const std::int64_t pos = static_cast<std::int64_t>(steps_.size());
      Step step;
      if (s != Slot::kNew) {
        const std::int64_t lo = s == Slot::kHot ? hot_from_ : 512;
        const std::int64_t span = s == Slot::kHot ? 8 : 128;
        std::int64_t back = lo + static_cast<std::int64_t>(
                                     rng_() % static_cast<std::uint64_t>(span));
        // Walk further back to the nearest eligible new tile, in range.
        const auto eligible = [&](std::int64_t p) {
          const auto i = static_cast<std::size_t>(p);
          return steps_[i].slot == Slot::kNew &&
                 (s == Slot::kHot || !cold_taken_[i]);
        };
        while (back < lo + span && pos - back >= 0 && !eligible(pos - back))
          ++back;
        if (back < lo + span && pos - back >= 0) {
          step.slot = s;
          step.tile = steps_[static_cast<std::size_t>(pos - back)].tile;
          if (s == Slot::kCold)
            cold_taken_[static_cast<std::size_t>(pos - back)] = true;
        }
      }
      if (step.slot == Slot::kNew) step.tile = next_new_++;
      steps_.push_back(step);
      cold_taken_.push_back(false);
    }
  }

  std::mt19937_64 rng_;
  std::int64_t hot_from_;
  std::vector<Step> steps_;
  std::vector<bool> cold_taken_;  ///< parallel to steps_
  std::int64_t next_new_ = 0;
};

// ------------------------------------------------------------ records

/// One request as the client saw it. Times are seconds since phase start.
struct Record {
  std::int64_t pos = 0;
  double due = 0.0;       ///< when the schedule wanted it sent
  double sent = 0.0;      ///< when submit() was entered
  double done = -1.0;     ///< when the client held the result
  double submit_s = 0.0;  ///< client-side submit()/stage-1 time (traced)
  bool ok = false;
  serve::InferenceStats stats;  ///< per-request program counters (traced)
  double queue_s = 0.0;         ///< dense_tokens: patched -> forward start
};

struct Phase {
  std::string name;
  double seconds = 0.0;
  bool traced = false;
  std::vector<Record> recs;
  serve::InferenceStats window;  ///< Server::stats_since_last over the phase
  SchedulerStats sched{};        ///< scheduler_stats() delta
  double forward_s = 0.0;        ///< dense_tokens: summed batch forwards
  double model_flops = 0.0;      ///< dense_tokens: delivered encoder FLOPs

  std::int64_t sent() const { return static_cast<std::int64_t>(recs.size()); }
  std::int64_t succeeded() const {
    std::int64_t n = 0;
    for (const Record& r : recs) n += r.ok;
    return n;
  }
};

/// Responses kept for the bitwise correctness gate.
struct GateSample {
  std::int64_t tile = 0;
  Tensor logits;
  img::Image mask;
};

struct Gate {
  std::int64_t stride = 1, offset = 0;
  std::vector<GateSample> samples;
  bool wants(std::int64_t pos) const { return pos % stride == offset; }
  void keep(std::int64_t tile, serve::InferenceResult&& r) {
    samples.push_back({tile, std::move(r.logits), std::move(r.masks.at(0))});
  }
};

/// Everything one run shares across phases.
struct Context {
  const Workload& w;
  const TilePool& pool;
  ReplayPlan* plan = nullptr;  ///< tile_replay only
  Gate gate;
  std::int64_t next_pos = 0;   ///< positions continue across phases

  Step step(std::int64_t pos) {
    return plan ? plan->at(pos) : Step{Slot::kNew, pos};
  }
};

// ---------------------------------------------------- load generators

/// A submitted request the client has not collected yet.
struct InFlight {
  Record rec;
  Step step;
  std::future<serve::InferenceResult> fut;
};

/// Closed loop over a Server: the workload's window of requests in flight,
/// collected in order; a freed slot is refilled at once, and that moment is
/// the next request's due time. The next tile is materialized before
/// blocking so input preparation stays off the measured path.
Phase run_closed(serve::Server& server, Context& ctx, double seconds,
                 bool traced) {
  Phase ph;
  ph.name = "closed_loop";
  ph.seconds = seconds;
  ph.traced = traced;
  std::deque<InFlight> q;
  (void)server.stats_since_last();
  const SchedulerStats s0 = scheduler_stats();
  const auto t0 = Clock::now();

  Step next = ctx.step(ctx.next_pos);
  img::Image next_img = ctx.pool.tile(next.tile);
  auto send = [&](double due) {
    InFlight f;
    f.step = next;
    f.rec.pos = ctx.next_pos++;
    f.rec.due = due;
    f.rec.sent = since(t0);
    f.fut = server.submit(next_img);
    if (traced) f.rec.submit_s = since(t0) - f.rec.sent;
    q.push_back(std::move(f));
    next = ctx.step(ctx.next_pos);
    next_img = ctx.pool.tile(next.tile);
  };

  while (static_cast<std::int64_t>(q.size()) < ctx.w.window) send(since(t0));
  while (!q.empty()) {
    InFlight f = std::move(q.front());
    q.pop_front();
    try {
      serve::InferenceResult r = f.fut.get();
      f.rec.done = since(t0);
      f.rec.ok = true;
      if (traced) f.rec.stats = r.stats;
      if (ctx.gate.wants(f.rec.pos)) ctx.gate.keep(f.step.tile, std::move(r));
    } catch (const std::exception& e) {
      f.rec.done = since(t0);
      std::fprintf(stderr, "request %lld failed: %s\n",
                   static_cast<long long>(f.rec.pos), e.what());
    }
    const double done = f.rec.done;
    ph.recs.push_back(std::move(f.rec));
    if (done < seconds) send(done);
  }
  ph.window = server.stats_since_last();
  const SchedulerStats s1 = scheduler_stats();
  ph.sched = {s1.steals - s0.steals, s1.forward_tasks - s0.forward_tasks,
              s1.panel_tasks - s0.panel_tasks,
              s1.generic_tasks - s0.generic_tasks};
  return ph;
}

/// Open loop over a Server: one generator thread sends at a fixed rate
/// regardless of completions; the calling thread collects in order. Each
/// latency runs from the request's due time, so generator lag and any
/// backlog count.
Phase run_open(serve::Server& server, Context& ctx, double rate,
               double seconds, bool traced) {
  Phase ph;
  ph.name = "open_loop";
  ph.seconds = seconds;
  ph.traced = traced;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> q;  // guarded by mu
  bool closed = false;     // guarded by mu
  std::exception_ptr gen_error;

  (void)server.stats_since_last();
  const SchedulerStats s0 = scheduler_stats();
  const std::int64_t n = static_cast<std::int64_t>(seconds * rate);
  const std::int64_t first = ctx.next_pos;
  ctx.next_pos += n;
  const auto t0 = Clock::now();
  {
    Threads gen;
    gen.spawn([&] {
      try {
        for (std::int64_t i = 0; i < n; ++i) {
          InFlight f;
          f.step = ctx.step(first + i);
          f.rec.pos = first + i;
          f.rec.due = static_cast<double>(i) / rate;
          const img::Image im = ctx.pool.tile(f.step.tile);
          std::this_thread::sleep_until(
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(f.rec.due)));
          f.rec.sent = since(t0);
          f.fut = server.submit(im);
          if (traced) f.rec.submit_s = since(t0) - f.rec.sent;
          std::lock_guard<std::mutex> lock(mu);
          q.push_back(std::move(f));
          cv.notify_one();
        }
      } catch (...) {
        gen_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
      cv.notify_one();
    });
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !q.empty() || closed; });
        if (q.empty()) break;
        f = std::move(q.front());
        q.pop_front();
      }
      try {
        serve::InferenceResult r = f.fut.get();
        f.rec.done = since(t0);
        f.rec.ok = true;
        if (traced) f.rec.stats = r.stats;
        if (ctx.gate.wants(f.rec.pos)) ctx.gate.keep(f.step.tile, std::move(r));
      } catch (const std::exception& e) {
        f.rec.done = since(t0);
        std::fprintf(stderr, "request %lld failed: %s\n",
                     static_cast<long long>(f.rec.pos), e.what());
      }
      ph.recs.push_back(std::move(f.rec));
    }
  }  // joins the generator
  if (gen_error) std::rethrow_exception(gen_error);
  ph.window = server.stats_since_last();
  const SchedulerStats s1 = scheduler_stats();
  ph.sched = {s1.steals - s0.steals, s1.forward_tasks - s0.forward_tasks,
              s1.panel_tasks - s0.panel_tasks,
              s1.generic_tasks - s0.generic_tasks};
  return ph;
}

/// dense_tokens: a closed loop over InferenceEngine's public stages. Each
/// slot is one max_batch batch: uniform-patch its tiles (the client stage),
/// prepare -> forward -> decode. The batch is due once the previous one
/// finished and its tiles are materialized (input preparation is the
/// benchmark's work, so it stays off the latency path).
Phase run_dense(serve::InferenceEngine& engine, Context& ctx, double seconds,
                bool traced) {
  Phase ph;
  ph.name = "closed_loop";
  ph.seconds = seconds;
  ph.traced = traced;
  const core::UniformPatcher patcher(kPatch);
  const std::int64_t nb = engine.config().max_batch;
  std::vector<img::Image> next;
  auto fetch = [&] {
    next.clear();
    for (std::int64_t i = 0; i < nb; ++i)
      next.push_back(ctx.pool.tile(ctx.step(ctx.next_pos + i).tile));
  };
  fetch();
  const SchedulerStats s0 = scheduler_stats();
  const auto t0 = Clock::now();
  double due = 0.0;
  while (due < seconds) {
    std::vector<Record> recs(static_cast<std::size_t>(nb));
    std::vector<core::PatchSequence> seqs;
    std::vector<double> patched(static_cast<std::size_t>(nb));
    for (std::int64_t i = 0; i < nb; ++i) {
      Record& r = recs[static_cast<std::size_t>(i)];
      r.pos = ctx.next_pos++;
      r.due = due;
      r.sent = since(t0);
      seqs.push_back(patcher.process(next[static_cast<std::size_t>(i)]));
      patched[static_cast<std::size_t>(i)] = since(t0);
      if (traced) r.submit_s = patched[static_cast<std::size_t>(i)] - r.sent;
    }
    try {
      const core::TokenBatch tb = serve::InferenceEngine::prepare(seqs);
      const double f0 = since(t0);
      const Tensor logits = engine.forward(tb);
      const double fwd = since(t0) - f0;
      std::vector<img::Image> masks = engine.decode(logits);
      const double done = since(t0);
      ph.forward_s += fwd;
      const std::int64_t per_image = logits.numel() / nb;
      for (std::int64_t i = 0; i < nb; ++i) {
        Record& r = recs[static_cast<std::size_t>(i)];
        r.done = done;
        r.ok = true;
        ph.model_flops += engine.flops_for_tokens(
            seqs[static_cast<std::size_t>(i)].num_valid());
        if (traced) {
          r.queue_s = f0 - patched[static_cast<std::size_t>(i)];
          r.stats.forward_seconds = fwd;
          r.stats.batch_size = nb;
          r.stats.queue_depth = i;
        }
        if (ctx.gate.wants(r.pos)) {
          serve::InferenceResult res;
          res.logits = Tensor({1, logits.size(1), logits.size(2),
                               logits.size(3)});
          std::copy(logits.data() + i * per_image,
                    logits.data() + (i + 1) * per_image, res.logits.data());
          res.masks.push_back(std::move(masks[static_cast<std::size_t>(i)]));
          ctx.gate.keep(ctx.step(r.pos).tile, std::move(res));
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch failed: %s\n", e.what());
      for (Record& r : recs) r.done = since(t0);
    }
    for (Record& r : recs) ph.recs.push_back(std::move(r));
    fetch();
    due = since(t0);
  }
  const SchedulerStats s1 = scheduler_stats();
  ph.sched = {s1.steals - s0.steals, s1.forward_tasks - s0.forward_tasks,
              s1.panel_tasks - s0.panel_tasks,
              s1.generic_tasks - s0.generic_tasks};
  return ph;
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// Closed-loop capacity: completions are cut into kChunks runs of equal
/// count (ties kept together), each chunk's rate is its count over the
/// time since the previous chunk ended, and the median chunk rate is
/// reported. One host stall then moves one chunk, not the figure.
double capacity(const Phase& ph, std::int64_t* samples) {
  std::vector<double> done;
  for (const Record& r : ph.recs)
    if (r.ok && r.done <= ph.seconds) done.push_back(r.done);
  std::sort(done.begin(), done.end());
  *samples = static_cast<std::int64_t>(done.size());
  if (done.empty()) return 0.0;
  std::vector<double> rates;
  const std::size_t per = std::max<std::size_t>(1, done.size() / kChunks);
  double prev = 0.0;
  std::size_t i = 0;
  while (i < done.size()) {
    std::size_t j = std::min(done.size(), i + per);
    while (j < done.size() && done[j] == done[j - 1]) ++j;
    if (done.size() - j < per / 2) j = done.size();  // fold a short tail in
    const double span = done[j - 1] - prev;
    if (span > 0.0) rates.push_back(static_cast<double>(j - i) / span);
    prev = done[j - 1];
    i = j;
  }
  return quantile(rates, 0.5);
}

/// Latency quantile q as the median over up to 5 consecutive chunks of
/// requests, each at least 100 long so that its p90 keeps ten samples
/// beyond it; a short run is one chunk.
double chunked_quantile(const std::vector<double>& ms, double q) {
  const std::size_t chunks = std::clamp<std::size_t>(ms.size() / 100, 1, 5);
  std::vector<double> per;
  for (std::size_t c = 0; c < chunks; ++c)
    per.push_back(quantile({ms.begin() + c * ms.size() / chunks,
                            ms.begin() + (c + 1) * ms.size() / chunks},
                           q));
  return quantile(per, 0.5);
}

struct EndToEnd {
  double throughput = 0.0, p50_ms = 0.0, p90_ms = 0.0, slo = 0.0;
  std::int64_t tput_n = 0, lat_n = 0, slo_n = 0;
};

/// Latency percentiles and SLO share over the latency phase (every request
/// sent; a failed request misses the limit), throughput over the capacity
/// phase.
EndToEnd end_to_end(const Workload& w, const Phase& lat, const Phase& tput) {
  EndToEnd e;
  std::vector<double> ms;
  std::int64_t within = 0;
  for (const Record& r : lat.recs) {
    if (!r.ok) continue;
    const double l = 1e3 * (r.done - r.due);
    ms.push_back(l);
    within += l <= w.slo_ms;
  }
  e.lat_n = static_cast<std::int64_t>(ms.size());
  e.p50_ms = chunked_quantile(ms, 0.5);
  e.p90_ms = chunked_quantile(ms, 0.9);
  e.slo_n = lat.sent();
  e.slo = e.slo_n > 0 ? static_cast<double>(within) / e.slo_n : 0.0;
  e.throughput = capacity(tput, &e.tput_n);
  return e;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------- per-layer probes

/// Times `fn` over whole repetitions until at least `min_s` elapsed;
/// returns seconds per call.
template <class F>
double time_per_call(F&& fn, double min_s, std::int64_t* calls) {
  fn();  // warm
  std::int64_t n = 0;
  const auto t0 = Clock::now();
  double s = 0.0;
  do {
    fn();
    ++n;
    s = since(t0);
  } while (s < min_s);
  *calls = n;
  return s / static_cast<double>(n);
}

std::vector<core::PatchSequence> workload_sequences(
    const Workload& w, const serve::InferenceEngine& engine,
    const TilePool& pool, std::int64_t n) {
  std::vector<core::PatchSequence> seqs;
  const core::UniformPatcher uniform(kPatch);
  for (std::int64_t i = 0; i < n; ++i) {
    const img::Image im = pool.tile(i);
    seqs.push_back(w.kind == Kind::kDense ? uniform.process(im)
                                          : engine.patch(im));
  }
  return seqs;
}

/// patcher.*: AdaptivePatcher::edge_map, the quadtree over that edge map
/// (build_tree's second half) and extract_leaf_patches, per image, plus
/// the token count the workload feeds the model (exact for a seed).
void probe_patcher(const Workload& w, const serve::InferenceEngine& engine,
                   const TilePool& pool, std::vector<Metric>& out) {
  const core::AdaptivePatcher patcher(engine.config().patcher);
  const core::ApfConfig& cfg = patcher.config();
  qt::QuadtreeConfig qc;
  qc.split_value = cfg.split_value;
  qc.max_depth = cfg.max_depth;
  qc.min_size = std::max<std::int64_t>(cfg.min_patch, 1);
  qc.enforce_balance = cfg.enforce_balance;
  std::vector<double> edge, tree, extract;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::int64_t i = 0; i < kProbeTiles; ++i) {
      const img::Image im = pool.tile(i);
      auto t0 = Clock::now();
      const img::Image e = patcher.edge_map(im);
      edge.push_back(1e3 * since(t0));
      t0 = Clock::now();
      const qt::Quadtree qt(e, qc);
      tree.push_back(1e3 * since(t0));
      t0 = Clock::now();
      const core::PatchSequence seq =
          core::extract_leaf_patches(im, qt, cfg.patch_size);
      extract.push_back(1e3 * since(t0));
    }
  }
  const auto n = static_cast<std::int64_t>(edge.size());
  out.push_back({"patcher.edge_ms", mean(edge), "ms", n});
  out.push_back({"patcher.tree_ms", mean(tree), "ms", n});
  out.push_back({"patcher.extract_ms", mean(extract), "ms", n});
  constexpr std::int64_t kTokenTiles = 32;
  double tokens = 0.0;
  for (const core::PatchSequence& s :
       workload_sequences(w, engine, pool, kTokenTiles))
    tokens += static_cast<double>(s.num_valid());
  out.push_back({"patcher.tokens_per_img", tokens / kTokenTiles, "count",
                 kTokenTiles});
}

/// engine.*: prepare -> forward -> decode on max_batch batches of the
/// workload's own sequences.
void probe_engine(const Workload& w, serve::InferenceEngine& engine,
                  const TilePool& pool, std::vector<Metric>& out) {
  const std::vector<core::PatchSequence> seqs =
      workload_sequences(w, engine, pool, kProbeTiles);
  const std::int64_t nb = engine.config().max_batch;
  std::vector<double> prep, fwd, dec;
  for (std::int64_t off = 0; off + nb <= kProbeTiles; off += nb) {
    const std::vector<core::PatchSequence> chunk(seqs.begin() + off,
                                                 seqs.begin() + off + nb);
    auto t0 = Clock::now();
    const core::TokenBatch tb = serve::InferenceEngine::prepare(chunk);
    prep.push_back(1e3 * since(t0));
    t0 = Clock::now();
    const Tensor logits = engine.forward(tb);
    fwd.push_back(1e3 * since(t0) / static_cast<double>(nb));
    t0 = Clock::now();
    const std::vector<img::Image> masks = engine.decode(logits);
    dec.push_back(1e3 * since(t0));
  }
  const auto n = static_cast<std::int64_t>(prep.size());
  out.push_back({"engine.prepare_ms", mean(prep), "ms", n});
  out.push_back({"engine.forward_ms_per_img", mean(fwd), "ms", n * nb});
  out.push_back({"engine.decode_ms", mean(dec), "ms", n});
}

/// gemm.*: apf::gemm at the fixed width on the encoder MLP's dense shape
/// (mean tokens x 2d <- d) and on the full-resolution decoder conv's
/// im2col shape (8 channels x Z*Z <- 8*3*3).
void probe_gemm(std::int64_t z, double tokens, std::vector<Metric>& out) {
  Rng rng(0x6e44);
  auto run = [&](bool trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, std::int64_t* calls) {
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = trans_b ? Tensor::randn({n, k}, rng)
                             : Tensor::randn({k, n}, rng);
    Tensor c = Tensor::zeros({m, n});
    const double s = time_per_call(
        [&] {
          gemm(false, trans_b, m, n, k, 1.f, a.data(), k, b.data(),
               trans_b ? k : n, 0.f, c.data(), n);
        },
        0.15, calls);
    return 2.0 * static_cast<double>(m * n * k) / s / 1e9;
  };
  std::int64_t calls = 0;
  const std::int64_t m = std::max<std::int64_t>(1, std::llround(tokens));
  const double enc = run(true, m, 128, 64, &calls);
  out.push_back({"gemm.encoder_gflops", enc, "GFLOP/s", calls});
  const double dec = run(false, 8, z * z, 72, &calls);
  out.push_back({"gemm.decoder_gflops", dec, "GFLOP/s", calls});
}

/// cache.key_ms: InferenceCache::image_key per image. cache.hit_ms on the
/// workloads without a cache: Server::submit on result-tier hits of a
/// small cache-on server over the same model and tiles.
void probe_cache(const Workload& w, models::Unetr2d& model,
                 const TilePool& pool, bool want_hit,
                 std::vector<Metric>& out) {
  serve::CacheConfig cc;
  cc.capacity_bytes = 64ll << 20;
  const serve::InferenceCache cache(cc);
  std::vector<img::Image> tiles;
  for (std::int64_t i = 0; i < kProbeTiles; ++i) tiles.push_back(pool.tile(i));
  std::vector<double> key;
  for (int rep = 0; rep < 4; ++rep) {
    for (const img::Image& im : tiles) {
      const auto t0 = Clock::now();
      const core::Digest128 d = cache.image_key(im);
      key.push_back(1e3 * since(t0));
      (void)d;
    }
  }
  out.push_back({"cache.key_ms", mean(key), "ms",
                 static_cast<std::int64_t>(key.size())});
  if (!want_hit) return;
  serve::ServerConfig sc = server_config(w);
  sc.cache = cc;
  serve::Server server(model, sc);
  const std::vector<img::Image> few(tiles.begin(), tiles.begin() + 4);
  for (auto& f : server.submit_many(few)) f.get();  // misses fill the tier
  std::vector<double> hit;
  for (int rep = 0; rep < 4; ++rep) {
    for (const img::Image& im : few) {
      const auto t0 = Clock::now();
      std::future<serve::InferenceResult> f = server.submit(im);
      hit.push_back(1e3 * since(t0));
      f.get();
    }
  }
  out.push_back({"cache.hit_ms", mean(hit), "ms",
                 static_cast<std::int64_t>(hit.size())});
}

/// Per-layer metrics read from one traced phase: the client's timers around
/// submit(), per-request InferenceStats, the server's stats_since_last()
/// window and the scheduler counters.
void phase_layers(const Workload& w, const Phase& ph,
                  std::vector<Metric>& out) {
  std::vector<double> submit, fwd, wait, lag, hit;
  for (const Record& r : ph.recs) {
    if (!r.ok) continue;
    lag.push_back(1e3 * (r.sent - r.due));
    if (r.stats.result_cache_hits > 0) {
      hit.push_back(1e3 * r.submit_s);
      continue;
    }
    submit.push_back(1e3 * r.submit_s);
    fwd.push_back(1e3 * r.stats.forward_seconds);
    wait.push_back(1e3 * (w.kind == Kind::kDense ? r.queue_s
                                                 : r.stats.queue_seconds));
  }
  const auto n = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  out.push_back({"server.submit_ms", mean(submit), "ms", n(submit)});
  out.push_back({"server.forward_ms", mean(fwd), "ms", n(fwd)});
  out.push_back({"queue.wait_ms_p50", quantile(wait, 0.5), "ms", n(wait)});
  out.push_back({"queue.wait_ms_p90", quantile(wait, 0.9), "ms", n(wait)});

  double batch_mean = 0.0, padding = 0.0, depth = 0.0, gflops = 0.0;
  std::int64_t images = ph.succeeded();
  if (w.kind == Kind::kDense) {
    batch_mean = static_cast<double>(images > 0 ? ph.recs[0].stats.batch_size
                                                : 0);
    double d = 0.0;
    for (const Record& r : ph.recs) d += static_cast<double>(r.stats.queue_depth);
    depth = images > 0 ? d / static_cast<double>(images) : 0.0;
    gflops = ph.forward_s > 0.0 ? ph.model_flops / ph.forward_s / 1e9 : 0.0;
  } else {
    std::int64_t batches = 0, batched = 0;
    for (const auto& [size, count] : ph.window.batch_size_counts) {
      batches += count;
      batched += size * count;
    }
    batch_mean = batches > 0 ? static_cast<double>(batched) / batches : 0.0;
    padding = ph.window.padding_ratio();
    depth = ph.window.avg_queue_depth();
    gflops = ph.window.model_gflops_per_sec();
    images = ph.window.images;
  }
  out.push_back({"queue.batch_size_mean", batch_mean, "count", images});
  out.push_back({"queue.padding_ratio", padding, "share", images});
  out.push_back({"queue.depth_mean", depth, "count", images});
  out.push_back({"engine.gflops", gflops, "GFLOP/s", images});
  const double per = images > 0 ? 1.0 / static_cast<double>(images) : 0.0;
  out.push_back({"scheduler.steals_per_img",
                 static_cast<double>(ph.sched.steals) * per, "count", images});
  out.push_back({"scheduler.forward_tasks_per_img",
                 static_cast<double>(ph.sched.forward_tasks) * per, "count",
                 images});
  out.push_back({"scheduler.panel_tasks_per_img",
                 static_cast<double>(ph.sched.panel_tasks) * per, "count",
                 images});

  const serve::InferenceStats& c = ph.window;
  const std::int64_t patch_lookups = c.patch_cache_hits + c.patch_cache_misses;
  out.push_back({"cache.hit_rate", c.result_cache_hit_rate(), "share",
                 c.result_cache_hits + c.result_cache_misses});
  out.push_back({"cache.patch_hit_rate",
                 patch_lookups > 0
                     ? static_cast<double>(c.patch_cache_hits) / patch_lookups
                     : 0.0,
                 "share", patch_lookups});
  out.push_back({"cache.evictions_per_1k",
                 1e3 * static_cast<double>(c.cache_evictions) * per, "count",
                 images});
  out.push_back({"cache.bytes", static_cast<double>(c.cache_bytes), "bytes",
                 1});
  if (!hit.empty())
    out.push_back({"cache.hit_ms", mean(hit), "ms", n(hit)});
  out.push_back({"loadgen.lag_p90_ms", quantile(lag, 0.9), "ms", n(lag)});
}

// ------------------------------------------------------------- output

void print_metric(const Metric& m) {
  std::printf("metric %-30s %14.6g %-8s samples=%lld\n", m.name.c_str(),
              m.value, m.unit.c_str(), static_cast<long long>(m.samples));
}

void print_phase(const Phase& ph) {
  std::printf("phase %-12s traced=%d seconds=%.1f sent=%lld succeeded=%lld "
              "failed=%lld\n",
              ph.name.c_str(), ph.traced ? 1 : 0, ph.seconds,
              static_cast<long long>(ph.sent()),
              static_cast<long long>(ph.succeeded()),
              static_cast<long long>(ph.sent() - ph.succeeded()));
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

// ---------------------------------------------------------------- gate

/// Compares every kept response bitwise against a cold InferenceEngine on
/// the same tile: run() for the served workloads (hits included, so a
/// cached answer must equal a cold one), a batch-of-one prepare -> forward
/// -> decode for dense_tokens (run() always patches adaptively). Returns
/// the number of mismatches.
std::int64_t check_gate(const Workload& w, models::Unetr2d& model,
                        const TilePool& pool, const Gate& gate) {
  serve::InferenceEngine ref(model, engine_config(w.tile_px));
  const core::UniformPatcher uniform(kPatch);
  std::int64_t bad = 0;
  for (const GateSample& s : gate.samples) {
    const img::Image im = pool.tile(s.tile);
    Tensor logits;
    img::Image mask;
    if (w.kind == Kind::kDense) {
      logits = ref.forward(serve::InferenceEngine::prepare({uniform.process(im)}));
      mask = ref.decode(logits).at(0);
    } else {
      serve::InferenceResult r = ref.run({im});
      logits = std::move(r.logits);
      mask = std::move(r.masks.at(0));
    }
    const bool same =
        logits.numel() == s.logits.numel() && mask.data == s.mask.data &&
        std::memcmp(logits.data(), s.logits.data(),
                    static_cast<std::size_t>(logits.numel()) *
                        sizeof(float)) == 0;
    bad += !same;
  }
  return bad;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  set_num_threads(kWidth);
  const TilePool pool(w.tile_px, args.seed, w.base_tiles);
  ReplayPlan plan(args.seed, w.window);
  Context ctx{w, pool, w.kind == Kind::kReplay ? &plan : nullptr, {}, 0};
  ctx.gate.stride = w.gate_stride;
  ctx.gate.offset = static_cast<std::int64_t>(args.seed %
                                              static_cast<std::uint64_t>(
                                                  w.gate_stride));

  // --- set-up: model, server (cache fingerprint included) and a warm-up
  // pass up to its first results, repeated; setup_s is the median.
  std::unique_ptr<models::Unetr2d> model;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::vector<double> setup;
  const core::UniformPatcher uniform(kPatch);
  for (int rep = 0; rep < w.setups; ++rep) {
    server.reset();
    engine.reset();
    model.reset();
    const auto t0 = Clock::now();
    model = build_model(w.tile_px);
    if (w.kind == Kind::kDense) {
      engine = std::make_unique<serve::InferenceEngine>(
          *model, engine_config(w.tile_px));
      std::vector<core::PatchSequence> seqs;
      for (const img::Image& im : pool.warm()) seqs.push_back(uniform.process(im));
      engine->decode(engine->forward(serve::InferenceEngine::prepare(seqs)));
    } else {
      server = std::make_unique<serve::Server>(*model, server_config(w));
      for (auto& f : server->submit_many(pool.warm())) f.get();
    }
    setup.push_back(since(t0));
  }

  // --- measured phases. Trace mode halves the time: an untraced half for
  // the overhead baseline, then the traced half.
  const int halves = args.trace ? 2 : 1;
  const double span = args.seconds / halves;
  struct Pair {
    Phase lat, tput;
    bool same = true;  ///< one phase serves both roles
  };
  std::vector<Pair> runs;
  for (int h = 0; h < halves; ++h) {
    const bool traced = h == 1;
    Pair p;
    switch (w.kind) {
      case Kind::kStream:
        p.lat = run_open(*server, ctx, kStreamRate, span * kStreamOpenShare,
                         traced);
        p.tput = run_closed(*server, ctx, span * (1.0 - kStreamOpenShare),
                            traced);
        p.same = false;
        break;
      case Kind::kDense:
        p.lat = run_dense(*engine, ctx, span, traced);
        break;
      default:
        p.lat = run_closed(*server, ctx, span, traced);
        break;
    }
    runs.push_back(std::move(p));
  }

  std::vector<Metric> layers;
  if (args.trace) {
    // tile_stream's layers are read from its open loop, the viewer path.
    phase_layers(w, runs.back().lat, layers);
    serve::InferenceEngine probe(*model, engine_config(w.tile_px));
    probe_patcher(w, probe, pool, layers);
    probe_engine(w, probe, pool, layers);
    double tokens = 0.0;
    for (const Metric& m : layers)
      if (m.name == "patcher.tokens_per_img") tokens = m.value;
    probe_gemm(w.tile_px, tokens, layers);
    const bool has_hit = std::any_of(layers.begin(), layers.end(),
                                     [](const Metric& m) {
                                       return m.name == "cache.hit_ms";
                                     });
    probe_cache(w, *model, pool, !has_hit, layers);
  }

  // --- correctness gate, outside every timed region.
  server.reset();
  const std::int64_t mismatches = check_gate(w, *model, pool, ctx.gate);

  std::int64_t sent = 0, succeeded = 0;
  std::vector<EndToEnd> e2e;
  for (const Pair& p : runs) {
    e2e.push_back(end_to_end(w, p.lat, p.same ? p.lat : p.tput));
    for (const Phase* ph : {&p.lat, &p.tput}) {
      if (ph == &p.tput && p.same) continue;
      sent += ph->sent();
      succeeded += ph->succeeded();
    }
  }
  const std::int64_t failed = (sent - succeeded) + mismatches;
  const bool correct = failed == 0;

  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d "
              "width=%d gemm_backend=%s tile_px=%lld\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, num_threads(),
              active_gemm_backend().name(),
              static_cast<long long>(w.tile_px));
  if (w.slo_ms > 0.0) std::printf("slo_ms=%g\n", w.slo_ms);
  std::printf("setup runs_s=");
  for (std::size_t i = 0; i < setup.size(); ++i)
    std::printf("%s%.4f", i ? "," : "", setup[i]);
  std::printf("\n");
  for (const Pair& p : runs) {
    print_phase(p.lat);
    if (!p.same) print_phase(p.tput);
  }
  std::printf("gate samples=%zu mismatches=%lld\n", ctx.gate.samples.size(),
              static_cast<long long>(mismatches));
  if (w.kind == Kind::kReplay) {
    // The seed fixes the hit count: measured result-tier hits must equal
    // the schedule's hot slots among the positions each phase sent.
    for (const Pair& p : runs) {
      const Phase& ph = p.lat;
      const std::int64_t lo = ph.recs.empty() ? 0 : ph.recs.front().pos;
      std::printf("replay phase traced=%d hits=%lld planned_hits=%lld "
                  "positions=%lld\n",
                  ph.traced ? 1 : 0,
                  static_cast<long long>(ph.window.result_cache_hits),
                  static_cast<long long>(plan.planned_hits(lo, lo + ph.sent())),
                  static_cast<long long>(ph.sent()));
    }
  }

  const EndToEnd& u = e2e.front();
  std::vector<Metric> headline = {
      {"throughput_img_s", u.throughput, "img/s", u.tput_n},
      {"latency_p50_ms", u.p50_ms, "ms", u.lat_n},
      {"latency_p90_ms", u.p90_ms, "ms", u.lat_n},
      {"setup_s", quantile(setup, 0.5), "s",
       static_cast<std::int64_t>(setup.size())},
  };
  // Printed but not gated (DESIGN.md gives the reasons): the viewer SLO,
  // which only tile_stream's open loop defines, peak RSS, which follows
  // which threads happened to grow arena blocks for which batch sizes, and
  // the error rate, which is 0 on every valid run (`failed` carries it).
  const Metric rss{"peak_rss_mb", peak_rss_mb(), "MiB", 1};
  for (const Metric& m : headline) print_metric(m);
  if (w.slo_ms > 0.0) print_metric({"slo_attainment", u.slo, "share", u.slo_n});
  print_metric(rss);
  print_metric({"error_rate",
                sent > 0 ? static_cast<double>(failed) / sent : 0.0, "share",
                sent});
  layers.push_back({"process.peak_rss_mb", rss.value, rss.unit, 1});

  if (args.trace) {
    const EndToEnd& t = e2e.back();
    const auto pct = [](double a, double b) {
      return a != 0.0 ? 100.0 * (b - a) / a : 0.0;
    };
    std::printf("overhead throughput_img_s untraced=%.4g traced=%.4g "
                "delta=%+.2f%%\n", u.throughput, t.throughput,
                pct(u.throughput, t.throughput));
    std::printf("overhead latency_p50_ms untraced=%.4g traced=%.4g "
                "delta=%+.2f%%\n", u.p50_ms, t.p50_ms, pct(u.p50_ms, t.p50_ms));
    std::printf("overhead latency_p90_ms untraced=%.4g traced=%.4g "
                "delta=%+.2f%%\n", u.p90_ms, t.p90_ms, pct(u.p90_ms, t.p90_ms));
    if (w.slo_ms > 0.0)
      std::printf("overhead slo_attainment untraced=%.4g traced=%.4g "
                  "delta=%+.2f%%\n", u.slo, t.slo, pct(u.slo, t.slo));
    layers.push_back({"trace.throughput_delta_pct",
                      pct(u.throughput, t.throughput), "%", t.tput_n});
    layers.push_back({"trace.latency_p50_delta_pct", pct(u.p50_ms, t.p50_ms),
                      "%", t.lat_n});
    layers.push_back({"loadgen.sent", static_cast<double>(sent), "count", 1});
    layers.push_back({"loadgen.succeeded", static_cast<double>(succeeded),
                      "count", 1});
    layers.push_back({"loadgen.failed", static_cast<double>(sent - succeeded),
                      "count", 1});
    for (const Metric& m : layers) print_metric(m);
    print_json(correct, sent, failed, layers);
  } else {
    print_json(correct, sent, failed, headline);
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
