// Async serving tests: the length-bucketed RequestQueue scheduler
// (bucketing, deadline flush, backpressure, drain, wait-without-claim),
// the staged InferenceEngine API, the padded-length-independence property
// the scheduler's bitwise guarantee rests on, geometry validation at the
// API boundary, and an N-client concurrent stress test asserting bitwise
// equality with the serial InferenceEngine::run path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/apf_config.h"
#include "models/patcher.h"
#include "data/synthetic.h"
#include "models/unetr.h"
#include "serve/engine.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "core/check.h"
#include "core/thread_pool.h"

namespace apf {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------ test rig

// Small UNETR + patcher the whole file shares. seq_len = 0 keeps natural
// (variable) sequence lengths so bucketing has real work to do.
struct Rig {
  static constexpr std::int64_t kZ = 32, kPatch = 4;

  Rig() : rng(7), model(make_config(), rng) {}

  static models::UnetrConfig make_config() {
    models::UnetrConfig mcfg;
    mcfg.enc.token_dim = 3 * kPatch * kPatch;
    mcfg.enc.d_model = 32;
    mcfg.enc.depth = 1;
    mcfg.enc.heads = 4;
    mcfg.image_size = kZ;
    mcfg.grid = 8;
    mcfg.base_channels = 8;
    return mcfg;
  }

  serve::EngineConfig engine_config(std::int64_t seq_len = 0) const {
    serve::EngineConfig ecfg;
    ecfg.patcher.patch_size = kPatch;
    ecfg.patcher.min_patch = kPatch;
    ecfg.patcher.max_depth = 5;
    ecfg.patcher.seq_len = seq_len;
    ecfg.max_batch = 4;
    return ecfg;
  }

  std::vector<img::Image> images(std::int64_t n) const {
    data::PaipConfig pc;
    pc.resolution = kZ;
    data::SyntheticPaip gen(pc);
    std::vector<img::Image> out;
    for (std::int64_t i = 0; i < n; ++i) out.push_back(gen.sample(i).image);
    return out;
  }

  Rng rng;
  models::Unetr2d model;
};

// A minimal request for queue-only tests: a sequence of the given length
// (and, optionally, source image size).
serve::Request make_request(std::uint64_t id, std::int64_t length,
                            std::int64_t image_size = 32) {
  serve::Request r;
  r.id = id;
  r.seq.tokens = Tensor::zeros({length, 4});
  r.seq.mask = Tensor::ones({length});
  r.seq.meta.assign(static_cast<std::size_t>(length), core::PatchToken{});
  r.seq.image_size = image_size;
  r.enqueued = std::chrono::steady_clock::now();
  return r;
}

// ------------------------------------------------------- request queue

TEST(RequestQueue, BucketsRoundLengthsUp) {
  serve::RequestQueue q(/*max_pending=*/16, /*granularity=*/32,
                        /*max_batch=*/4, /*deadline=*/0ms);
  EXPECT_EQ(q.bucket_of(1), 32);
  EXPECT_EQ(q.bucket_of(32), 32);
  EXPECT_EQ(q.bucket_of(33), 64);
  EXPECT_EQ(q.bucket_of(0), 32);  // empty sequences share the first bucket
  serve::RequestQueue exact(16, 1, 4, 0ms);
  EXPECT_EQ(exact.bucket_of(17), 17);
}

TEST(RequestQueue, FullBucketFlushesImmediatelyAndGroupsByLength) {
  serve::RequestQueue q(16, /*granularity=*/32, /*max_batch=*/2,
                        /*deadline=*/10s);
  // Lengths 40 and 50 share bucket 64; length 10 sits alone in bucket 32.
  ASSERT_TRUE(q.push(make_request(0, 10)));
  ASSERT_TRUE(q.push(make_request(1, 40)));
  ASSERT_TRUE(q.push(make_request(2, 50)));
  // Bucket 64 holds max_batch = 2 requests -> flushes with no deadline
  // wait even though request 0 is older.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::Request> batch = q.pop_batch();
  const auto took = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);  // FIFO within the bucket
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_LT(took, 5s) << "full bucket must not wait for the deadline";
  EXPECT_EQ(q.pending(), 1);
}

TEST(RequestQueue, MixedImageSizesNeverShareABatch) {
  // Same token length, different source geometry: a size-agnostic model
  // (expected_image_size() == 0) admits both, but they cannot legally
  // share a TokenBatch, so the bucket key includes the image size.
  serve::RequestQueue q(16, 32, /*max_batch=*/2, 0ms);
  ASSERT_TRUE(q.push(make_request(0, 20, /*image_size=*/32)));
  ASSERT_TRUE(q.push(make_request(1, 20, /*image_size=*/64)));
  std::vector<serve::Request> first = q.pop_batch();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 0u);
  std::vector<serve::Request> second = q.pop_batch();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 1u);
}

TEST(RequestQueue, DeadlineFlushesPartFullBucket) {
  serve::RequestQueue q(16, 32, /*max_batch=*/4, /*deadline=*/50ms);
  ASSERT_TRUE(q.push(make_request(0, 10)));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::Request> batch = q.pop_batch();
  const auto took = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_GE(took, 40ms) << "part-full bucket flushed before the deadline";
  EXPECT_EQ(q.pending(), 0);
}

TEST(RequestQueue, OldestBucketWinsTheDeadlineFlush) {
  serve::RequestQueue q(16, 32, 4, 0ms);
  ASSERT_TRUE(q.push(make_request(0, 40)));  // bucket 64, oldest
  ASSERT_TRUE(q.push(make_request(1, 10)));  // bucket 32
  std::vector<serve::Request> batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u) << "flush must start from the oldest request";
}

TEST(RequestQueue, QueueFullBackpressure) {
  serve::RequestQueue q(/*max_pending=*/2, 32, /*max_batch=*/2, 0ms);
  ASSERT_TRUE(q.try_push(make_request(0, 8)));
  ASSERT_TRUE(q.try_push(make_request(1, 8)));
  // Non-blocking push observes the backpressure immediately.
  EXPECT_FALSE(q.try_push(make_request(2, 8)));
  EXPECT_EQ(q.pending(), 2);

  // Blocking push parks until a pop frees a slot.
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    serve::Request r = make_request(3, 8);
    ASSERT_TRUE(q.push(std::move(r)));
    pushed.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed.load()) << "push must block while the queue is full";
  std::vector<serve::Request> batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 2u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pending(), 1);
}

TEST(RequestQueue, PopTakesAtMostMaxBatch) {
  serve::RequestQueue q(/*max_pending=*/8, /*granularity=*/32,
                        /*max_batch=*/2, 0ms);
  for (std::uint64_t i = 0; i < 8; ++i)
    ASSERT_TRUE(q.push(make_request(i, 8)));
  std::vector<serve::Request> batch = q.pop_batch();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.pending(), 6);
}

TEST(RequestQueue, CloseDrainsImmediatelyThenSignalsExit) {
  serve::RequestQueue q(16, 32, 4, 10s);
  ASSERT_TRUE(q.push(make_request(0, 10)));
  ASSERT_TRUE(q.push(make_request(1, 40)));
  q.close();
  EXPECT_FALSE(q.try_push(make_request(2, 10)));
  // Drain ignores the (huge) deadline: both buckets come out oldest-first.
  std::vector<serve::Request> first = q.pop_batch();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 0u);
  std::vector<serve::Request> second = q.pop_batch();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 1u);
  // Closed and drained -> empty batch, the worker exit signal.
  EXPECT_TRUE(q.pop_batch().empty());
}

// The two primitives Server workers drive directly: wait_ready() waits
// without claiming, try_pop_batch() claims without waiting.

TEST(RequestQueue, TryPopBeforeDeadlineReturnsEmptyAtOnce) {
  serve::RequestQueue q(16, 32, /*max_batch=*/4, /*deadline=*/10s);
  ASSERT_TRUE(q.push(make_request(0, 10)));  // part-full bucket
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.try_pop_batch().empty())
      << "part-full bucket popped before its deadline";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s)
      << "try_pop_batch must not wait";
  EXPECT_EQ(q.pending(), 1);
}

TEST(RequestQueue, WaitReadyReportsARipeBucketWithoutPopping) {
  serve::RequestQueue q(16, 32, /*max_batch=*/2, /*deadline=*/10s);
  ASSERT_TRUE(q.push(make_request(0, 8)));
  ASSERT_TRUE(q.push(make_request(1, 8)));  // bucket full: ripe
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(q.wait_ready());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s)
      << "a full bucket must not wait for the deadline";
  ASSERT_EQ(q.pending(), 2) << "wait_ready must not pop";
}

TEST(RequestQueue, WaitReadyDoesNotClaimSoOnlyOneTryPopWins) {
  serve::RequestQueue q(16, 32, /*max_batch=*/2, /*deadline=*/10s);
  ASSERT_TRUE(q.push(make_request(0, 8)));
  ASSERT_TRUE(q.push(make_request(1, 8)));
  // Two consumers both see the ripe bucket; the ASSERTs stop the test
  // before a second wait could block if the first one had claimed it.
  ASSERT_TRUE(q.wait_ready());
  ASSERT_EQ(q.pending(), 2);
  ASSERT_TRUE(q.wait_ready());
  ASSERT_EQ(q.pending(), 2);
  // Only the first pop gets the batch; the loser comes back empty.
  std::vector<serve::Request> winner = q.try_pop_batch();
  ASSERT_EQ(winner.size(), 2u);
  EXPECT_EQ(winner[0].id, 0u);
  EXPECT_EQ(winner[1].id, 1u);
  EXPECT_TRUE(q.try_pop_batch().empty());
  EXPECT_EQ(q.pending(), 0);
}

TEST(RequestQueue, WaitReadyReturnsFalseOnceClosedAndDrained) {
  serve::RequestQueue q(16, 32, /*max_batch=*/4, /*deadline=*/10s);
  // A consumer parked on an empty queue wakes on close() with false.
  std::future<bool> parked =
      std::async(std::launch::async, [&q] { return q.wait_ready(); });
  std::this_thread::sleep_for(20ms);
  q.close();
  EXPECT_FALSE(parked.get());

  serve::RequestQueue drained(16, 32, 4, 10s);
  ASSERT_TRUE(drained.push(make_request(0, 8)));
  drained.close();
  EXPECT_TRUE(drained.wait_ready()) << "drain ignores the deadline";
  ASSERT_EQ(drained.try_pop_batch().size(), 1u);
  EXPECT_FALSE(drained.wait_ready());
}

// ---------------------------------------------------------- staged API

TEST(StagedEngine, ComposedStagesMatchRunBitwise) {
  Rig rig;
  serve::InferenceEngine engine(rig.model, rig.engine_config());
  const std::vector<img::Image> images = rig.images(3);

  serve::InferenceResult run_result = engine.run(images);

  // Hand-composed pipeline: patch -> prepare -> forward -> decode.
  std::vector<core::PatchSequence> seqs;
  for (const img::Image& im : images) seqs.push_back(engine.patch(im));
  core::TokenBatch batch = serve::InferenceEngine::prepare(seqs);
  Tensor logits = engine.forward(batch);
  std::vector<img::Image> masks = engine.decode(logits);

  ASSERT_EQ(logits.shape(), run_result.logits.shape());
  for (std::int64_t i = 0; i < logits.numel(); ++i)
    ASSERT_EQ(logits[i], run_result.logits[i]) << "at " << i;
  ASSERT_EQ(masks.size(), run_result.masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i)
    for (std::size_t p = 0; p < masks[i].data.size(); ++p)
      ASSERT_EQ(masks[i].data[p], run_result.masks[i].data[p]);
}

// The scheduler's foundation: an image's logits do not depend on how far
// its sequence was padded. Bucketed batches pad to the bucket, the serial
// path pads to the global max — both must produce identical bits.
TEST(StagedEngine, LogitsIndependentOfPaddedLength) {
  Rig rig;
  serve::InferenceEngine engine(rig.model, rig.engine_config());
  const img::Image image = rig.images(1)[0];
  core::PatchSequence seq = engine.patch(image);
  const std::int64_t natural = seq.length();

  Tensor tight = engine.forward(serve::InferenceEngine::prepare({seq}));
  Tensor padded = engine.forward(
      serve::InferenceEngine::prepare({seq}, natural + 37));
  ASSERT_EQ(tight.shape(), padded.shape());
  for (std::int64_t i = 0; i < tight.numel(); ++i)
    ASSERT_EQ(tight[i], padded[i]) << "padding leaked into logits at " << i;
}

TEST(StagedEngine, PatchIsUnpaddedAndPrepareNeverDrops) {
  Rig rig;
  // Budget far above the natural length: patch() must NOT pad up to it.
  serve::InferenceEngine engine(rig.model, rig.engine_config(/*seq_len=*/512));
  core::PatchSequence seq = engine.patch(rig.images(1)[0]);
  EXPECT_EQ(seq.length(), seq.num_valid()) << "patch() must not pad";
  EXPECT_LT(seq.length(), 512);

  // prepare() refuses to drop tokens (that belongs to the patch stage).
  EXPECT_THROW(serve::InferenceEngine::prepare({seq}, seq.length() - 1),
               detail::CheckError);
}

TEST(StagedEngine, ValidatesImageGeometryWithIndexAndShape) {
  Rig rig;
  serve::InferenceEngine engine(rig.model, rig.engine_config());
  std::vector<img::Image> images = rig.images(2);
  images.push_back(img::Image(Rig::kZ, Rig::kZ / 2, 3));  // not square

  try {
    engine.run(images);
    FAIL() << "expected CheckError for the non-square image";
  } catch (const detail::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("image 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("32x16x3"), std::string::npos) << msg;
  }

  // Square but the wrong resolution for the model.
  try {
    engine.run({img::Image(2 * Rig::kZ, 2 * Rig::kZ, 3)});
    FAIL() << "expected CheckError for the mis-sized image";
  } catch (const detail::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("64x64x3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("built for 32x32"), std::string::npos) << msg;
  }

  // Wrong channel count against the model's token dimension.
  try {
    engine.run({img::Image(Rig::kZ, Rig::kZ, 1)});
    FAIL() << "expected CheckError for the grayscale image";
  } catch (const detail::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 channel"), std::string::npos) << msg;
  }
}

// --------------------------------------------------------------- server

TEST(Server, SubmitDeliversSerialResultsAndStats) {
  Rig rig;
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 2;
  scfg.batch_deadline_ms = 1.0;
  scfg.bucket_granularity = 16;
  const std::vector<img::Image> images = rig.images(6);

  serve::InferenceEngine serial(rig.model, rig.engine_config());
  std::vector<serve::InferenceResult> want;
  for (const img::Image& im : images) want.push_back(serial.run({im}));

  serve::Server server(rig.model, scfg);
  std::vector<std::future<serve::InferenceResult>> futures =
      server.submit_many(images);
  ASSERT_EQ(futures.size(), images.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::InferenceResult got = futures[i].get();
    ASSERT_EQ(got.logits.shape(), want[i].logits.shape());
    for (std::int64_t j = 0; j < got.logits.numel(); ++j)
      ASSERT_EQ(got.logits[j], want[i].logits[j]) << "image " << i;
    ASSERT_EQ(got.masks.size(), 1u);
    for (std::size_t p = 0; p < got.masks[0].data.size(); ++p)
      ASSERT_EQ(got.masks[0].data[p], want[i].masks[0].data[p]);
    // Per-request stats.
    EXPECT_EQ(got.stats.images, 1);
    EXPECT_GE(got.stats.batch_size, 1);
    EXPECT_LE(got.stats.batch_size, scfg.engine.max_batch);
    EXPECT_EQ(got.stats.tokens, want[i].stats.tokens);
    EXPECT_GE(got.stats.queue_seconds, 0.0);
    EXPECT_FALSE(got.stats.gemm_backend.empty());
  }
  server.shutdown();
  // Aggregate stats cover every image exactly once.
  serve::InferenceStats agg = server.stats();
  EXPECT_EQ(agg.images, static_cast<std::int64_t>(images.size()));
  EXPECT_GE(agg.batches, 1);
  EXPECT_LE(agg.batches, static_cast<std::int64_t>(images.size()));
  EXPECT_GT(agg.tokens, 0);
  EXPECT_GT(agg.model_flops, 0.0);
}

TEST(Server, ModelModeParkedInEvalAndRestored) {
  Rig rig;
  rig.model.set_training(true);
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 1;
  {
    serve::Server server(rig.model, scfg);
    EXPECT_FALSE(rig.model.training()) << "server must park the model in eval";
    server.submit(rig.images(1)[0]).get();
  }
  EXPECT_TRUE(rig.model.training()) << "shutdown must restore training mode";
}

TEST(Server, ShutdownDrainsPendingRequests) {
  Rig rig;
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 1;
  scfg.engine.max_batch = 2;
  // A deadline far beyond the test: without drain-on-close, part-full
  // buckets would sit forever and these futures would never resolve.
  scfg.batch_deadline_ms = 60e3;
  scfg.bucket_granularity = 1;  // exact lengths -> likely part-full buckets

  serve::Server server(rig.model, scfg);
  std::vector<std::future<serve::InferenceResult>> futures =
      server.submit_many(rig.images(5));
  server.shutdown();  // must flush every accepted request
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::InferenceResult res = futures[i].get();  // throws if abandoned
    EXPECT_EQ(res.stats.images, 1) << "request " << i;
    EXPECT_EQ(res.masks.size(), 1u);
  }
  // Submitting after shutdown fails loudly.
  EXPECT_THROW(server.submit(rig.images(1)[0]), detail::CheckError);
}

TEST(Server, RejectsBadGeometryAtSubmitTime) {
  Rig rig;
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 1;
  serve::Server server(rig.model, scfg);
  EXPECT_THROW(server.submit(img::Image(Rig::kZ, Rig::kZ / 2, 3)),
               detail::CheckError);
  // submit_many validates everything before queueing anything.
  std::vector<img::Image> mixed = rig.images(2);
  mixed.push_back(img::Image(64, 64, 3));
  const std::int64_t before = server.stats().images;
  try {
    server.submit_many(mixed);
    FAIL() << "expected CheckError naming index 2";
  } catch (const detail::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("image 2"), std::string::npos)
        << e.what();
  }
  server.shutdown();
  EXPECT_EQ(server.stats().images, before)
      << "a rejected submit_many must not enqueue a partial batch";
}

// Image keeps its geometry and its pixel buffer apart, and Image::at only
// bounds-checks in debug builds, so a buffer shorter than h * w * c would
// be read past its end, and NaN / Inf pixels would reach the model. Each
// entry point rejects both, and the server keeps serving afterwards.
TEST(Server, RejectsShortBuffersAndNonFinitePixels) {
  Rig rig;
  const std::vector<img::Image> good = rig.images(1);
  std::vector<img::Image> bad(5, good[0]);
  bad[0].data.resize(3);                 // 32x32x3 header, 3 floats
  bad[1].data.push_back(0.5f);           // one value too many
  bad[2].data.clear();                   // header without a buffer
  bad[3].data[17] = std::nanf("");
  bad[4].data.back() = -std::numeric_limits<float>::infinity();

  serve::InferenceEngine engine(rig.model, rig.engine_config());
  for (std::size_t i = 0; i < bad.size(); ++i)
    EXPECT_THROW(engine.run({bad[i]}), detail::CheckError) << "case " << i;
  const Tensor want = engine.run(good).logits;

  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 1;
  serve::Server server(rig.model, scfg);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(server.submit(bad[i]), detail::CheckError) << "case " << i;
    EXPECT_THROW(server.submit_many({good[0], bad[i]}), detail::CheckError)
        << "case " << i;
  }
  try {
    server.submit_many({good[0], bad[3]});
    FAIL() << "expected CheckError naming image 1";
  } catch (const detail::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("image 1 has a non-finite pixel"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.stats().images, 0)
      << "rejected requests must not reach a batch";

  const serve::InferenceResult got = server.submit(good[0]).get();
  ASSERT_EQ(got.logits.shape(), want.shape());
  for (std::int64_t j = 0; j < got.logits.numel(); ++j)
    ASSERT_EQ(got.logits[j], want[j]) << "at " << j;
  server.shutdown();
}

TEST(Server, ConfigValidation) {
  Rig rig;
  serve::ServerConfig bad;
  bad.engine = rig.engine_config();
  bad.num_workers = 0;
  EXPECT_THROW(serve::Server(rig.model, bad), detail::CheckError);
  bad = serve::ServerConfig{};
  bad.engine = rig.engine_config();
  bad.max_queue = 0;
  EXPECT_THROW(serve::Server(rig.model, bad), detail::CheckError);
  bad = serve::ServerConfig{};
  bad.engine = rig.engine_config();
  bad.bucket_granularity = 0;
  EXPECT_THROW(serve::Server(rig.model, bad), detail::CheckError);
  bad = serve::ServerConfig{};
  bad.engine = rig.engine_config();
  bad.batch_deadline_ms = -1.0;
  EXPECT_THROW(serve::Server(rig.model, bad), detail::CheckError);
  // NaN, or a deadline the clock cannot add to a time point: the latter
  // would overflow the worker's timed wait (spinning it and hanging
  // shutdown()).
  for (const double ms : {std::numeric_limits<double>::infinity(), 1e300,
                          std::numeric_limits<double>::quiet_NaN()}) {
    bad = serve::ServerConfig{};
    bad.engine = rig.engine_config();
    bad.batch_deadline_ms = ms;
    EXPECT_THROW(serve::Server(rig.model, bad), detail::CheckError) << ms;
  }
  bad = serve::ServerConfig{};
  bad.engine = rig.engine_config();
  bad.engine.max_batch = 0;  // engine config validated through the server
  EXPECT_THROW(serve::Server(rig.model, bad), detail::CheckError);
}

// Scheduler observability surfaced through Server::stats(): queue depth
// at admission, steal/task counters, and the effective batch size
// distribution must be consistent with the work actually done.
TEST(Server, StatsExposeSchedulerObservability) {
  struct ThreadCountGuard {
    ~ThreadCountGuard() { set_num_threads(0); }
  } restore_threads;
  set_num_threads(4);  // width > 1 so forward tasks reach the scheduler
  Rig rig;
  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.num_workers = 2;
  scfg.batch_deadline_ms = 1.0;
  scfg.bucket_granularity = 16;
  const std::vector<img::Image> images = rig.images(8);

  serve::Server server(rig.model, scfg);
  std::vector<std::future<serve::InferenceResult>> futures =
      server.submit_many(images);
  for (auto& f : futures) {
    const serve::InferenceResult r = f.get();
    EXPECT_GE(r.stats.queue_depth, 0);
    EXPECT_LT(r.stats.queue_depth, scfg.max_queue);
  }
  server.shutdown();

  const serve::InferenceStats agg = server.stats();
  EXPECT_EQ(agg.images, 8);
  EXPECT_GE(agg.queue_depth, 0);
  // Every batch ran inside SOME kForward task on the scheduler, and each
  // forward runs gemm panels (kPanel) inside it. Tasks and batches need
  // not match one-to-one in either direction: a task drains as many
  // consecutive batches as the queue can hand it (run-to-completion), and
  // a task whose pop lost the race to a peer processes none.
  EXPECT_GT(agg.forward_tasks, 0u);
  EXPECT_GT(agg.panel_tasks, 0u);
  // The batch size histogram accounts for every batch and every image.
  std::int64_t hist_batches = 0, hist_images = 0;
  for (const auto& [size, count] : agg.batch_size_counts) {
    EXPECT_GE(size, 1);
    EXPECT_LE(size, scfg.engine.max_batch);
    hist_batches += count;
    hist_images += size * count;
  }
  EXPECT_EQ(hist_batches, agg.batches);
  EXPECT_EQ(hist_images, agg.images);
}

// N concurrent clients, interleaved arrival order, small queue (so
// backpressure engages), multiple workers: every result must be bitwise
// identical to the serial single-image run.
TEST(Server, ConcurrentClientsStressBitwiseEqualsSerial) {
  Rig rig;
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  const std::vector<img::Image> images = rig.images(kClients * kPerClient);

  serve::InferenceEngine serial(rig.model, rig.engine_config());
  std::vector<Tensor> want;
  for (const img::Image& im : images)
    want.push_back(serial.run({im}).logits);

  serve::ServerConfig scfg;
  scfg.engine = rig.engine_config();
  scfg.engine.max_batch = 3;
  scfg.num_workers = 3;
  scfg.max_queue = 5;  // forces backpressure under 24 in-flight requests
  scfg.batch_deadline_ms = 0.5;
  scfg.bucket_granularity = 8;
  serve::Server server(rig.model, scfg);

  std::vector<std::future<serve::InferenceResult>> futures(images.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(i * kClients + c);  // interleaved
        futures[idx] = server.submit(images[idx]);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::InferenceResult got = futures[i].get();
    ASSERT_EQ(got.logits.shape(), want[i].shape()) << "image " << i;
    for (std::int64_t j = 0; j < got.logits.numel(); ++j)
      ASSERT_EQ(got.logits[j], want[i][j])
          << "image " << i << " diverged from the serial path at " << j;
  }
  server.shutdown();
  serve::InferenceStats agg = server.stats();
  EXPECT_EQ(agg.images, static_cast<std::int64_t>(images.size()));
}

// The PR 5/6 acceptance pin: with the unified work-stealing scheduler
// engaged (thread counts > 1, forward passes and gemm panels in one
// pool), engine and server outputs are bit-for-bit equal to the
// single-threaded serial path at every worker count — stealing only moves
// a task between threads, never what it computes. Width 1 is the
// regime where the execution gate serializes the workers' forwards on one
// thread; there every server must still answer every request with the
// serial bits. Server-vs-serial speed is bench_diff.py's claim
// (--min-speedup), not a ctest timing assertion.
TEST(Server, ThreadedEngineAndServerBitwiseEqualSingleThreadSerial) {
  // RAII so an ASSERT failure cannot leave the global width pinned for
  // the rest of the process.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { set_num_threads(0); }
  } restore_threads;
  Rig rig;
  const std::vector<img::Image> images = rig.images(12);

  set_num_threads(1);
  serve::InferenceEngine serial(rig.model, rig.engine_config());
  const serve::InferenceResult want = serial.run(images);

  for (const int threads : {1, 2, 7}) {
    set_num_threads(threads);

    serve::InferenceEngine engine(rig.model, rig.engine_config());
    serve::InferenceResult got = engine.run(images);
    ASSERT_EQ(got.logits.shape(), want.logits.shape());
    for (std::int64_t j = 0; j < got.logits.numel(); ++j)
      ASSERT_EQ(got.logits[j], want.logits[j])
          << "serial engine diverged at " << j << " with " << threads
          << " threads";

    for (const int workers : {1, 2, 4}) {
      serve::ServerConfig scfg;
      scfg.engine = rig.engine_config();
      scfg.num_workers = workers;
      scfg.batch_deadline_ms = 0.5;
      scfg.bucket_granularity = 8;
      serve::Server server(rig.model, scfg);
      std::vector<std::future<serve::InferenceResult>> futures =
          server.submit_many(images);
      for (std::size_t i = 0; i < futures.size(); ++i) {
        serve::InferenceResult r = futures[i].get();
        const std::int64_t per = want.logits.numel() /
                                 static_cast<std::int64_t>(images.size());
        for (std::int64_t j = 0; j < r.logits.numel(); ++j)
          ASSERT_EQ(r.logits[j],
                    want.logits[static_cast<std::int64_t>(i) * per + j])
              << "server image " << i << " diverged at " << j << " with "
              << threads << " threads / " << workers << " workers";
      }
    }
  }
}

}  // namespace
}  // namespace apf
