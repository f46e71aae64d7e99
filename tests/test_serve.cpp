// Serving subsystem tests: batched-forward bit-identity, seq-length
// bucketing, max-wait flush, deadline admission, response-to-request
// ordering under concurrent submitters, and shutdown (drain and abort).
#include <gtest/gtest.h>

#include <thread>

#include "pipeline/pipeline.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"
#include "test_util.h"

namespace fqbert::serve {
namespace {

using core::FqBertModel;
using core::FqQuantConfig;
using core::QatBert;
using nn::BertConfig;
using nn::BertModel;
using nn::Example;

BertConfig tiny_config() {
  BertConfig c;
  c.vocab_size = 128;
  c.hidden = 16;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 32;
  c.max_seq_len = 32;
  c.num_classes = 2;
  return c;
}

/// A functional engine without any training: random weights, calibrated
/// observers (accuracy is irrelevant to the serving machinery, the
/// integer pipeline is fully exercised).
struct EngineFixture {
  BertConfig config = tiny_config();
  std::shared_ptr<const FqBertModel> engine;

  EngineFixture() {
    Rng rng(42);
    BertModel model(config, rng);
    QatBert qat(model, FqQuantConfig::full());
    std::vector<Example> calib;
    Rng data_rng(7);
    for (int i = 0; i < 12; ++i)
      calib.push_back(
          synth_example(data_rng, 4 + (i % 3) * 6, config));
    qat.calibrate(calib);
    engine = std::make_shared<const FqBertModel>(FqBertModel::convert(qat));
  }
};

EngineFixture& fixture() {
  static EngineFixture f;
  return f;
}

ServeRequest make_request(uint64_t id, int64_t seq_len,
                          std::optional<Micros> budget = std::nullopt) {
  Rng rng(id * 131 + 7);
  ServeRequest req;
  req.id = id;
  req.example = synth_example(rng, seq_len, fixture().config);
  req.enqueue_time = Clock::now();
  if (budget) req.deadline = req.enqueue_time + *budget;
  return req;
}

// ---------------------------------------------------------------------------
// Batched forward
// ---------------------------------------------------------------------------

TEST(ForwardBatch, BitIdenticalToSingleForwardAcrossMixedLengths) {
  const FqBertModel& engine = *fixture().engine;
  Rng rng(3);
  std::vector<Example> batch;
  for (const int64_t len : {5, 12, 3, 32, 12, 7, 19, 12})
    batch.push_back(synth_example(rng, len, fixture().config));

  const std::vector<Tensor> batched = engine.forward_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tensor single = engine.forward(batch[i]);
    ASSERT_EQ(single.numel(), batched[i].numel());
    for (int64_t c = 0; c < single.numel(); ++c)
      EXPECT_EQ(single[c], batched[i][c])
          << "example " << i << " logit " << c;
  }
}

TEST(ForwardBatch, RepeatedCallsReuseScratchConsistently) {
  const FqBertModel& engine = *fixture().engine;
  Rng rng(4);
  // Shrinking then growing batches exercise the grow-only scratch.
  for (const size_t n : {6u, 1u, 8u, 2u}) {
    std::vector<Example> batch;
    for (size_t i = 0; i < n; ++i)
      batch.push_back(synth_example(rng, 4 + 3 * static_cast<int64_t>(i),
                                    fixture().config));
    const std::vector<Tensor> batched = engine.forward_batch(batch);
    for (size_t i = 0; i < n; ++i) {
      const Tensor single = engine.forward(batch[i]);
      for (int64_t c = 0; c < single.numel(); ++c)
        EXPECT_EQ(single[c], batched[i][c]);
    }
  }
}

// ---------------------------------------------------------------------------
// Request queue admission
// ---------------------------------------------------------------------------

TEST(RequestQueue, RejectsExpiredDeadlineAtAdmission) {
  RequestQueue queue(RequestQueueConfig{4});
  ServeRequest dead = make_request(1, 8, Micros(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(queue.submit(std::move(dead)), AdmitResult::kDeadlineExpired);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, RejectsWhenFullAndAfterClose) {
  RequestQueue queue(RequestQueueConfig{2});
  EXPECT_EQ(queue.submit(make_request(1, 8)), AdmitResult::kOk);
  EXPECT_EQ(queue.submit(make_request(2, 8)), AdmitResult::kOk);
  EXPECT_EQ(queue.submit(make_request(3, 8)), AdmitResult::kQueueFull);
  queue.close();
  EXPECT_EQ(queue.submit(make_request(4, 8)), AdmitResult::kClosed);
  // Pending requests stay drainable after close.
  std::vector<ServeRequest> drained;
  queue.drain_into(drained);
  EXPECT_EQ(drained.size(), 2u);
}

// ---------------------------------------------------------------------------
// Dynamic batcher
// ---------------------------------------------------------------------------

TEST(DynamicBatcher, BucketsBySequenceLength) {
  RequestQueue queue(RequestQueueConfig{64});
  BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait = Micros(3600L * 1000 * 1000);  // flush only on max-batch
  cfg.bucket_granularity = 8;
  DynamicBatcher batcher(queue, cfg);

  EXPECT_EQ(batcher.bucket_of(1), 8);
  EXPECT_EQ(batcher.bucket_of(8), 8);
  EXPECT_EQ(batcher.bucket_of(9), 16);

  // Interleave two length classes; each must flush as a homogeneous
  // full batch.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(queue.submit(make_request(10 + i, 6)), AdmitResult::kOk);
    ASSERT_EQ(queue.submit(make_request(20 + i, 14)), AdmitResult::kOk);
  }
  for (int b = 0; b < 2; ++b) {
    std::vector<ServeRequest> batch;
    ASSERT_TRUE(batcher.next_batch(batch));
    ASSERT_EQ(batch.size(), 4u);
    const int64_t bucket = batcher.bucket_of(batch[0].seq_len());
    for (const ServeRequest& req : batch)
      EXPECT_EQ(batcher.bucket_of(req.seq_len()), bucket);
  }
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(DynamicBatcher, MaxWaitFlushesPartialBatch) {
  RequestQueue queue(RequestQueueConfig{64});
  BatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = Micros(15 * 1000);
  DynamicBatcher batcher(queue, cfg);

  ASSERT_EQ(queue.submit(make_request(1, 8)), AdmitResult::kOk);
  ASSERT_EQ(queue.submit(make_request(2, 8)), AdmitResult::kOk);

  const TimePoint t0 = Clock::now();
  std::vector<ServeRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  const double waited_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  EXPECT_EQ(batch.size(), 2u);  // flushed without reaching max_batch
  EXPECT_GE(waited_ms, 5.0);    // ...but only after (most of) max_wait
  EXPECT_LE(waited_ms, 5000.0);
}

TEST(DynamicBatcher, DropsExpiredRequestsWithTimeoutStatus) {
  RequestQueue queue(RequestQueueConfig{64});
  BatcherConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait = Micros(1000);
  ServeStats stats;
  DynamicBatcher batcher(queue, cfg, &stats);

  ServeRequest doomed = make_request(1, 8, Micros(2000));
  std::future<ServeResponse> fut = doomed.promise.get_future();
  ASSERT_EQ(queue.submit(std::move(doomed)), AdmitResult::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(queue.submit(make_request(2, 8)), AdmitResult::kOk);

  std::vector<ServeRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 2u);
  const ServeResponse resp = fut.get();
  EXPECT_EQ(resp.status, RequestStatus::kTimedOut);
  EXPECT_EQ(stats.report().timed_out, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end serving: a single-model server is a one-lane router.
// ---------------------------------------------------------------------------

/// The lane's stats; every test below serves the one lane "tiny" (a
/// missing lane throws, failing the test).
ServeStats::Report lane_report(const ModelRouter& router) {
  return router.stats_report("tiny").value();
}

TEST(OneLaneRouter, ResponsesMatchRequestsUnderConcurrentSubmitters) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);

  RouterConfig cfg;
  cfg.num_workers = 2;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Micros(500);
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  constexpr int kClients = 4, kPerClient = 25;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (int i = 0; i < kPerClient; ++i) {
        Example ex =
            synth_example(rng, 3 + rng.randint(0, 20), fixture().config);
        auto fut = router.submit("", ex);
        const ServeResponse resp = fut.get();
        if (resp.status != RequestStatus::kOk) {
          ++mismatches[c];
          continue;
        }
        // The response must carry *this* request's logits, bit-exact.
        const Tensor expect = fixture().engine->forward(ex);
        for (int64_t j = 0; j < expect.numel(); ++j)
          if (expect[j] != resp.logits[static_cast<size_t>(j)])
            ++mismatches[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  router.shutdown(/*drain=*/true);

  for (int c = 0; c < kClients; ++c) EXPECT_EQ(mismatches[c], 0);
  const ServeStats::Report report = lane_report(router);
  EXPECT_EQ(report.admitted, kClients * kPerClient);
  EXPECT_EQ(report.completed, kClients * kPerClient);
  EXPECT_GE(report.batches, 1u);
}

TEST(OneLaneRouter, GracefulShutdownDrainsQueue) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);

  RouterConfig cfg;
  cfg.num_workers = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Micros(50 * 1000);  // keep requests queued
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(5);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(
        router.submit("", synth_example(rng, 8, fixture().config)));

  router.shutdown(/*drain=*/true);  // must complete all 10, not fail them
  int ok = 0;
  for (auto& fut : futures) ok += fut.get().status == RequestStatus::kOk;
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(lane_report(router).completed, 10u);

  // Post-shutdown submissions are rejected with kShutdown.
  auto late = router.submit("", synth_example(rng, 8, fixture().config));
  EXPECT_EQ(late.get().status, RequestStatus::kShutdown);
}

TEST(OneLaneRouter, AbortShutdownFailsPendingRequests) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);

  RouterConfig cfg;
  cfg.num_workers = 1;
  cfg.batcher.max_batch = 64;
  cfg.batcher.max_wait = Micros(3600L * 1000 * 1000);  // never flush
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(6);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(
        router.submit("", synth_example(rng, 8, fixture().config)));

  router.shutdown(/*drain=*/false);
  for (auto& fut : futures)
    EXPECT_EQ(fut.get().status, RequestStatus::kShutdown);
}

TEST(OneLaneRouter, RejectsMalformedExamplesAtAdmission) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  ModelRouter router(registry);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(11);
  const BertConfig& cfg = fixture().config;
  Example too_long = synth_example(rng, cfg.max_seq_len, cfg);
  too_long.tokens.push_back(1);
  too_long.segments.push_back(0);
  Example bad_token = synth_example(rng, 8, cfg);
  bad_token.tokens[3] = static_cast<int32_t>(cfg.vocab_size);
  Example ragged_segments = synth_example(rng, 8, cfg);
  ragged_segments.segments.pop_back();
  Example empty;

  for (Example* ex : {&too_long, &bad_token, &ragged_segments, &empty}) {
    AdmitResult admit;
    auto fut = router.submit("", *ex, std::nullopt, &admit);
    EXPECT_EQ(admit, AdmitResult::kInvalidExample);
    EXPECT_EQ(fut.get().status, RequestStatus::kRejectedInvalid);
  }
  // A well-formed example still sails through on the same server.
  auto ok = router.submit("", synth_example(rng, 8, cfg));
  EXPECT_EQ(ok.get().status, RequestStatus::kOk);
  router.shutdown();
  // The rejections are visible server-side, not only in client counts.
  EXPECT_EQ(lane_report(router).rejected_invalid, 4u);
  // Post-shutdown submissions land in the closed counter.
  auto late = router.submit("", synth_example(rng, 8, cfg));
  EXPECT_EQ(late.get().status, RequestStatus::kShutdown);
  EXPECT_EQ(lane_report(router).rejected_closed, 1u);
}

TEST(OneLaneRouter, ZeroWorkerConfigStillServes) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  RouterConfig cfg;
  cfg.num_workers = 0;  // clamped to 1: futures must never hang
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());
  EXPECT_EQ(router.num_workers(), 1u);
  Rng rng(17);
  auto fut = router.submit("", synth_example(rng, 8, fixture().config));
  EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  router.shutdown();
}

TEST(OneLaneRouter, DeadlineRejectionAndStatsCounters) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  ModelRouter router(registry);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(8);
  AdmitResult admit;
  auto fut = router.submit("", synth_example(rng, 8, fixture().config),
                           Micros(-1000), &admit);
  EXPECT_EQ(admit, AdmitResult::kDeadlineExpired);
  EXPECT_EQ(fut.get().status, RequestStatus::kRejectedDeadline);
  router.shutdown();
  EXPECT_EQ(lane_report(router).rejected_deadline, 1u);
}

// ---------------------------------------------------------------------------
// Engine registry
// ---------------------------------------------------------------------------

TEST(EngineRegistry, InMemoryEntriesShareOneInstance) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  EXPECT_TRUE(registry.contains("tiny"));
  EXPECT_EQ(registry.get("tiny").get(), fixture().engine.get());
  EXPECT_EQ(registry.source_path("tiny"), "");
  EXPECT_EQ(registry.get("missing"), nullptr);
}

TEST(EngineRegistry, FileBackedEntriesShareOneLoadedInstance) {
  const std::string path = ::testing::TempDir() + "fq_serve_registry.bin";
  ASSERT_TRUE(fixture().engine->save(path));

  EngineRegistry registry;
  ASSERT_TRUE(registry.register_file("disk", path));
  auto r1 = registry.get("disk");
  auto r2 = registry.get("disk");
  ASSERT_NE(r1, nullptr);
  // One load, one weight store, shared by every consumer.
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(registry.source_path("disk"), path);

  // The shared instance serves bit-identical logits to the original.
  Rng rng(9);
  const Example ex = synth_example(rng, 10, fixture().config);
  const Tensor a = fixture().engine->forward(ex);
  const Tensor b = r1->forward(ex);
  for (int64_t j = 0; j < a.numel(); ++j) EXPECT_EQ(a[j], b[j]);

  EXPECT_FALSE(registry.register_file("bad", path + ".nope"));
}

TEST(OneLaneRouter, WorkersShareOneEngineInstance) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);
  const long before = fixture().engine.use_count();

  RouterConfig cfg;
  cfg.num_workers = 4;
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());
  EXPECT_EQ(router.num_workers(), 4u);
  // Registry entry + the lane's single shared handle: starting 4
  // workers must not create 4 engine copies.
  EXPECT_EQ(fixture().engine.use_count(), before + 1);

  Rng rng(21);
  auto fut = router.submit("", synth_example(rng, 8, fixture().config));
  EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  router.shutdown(/*drain=*/true);
}

// ---------------------------------------------------------------------------
// Stats: bounded memory and terminal-state accounting
// ---------------------------------------------------------------------------

TEST(ServeStats, SketchBoundsMemoryOverLongRunsWithLifetimeQuantiles) {
  ServeStats stats;
  // A >=100k-request run: counters stay exact, and the sketch holds a
  // bounded number of buckets while covering EVERY sample (no window).
  constexpr uint64_t kRequests = 200000;
  for (uint64_t i = 0; i < kRequests; ++i) {
    stats.record_admitted();
    stats.record_response(static_cast<int64_t>(1000 + i), 10);
  }
  const ServeStats::Report r = stats.report();
  EXPECT_EQ(r.admitted, kRequests);
  EXPECT_EQ(r.completed, kRequests);
  EXPECT_EQ(r.latency_samples, kRequests);  // lifetime, not a window
  EXPECT_TRUE(r.accounting_balances());
  // Bounded memory: 1ms..201ms spans a few hundred log-buckets at 1%
  // relative error, regardless of sample count.
  EXPECT_LE(r.latency_sketch.buckets().size(), 1024u);
  // Quantiles describe the whole run within the sketch's relative
  // error: true p50 of 1000..200999 us is ~101000 us.
  EXPECT_NEAR(r.p50_ms, 101.0, 101.0 * 3.0 * QuantileSketch::kDefaultAlpha);
  EXPECT_GE(r.p99_ms, r.p95_ms);
  EXPECT_GE(r.max_ms, r.p999_ms);
  EXPECT_DOUBLE_EQ(r.max_ms, (1000.0 + kRequests - 1) / 1000.0);  // exact
}

TEST(ServeStats, ResetClearsSketchAndCounters) {
  ServeStats stats;
  for (int i = 0; i < 10; ++i) stats.record_response(100, 1);
  stats.record_failure();
  stats.reset();
  const ServeStats::Report r = stats.report();
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.latency_samples, 0u);
  EXPECT_EQ(r.p99_ms, 0.0);
}

TEST(OneLaneRouter, ShutdownAccountingBalancesExactly) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);

  RouterConfig cfg;
  cfg.num_workers = 1;
  cfg.batcher.max_batch = 64;
  cfg.batcher.max_wait = Micros(3600L * 1000 * 1000);  // never flush
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(13);
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 7; ++i)
    futures.push_back(
        router.submit("", synth_example(rng, 8, fixture().config)));
  router.shutdown(/*drain=*/false);
  for (auto& fut : futures)
    EXPECT_EQ(fut.get().status, RequestStatus::kShutdown);

  const ServeStats::Report r = lane_report(router);
  EXPECT_EQ(r.admitted, 7u);
  EXPECT_EQ(r.failed, 7u);
  EXPECT_EQ(r.completed + r.timed_out + r.failed, r.admitted)
      << "admitted requests must all reach exactly one terminal state";
  EXPECT_TRUE(r.accounting_balances());
}

TEST(OneLaneRouter, LoadgenAccountingBalancesWithTimeouts) {
  EngineRegistry registry;
  registry.register_model("tiny", fixture().engine);

  RouterConfig cfg;
  cfg.num_workers = 2;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait = Micros(500);
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  LoadgenConfig lcfg;
  lcfg.num_clients = 4;
  lcfg.requests_per_client = 50;
  // Tight deadline: some requests expire in queue, exercising the
  // timed-out terminal path alongside completions.
  lcfg.deadline_budget = Micros(1500);
  const LoadgenReport lg = run_loadgen(router, "tiny", lcfg);
  router.shutdown(/*drain=*/true);

  const ServeStats::Report r = lane_report(router);
  EXPECT_EQ(lg.sent, 200u);
  EXPECT_TRUE(r.accounting_balances())
      << "admitted " << r.admitted << " != completed " << r.completed
      << " + timed_out " << r.timed_out << " + failed " << r.failed;
  // Client-side and server-side views agree.
  EXPECT_EQ(r.completed, lg.ok);
  EXPECT_EQ(r.timed_out, lg.timed_out);
  EXPECT_EQ(r.failed, lg.failed);
}

}  // namespace
}  // namespace fqbert::serve
