// Allocation budget of the serving hot path. This binary replaces the
// global operator new with a counting one (hence its own executable),
// warms every per-thread scratch buffer up, then pins how many heap
// allocations one forward_batch call and one ModelRouter::submit().get()
// round trip make in steady state.
//
// forward_batch's encoder runs entirely in the per-thread FqBatchScratch
// (activations, ragged-batch layout, the embedding row), so what is left
// is the returned logits vector plus the float head's tensors per
// example. The router path adds the request's promise, the response's
// logits copy, and the worker's lane snapshot and batch bookkeeping.
// A change that makes either count grow fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/qat.h"
#include "serve/loadgen.h"
#include "serve/router/model_router.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fqbert::serve {
namespace {

using core::FqBertModel;
using nn::Example;

// Steady-state allocations, measured with GCC 12's libstdc++.
// forward_batch: 1 returned vector + 12 per example, all in the float
// head (its cls, pooled and logits tensors). Router: four round trips
// of one request each cost 4 x 23 (the batch-of-one forward_batch plus
// admission, response and worker bookkeeping) + 1 deque block.
constexpr uint64_t kForwardBatchFixed = 1;
constexpr uint64_t kForwardBatchPerExample = 12;
constexpr uint64_t kRouterFourRoundTrips = 93;

std::shared_ptr<const FqBertModel> tiny_engine() {
  nn::BertConfig c;
  c.vocab_size = 128;
  c.hidden = 32;
  c.num_layers = 2;
  c.num_heads = 2;
  c.ffn_dim = 64;
  c.max_seq_len = 64;
  c.num_classes = 2;
  Rng rng(42);
  nn::BertModel model(c, rng);
  core::QatBert qat(model, core::FqQuantConfig::full());
  std::vector<Example> calib;
  Rng data_rng(7);
  for (int i = 0; i < 8; ++i)
    calib.push_back(synth_example(data_rng, 8 + 4 * i, c));
  qat.calibrate(calib);
  return std::make_shared<const FqBertModel>(FqBertModel::convert(qat));
}

uint64_t allocs_during(const std::function<void()>& fn) {
  const uint64_t before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

TEST(AllocBudget, ForwardBatchAllocatesOnlyItsLogits) {
  const auto engine = tiny_engine();
  Rng rng(3);
  std::vector<Example> examples;
  for (const int64_t len : {64, 9, 33, 17})
    examples.push_back(synth_example(rng, len, engine->config()));
  // Pointer lists built outside the counted window: only the call's own
  // allocations are measured.
  const std::vector<const Example*> one{&examples[0]};
  std::vector<const Example*> four;
  for (const Example& ex : examples) four.push_back(&ex);

  // Warm-up at the largest shape grows every scratch buffer once.
  (void)engine->forward_batch(four);
  (void)engine->forward_batch(one);

  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(allocs_during([&] { (void)engine->forward_batch(one); }),
              kForwardBatchFixed + kForwardBatchPerExample);
    EXPECT_EQ(allocs_during([&] { (void)engine->forward_batch(four); }),
              kForwardBatchFixed + 4 * kForwardBatchPerExample);
  }
}

TEST(AllocBudget, RouterRoundTripIsPinned) {
  EngineRegistry registry;
  registry.register_model("tiny", tiny_engine());
  RouterConfig cfg;
  cfg.num_workers = 1;
  cfg.batcher.max_wait = Micros(0);  // one wakeup per request
  ModelRouter router(registry, cfg);
  ASSERT_TRUE(router.add_model("tiny"));
  ASSERT_TRUE(router.start());

  Rng rng(5);
  const Example ex = synth_example(rng, 24, registry.get("tiny")->config());
  // Counted in windows of four requests: the admission queue holds four
  // requests per std::deque block, so single requests alternate between
  // two counts while a window of four sees every phase once.
  constexpr int kWindow = 4;
  std::vector<Example> copies(kWindow);
  std::vector<uint64_t> counts;
  for (int w = 0; w < 30; ++w) {
    std::fill(copies.begin(), copies.end(), ex);  // outside the window
    const uint64_t n = allocs_during([&] {
      for (Example& copy : copies) {
        ASSERT_EQ(router.submit("tiny", std::move(copy)).get().status,
                  RequestStatus::kOk);
        // Let the worker finish its post-batch scan and park, so its
        // bookkeeping lands in this window.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    if (w >= 10) counts.push_back(n);  // the first windows warm up
  }
  router.shutdown();
  // Incidental growth only ever adds: a latency landing in a new sketch
  // bucket, a new slow-request exemplar, a timed worker wakeup. The
  // cheapest window is the steady-state cost.
  EXPECT_EQ(*std::min_element(counts.begin(), counts.end()),
            kRouterFourRoundTrips);
}

}  // namespace
}  // namespace fqbert::serve
