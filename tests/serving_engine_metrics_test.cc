// Serving-layer observability and the three hardening fixes it rode in
// with:
//  1. Stats() snapshot ordering — outcome counters are acquire-loaded
//     before submitted_, so `completed + rejected <= submitted` holds in
//     every snapshot even mid-flight (the pre-fix code loaded submitted_
//     first and could report a >100% rejection rate).
//  2. Query retry budget — blocking Query/QueryAll under sustained
//     backpressure surfaces ResourceExhausted after query_retry_budget
//     attempts instead of hot-spinning while foreign traffic holds the
//     queue full.
//  3. queue_ticks_max fetch-max — concurrent Pump/dispatcher batches race
//     their waited values through one atomic; the CAS fetch-max loop
//     (AtomicFetchMax) must report the exact global max. The FakeClock
//     hammer here pins the engine-level behavior; the primitive-level
//     8-thread hammer lives in metrics_registry_test.
// Plus: the live engine's ExportText() parses as valid Prometheus text and
// carries the per-model queue gauges, cache and pool series.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "graph/subgraph_cache.h"
#include "prometheus_text_checker.h"
#include "serving/serving_engine.h"
#include "util/serving_pool.h"

namespace longtail {
namespace {

/// Minimal fitted model: answers every query instantly with empty results.
/// Lets the tests drive the engine's bookkeeping without walk work.
class NullRecommender : public Recommender {
 public:
  std::string name() const override { return "null"; }
  Status Fit(const Dataset& data) override {
    data_ = &data;
    return Status::OK();
  }
  Result<std::vector<ScoredItem>> RecommendTopK(UserId, int) const override {
    return std::vector<ScoredItem>{};
  }
  Result<std::vector<double>> ScoreItems(
      UserId, std::span<const ItemId> items) const override {
    return std::vector<double>(items.size(), 0.0);
  }
};

/// A model whose QueryBatch blocks on a gate: lets a test wedge the
/// dispatcher thread mid-batch so the queue stays full behind it.
class GateRecommender : public NullRecommender {
 public:
  std::string name() const override { return "gate"; }

  std::vector<UserQueryResult> QueryBatch(
      std::span<const UserQuery> queries,
      const BatchOptions&) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    entered_cv_.notify_all();
    open_cv_.wait(lock, [this] { return open_; });
    return std::vector<UserQueryResult>(queries.size());
  }

  void WaitForEntries(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this, n] { return entered_ >= n; });
  }

  /// Opens the gate permanently; every blocked and future batch proceeds.
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable open_cv_;
  mutable int entered_ = 0;
  bool open_ = false;
};

Dataset MakeTinyDataset() {
  SyntheticSpec spec;
  spec.num_users = 20;
  spec.num_items = 15;
  spec.mean_user_degree = 4;
  spec.min_user_degree = 2;
  spec.num_genres = 3;
  spec.seed = 50127;
  auto data = GenerateSyntheticData(spec);
  EXPECT_TRUE(data.ok());
  return std::move(data).value().dataset;
}

// ---------------------------------------------------------------- fix 1

// Hammers Submit from four threads while a reader snapshots Stats() in a
// loop. Every snapshot must be internally consistent: an outcome implies
// its submission. The pre-fix Stats() loaded submitted_ *first*, so any
// submit+reject completing between that load and the outcome loads showed
// up as a rejection without a submission — rejected > submitted, a
// rejection rate over 100%. No sleeps: the unknown-model fast path keeps
// writer iterations short so snapshots land at many interleavings.
TEST(ServingEngineStatsTest, SnapshotInvariantsUnderConcurrentSubmits) {
  ServingEngineOptions options;
  options.start_dispatcher = false;
  ServingEngine engine(options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 30000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine] {
      ServeRequest request;
      request.user = 0;
      request.top_k = 1;
      for (int i = 0; i < kPerWriter; ++i) {
        engine.Submit("ghost", request);
      }
    });
  }
  uint64_t snapshots = 0;
  while (!done.load(std::memory_order_acquire)) {
    const EngineStats stats = engine.Stats();
    const uint64_t outcomes = stats.completed + stats.rejected_queue_full +
                              stats.rejected_expired +
                              stats.rejected_unknown_model +
                              stats.rejected_shutdown +
                              stats.expired_in_queue;
    ASSERT_LE(outcomes, stats.submitted)
        << "snapshot " << snapshots << " shows an outcome without its "
        << "submission";
    ASSERT_LE(stats.completed, stats.dispatched);
    ASSERT_LE(stats.dispatched, stats.submitted);
    ASSERT_LE(engine.Stats().RejectionRate(), 1.0);
    ++snapshots;
    if (snapshots % 512 == 0) std::this_thread::yield();
    if (stats.submitted >=
        static_cast<uint64_t>(kWriters) * kPerWriter) {
      done.store(true, std::memory_order_release);
    }
  }
  for (auto& t : writers) t.join();
  const EngineStats final_stats = engine.Stats();
  EXPECT_EQ(final_stats.submitted,
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(final_stats.rejected_unknown_model, final_stats.submitted);
  EXPECT_DOUBLE_EQ(final_stats.RejectionRate(), 1.0);
}

// Deterministic form of the same regression. The hammer above relies on the
// scheduler preempting the reader between two adjacent loads — on a
// single-core host that almost never happens, so it could pass even on the
// broken code. Here the test hook inside Stats() wedges the reader right
// after its first field load while a writer thread lands a full burst of
// submit+reject pairs, forcing the exact interleaving: pre-fix (submitted_
// loaded first) the snapshot shows 1000 rejections against 1 submission;
// post-fix (submitted_ loaded last) the late submitted_ read covers every
// outcome the snapshot saw.
TEST(ServingEngineStatsTest, SnapshotWedgedMidReadNeverOverCountsOutcomes) {
  ServingEngineOptions options;
  options.start_dispatcher = false;
  ServingEngine engine(options);

  constexpr int kBurst = 1000;
  std::mutex mu;
  std::condition_variable cv;
  bool burst_requested = false;
  bool burst_done = false;
  bool quit = false;
  std::thread writer([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] { return burst_requested || quit; });
      if (quit) return;
      burst_requested = false;
      lock.unlock();
      ServeRequest request;
      request.user = 0;
      request.top_k = 1;
      for (int i = 0; i < kBurst; ++i) engine.Submit("ghost", request);
      lock.lock();
      burst_done = true;
      cv.notify_all();
    }
  });
  engine.set_stats_snapshot_hook_for_test([&] {
    std::unique_lock<std::mutex> lock(mu);
    burst_done = false;
    burst_requested = true;
    cv.notify_all();
    cv.wait(lock, [&] { return burst_done; });
  });

  ServeRequest request;
  request.user = 0;
  request.top_k = 1;
  engine.Submit("ghost", request);

  // The hook fires mid-snapshot: one submission visible before the wedge,
  // kBurst more land while the reader is paused.
  const EngineStats stats = engine.Stats();
  const uint64_t outcomes = stats.completed + stats.rejected_queue_full +
                            stats.rejected_expired +
                            stats.rejected_unknown_model +
                            stats.rejected_shutdown + stats.expired_in_queue;
  EXPECT_LE(outcomes, stats.submitted)
      << "snapshot shows " << outcomes << " outcomes against "
      << stats.submitted << " submissions";
  EXPECT_LE(stats.RejectionRate(), 1.0);

  engine.set_stats_snapshot_hook_for_test(nullptr);
  {
    std::lock_guard<std::mutex> lock(mu);
    quit = true;
  }
  cv.notify_all();
  writer.join();

  const EngineStats final_stats = engine.Stats();
  EXPECT_EQ(final_stats.submitted, static_cast<uint64_t>(kBurst) + 1);
  EXPECT_EQ(final_stats.rejected_unknown_model, final_stats.submitted);
}

// ---------------------------------------------------------------- fix 2

// Wedges the dispatcher inside a batch (GateRecommender), fills the
// 1-deep queue behind it, then issues a blocking Query. Pre-fix this spun
// forever (Submit → queue full → yield → retry, with nothing draining);
// with the budget the caller gets the ResourceExhausted after exactly
// query_retry_budget attempts. The FakeClock never advances, proving the
// backoff's spin bound — not wall-clock time — is what keeps retries
// moving toward the budget.
TEST(ServingEngineBackpressureTest, QueryRetryBudgetSurfacesRejection) {
  const Dataset data = MakeTinyDataset();
  GateRecommender gate;
  ASSERT_TRUE(gate.Fit(data).ok());

  FakeClock clock;
  ServingEngineOptions options;
  options.clock = &clock;
  options.max_batch_size = 1;
  options.max_queue_depth = 1;
  options.batch_threads = 1;
  options.query_retry_budget = 4;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(&gate).ok());

  ServeRequest request;
  request.user = 0;
  request.top_k = 1;

  // r1: taken by the dispatcher, wedged inside QueryBatch at the gate.
  std::future<UserQueryResult> f1 = engine.Submit("gate", request);
  gate.WaitForEntries(1);
  // r2: sits in the queue (depth 1 → now full) behind the wedged batch.
  std::future<UserQueryResult> f2 = engine.Submit("gate", request);
  ASSERT_NE(f2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  // r3: blocking Query against the held-full queue, off-thread so a
  // regression (the pre-fix infinite retry loop) fails the test instead
  // of hanging it.
  std::mutex mu;
  std::condition_variable cv;
  bool query_done = false;
  UserQueryResult r3;
  std::thread caller([&] {
    UserQueryResult result = engine.Query("gate", request);
    std::lock_guard<std::mutex> lock(mu);
    r3 = std::move(result);
    query_done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    const bool returned = cv.wait_for(lock, std::chrono::seconds(20),
                                      [&] { return query_done; });
    EXPECT_TRUE(returned)
        << "Query is still retrying under backpressure: the retry budget "
        << "did not bound the loop";
  }
  gate.Open();  // Unwedge: f1 completes, then the dispatcher serves r2.
  caller.join();
  EXPECT_EQ(r3.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.backpressure_retries, 4u);
  // Each retry was a fresh Submit: 2 served + 4 rejected admissions.
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.rejected_queue_full, 4u);
  EXPECT_EQ(stats.completed, 2u);
}

// query_retry_budget = 0 keeps the legacy retry-forever contract: the
// request rides out transient backpressure and succeeds once the queue
// drains.
TEST(ServingEngineBackpressureTest, ZeroBudgetRetriesUntilServed) {
  const Dataset data = MakeTinyDataset();
  GateRecommender gate;
  ASSERT_TRUE(gate.Fit(data).ok());

  FakeClock clock;
  ServingEngineOptions options;
  options.clock = &clock;
  options.max_batch_size = 1;
  options.max_queue_depth = 1;
  options.batch_threads = 1;
  options.query_retry_budget = 0;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(&gate).ok());

  ServeRequest request;
  request.user = 0;
  request.top_k = 1;
  std::future<UserQueryResult> f1 = engine.Submit("gate", request);
  gate.WaitForEntries(1);
  std::future<UserQueryResult> f2 = engine.Submit("gate", request);

  std::thread caller([&] {
    // Retries as long as it takes; succeeds once the gate opens.
    EXPECT_TRUE(engine.Query("gate", request).status.ok());
  });
  // Let the caller bang against the full queue a few times, then open.
  while (engine.Stats().backpressure_retries < 8) {
    std::this_thread::yield();
  }
  gate.Open();
  caller.join();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

// ---------------------------------------------------------------- fix 3

// 64 requests enqueued at ticks 1..64, clock jumped to 100, then eight
// threads race 1-request forced pumps: 64 concurrent queue_ticks_max
// updates with distinct waited values (99 down to 36). The fetch-max must
// report exactly 99 and the sum exactly sum(100 - t); a plain
// load-compare-store max drops concurrent updates under this contention.
TEST(ServingEngineStatsTest, QueueTicksMaxExactUnderConcurrentPumps) {
  const Dataset data = MakeTinyDataset();
  NullRecommender model;
  ASSERT_TRUE(model.Fit(data).ok());

  FakeClock clock;
  ServingEngineOptions options;
  options.clock = &clock;
  options.start_dispatcher = false;
  options.max_batch_size = 1;  // one max update per pumped batch
  options.max_queue_depth = 128;
  options.batch_threads = 1;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(&model).ok());

  constexpr uint64_t kRequests = 64;
  ServeRequest request;
  request.user = 0;
  request.top_k = 1;
  std::vector<std::future<UserQueryResult>> futures;
  futures.reserve(kRequests);
  uint64_t expected_sum = 0;
  for (uint64_t t = 1; t <= kRequests; ++t) {
    clock.Set(t);
    futures.push_back(engine.Submit("null", request));
    expected_sum += 100 - t;
  }
  clock.Set(100);

  constexpr int kPumpers = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> pumpers;
  pumpers.reserve(kPumpers);
  for (int p = 0; p < kPumpers; ++p) {
    pumpers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      engine.PumpUntilIdle();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : pumpers) t.join();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queue_ticks_max, 99u);  // the tick-1 request waited 99
  EXPECT_EQ(stats.queue_ticks_sum, expected_sum);
  EXPECT_EQ(stats.dispatched, kRequests);
  EXPECT_EQ(stats.batches_executed, kRequests);
}

// ------------------------------------------------------------ exposition

// The live engine's scrape surface: valid Prometheus text carrying the
// engine counters, per-model queue gauges (live + peak), the batch-size
// and queue-wait histograms, and — when bound into the same registry —
// the subgraph-cache and pool series.
TEST(ServingEngineMetricsTest, LiveExpositionParsesAndTracksQueues) {
  const Dataset data = MakeTinyDataset();
  NullRecommender model;
  ASSERT_TRUE(model.Fit(data).ok());

  FakeClock clock;
  ServingEngineOptions options;
  options.clock = &clock;
  options.start_dispatcher = false;
  options.max_batch_size = 4;
  options.batch_threads = 1;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(&model).ok());

  // Bind the sibling components into the engine's registry. Declared
  // after the engine so they die (and release their callbacks) first.
  SubgraphCache cache;
  cache.BindMetrics(engine.metrics());
  ServingPool pool(2);
  pool.BindMetrics(engine.metrics());
  pool.ParallelFor(16, [](size_t) {}, /*parallelism=*/2, /*grain=*/1);

  ServeRequest request;
  request.user = 1;
  request.top_k = 3;
  std::vector<std::future<UserQueryResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(engine.Submit("null", request));
  }
  // Queue holds 3 (nothing has pumped yet).
  {
    const std::string text = engine.metrics()->ExportText();
    EXPECT_NE(text.find("longtail_engine_queue_depth{model=\"null\"} 3\n"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("longtail_engine_queue_depth_peak{model=\"null\"} 3\n"),
        std::string::npos);
    EXPECT_NE(text.find("longtail_engine_requests_submitted_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("longtail_engine_queued_requests 3\n"),
              std::string::npos);
  }
  clock.Advance(5);
  engine.PumpUntilIdle();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  engine.Submit("ghost", request);  // one unknown-model rejection

  const std::string text = engine.metrics()->ExportText();
  std::string error;
  EXPECT_TRUE(CheckPrometheusText(text, &error)) << error << "\n" << text;
  // Depth drained to 0; the peak gauge still remembers the burst.
  EXPECT_NE(text.find("longtail_engine_queue_depth{model=\"null\"} 0\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("longtail_engine_queue_depth_peak{model=\"null\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("longtail_engine_requests_completed_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("longtail_engine_requests_rejected_total"
                      "{reason=\"unknown_model\"} 1\n"),
            std::string::npos);
  // One executed batch of size 3 → the le="4" cumulative bucket holds it.
  EXPECT_NE(text.find("longtail_engine_batch_size_bucket{le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("longtail_engine_batch_size_count 1\n"),
            std::string::npos);
  // Every request waited 5 ticks at dispatch.
  EXPECT_NE(
      text.find("longtail_engine_queue_wait_ticks_bucket{le=\"8\"} 3\n"),
      std::string::npos);
  // Cache and pool series are present in the same scrape.
  EXPECT_NE(text.find("longtail_subgraph_cache_hits_total 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("longtail_pool_parallel_for_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("longtail_pool_threads 2\n"), std::string::npos);
}

// Queue wait on steady_clock: every dispatched request is observed once
// into longtail_engine_queue_wait_seconds (sub-tick buckets from 10 us),
// and a request that expires in the queue is not — so the series count
// equals EngineStats::dispatched, also on a clock that never moves.
TEST(ServingEngineMetricsTest, QueueWaitSecondsCountsEveryDispatch) {
  const Dataset data = MakeTinyDataset();
  NullRecommender model;
  ASSERT_TRUE(model.Fit(data).ok());

  FakeClock clock(10);
  ServingEngineOptions options;
  options.clock = &clock;
  options.start_dispatcher = false;
  options.max_batch_size = 3;
  options.batch_threads = 1;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(&model).ok());

  ServeRequest request;
  request.user = 1;
  request.top_k = 3;
  std::vector<std::future<UserQueryResult>> futures;
  for (int i = 0; i < 7; ++i) {
    futures.push_back(engine.Submit("null", request));
  }
  ServeRequest doomed = request;
  doomed.deadline_tick = 11;
  std::future<UserQueryResult> expired = engine.Submit("null", doomed);
  clock.Advance(5);  // past the doomed deadline; the rest have none
  engine.PumpUntilIdle();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(expired.get().status.code(), StatusCode::kDeadlineExceeded);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.dispatched, 7u);
  EXPECT_EQ(stats.expired_in_queue, 1u);
  const std::string text = engine.metrics()->ExportText();
  std::string error;
  EXPECT_TRUE(CheckPrometheusText(text, &error)) << error << "\n" << text;
  EXPECT_NE(text.find("longtail_engine_queue_wait_seconds_count " +
                      std::to_string(stats.dispatched) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("longtail_engine_queue_wait_seconds_bucket{le=\"1e-05\"}"),
      std::string::npos)
      << text;
}

// Engines default to a private registry, so two engines in one process
// never collide on series names; an external registry is shared intact.
TEST(ServingEngineMetricsTest, PrivateRegistriesDoNotCollide) {
  ServingEngineOptions options;
  options.start_dispatcher = false;
  ServingEngine a(options);
  ServingEngine b(options);
  EXPECT_NE(a.metrics(), b.metrics());

  MetricsRegistry shared;
  ServingEngineOptions shared_options;
  shared_options.start_dispatcher = false;
  shared_options.metrics = &shared;
  {
    ServingEngine c(shared_options);
    EXPECT_EQ(c.metrics(), &shared);
    EXPECT_NE(shared.ExportText().find(
                  "longtail_engine_requests_submitted_total 0\n"),
              std::string::npos);
  }
  // The destroyed engine released its callbacks; the registry survives
  // with the engine's callback series gone (owned histograms remain).
  const std::string text = shared.ExportText();
  EXPECT_EQ(text.find("longtail_engine_requests_submitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("longtail_engine_batch_size"), std::string::npos);
}

}  // namespace
}  // namespace longtail
