// ServingEngine: the admission-controlled micro-batching front door.
// Contracts locked down here:
//  1. Parity — results served through the engine (async Submit + pump, and
//     blocking QueryAll) are bit-identical to a direct QueryBatch for all
//     five suite walkers (HT, AT, AC1, AC2, DPPR) at 1 and 8 batch
//     threads, with and without a shared SubgraphCache.
//  2. Single flight — N identical concurrent cold queries perform exactly
//     one subgraph extraction.
//  3. Admission control — queue-full and over-deadline requests fail fast
//     with typed Statuses (ResourceExhausted / DeadlineExceeded); a free
//     dispatcher takes what is queued (up to max_batch_size) at once, both
//     under manual Pump() and on the background thread, on a FakeClock.
//  4. Lifecycle — destruction with requests still queued resolves every
//     future (typed failure), never hangs, and is clean under ASan.
#include "serving/serving_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/pagerank.h"
#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "graph/subgraph_cache.h"
#include "serving/model_registry.h"
#include "test_util.h"

namespace longtail {
namespace {

class ServingEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 90;
    spec.num_items = 70;
    spec.mean_user_degree = 9;
    spec.min_user_degree = 3;
    spec.num_genres = 5;
    spec.seed = 50121;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// The five walk/graph algorithms named by the parity requirement.
  static std::vector<std::unique_ptr<Recommender>> BuildSuite() {
    std::vector<std::unique_ptr<Recommender>> suite;
    suite.push_back(std::make_unique<HittingTimeRecommender>());
    suite.push_back(std::make_unique<AbsorbingTimeRecommender>());
    AbsorbingCostOptions ac;
    ac.lda.num_topics = 4;
    ac.lda.iterations = 15;
    suite.push_back(std::make_unique<AbsorbingCostRecommender>(
        EntropySource::kItemBased, ac));
    suite.push_back(std::make_unique<AbsorbingCostRecommender>(
        EntropySource::kTopicBased, ac));
    suite.push_back(
        std::make_unique<PageRankRecommender>(/*discounted=*/true));
    for (auto& rec : suite) {
      EXPECT_TRUE(rec->Fit(*data_).ok()) << rec->name();
    }
    return suite;
  }

  /// One fitted AT walker (the cheapest fit) for single-model tests.
  static std::unique_ptr<Recommender> FittedAt(GraphWalkOptions walk = {}) {
    auto at = std::make_unique<AbsorbingTimeRecommender>(walk);
    EXPECT_TRUE(at->Fit(*data_).ok());
    return at;
  }

  static std::vector<ServeRequest> TestRequests(
      const std::vector<ItemId>& candidates) {
    std::vector<ServeRequest> requests;
    for (UserId u = 0; u < std::min<UserId>(30, data_->num_users()); ++u) {
      ServeRequest r;
      r.user = u;
      r.top_k = 10;
      r.score_items = candidates;
      requests.push_back(r);
    }
    return requests;
  }

  static std::vector<UserQuery> AsQueries(
      const std::vector<ServeRequest>& requests) {
    std::vector<UserQuery> queries;
    queries.reserve(requests.size());
    for (const ServeRequest& r : requests) {
      queries.push_back({r.user, r.top_k, r.score_items});
    }
    return queries;
  }

  static Dataset* data_;
};

Dataset* ServingEngineTest::data_ = nullptr;

void ExpectIdenticalResult(const UserQueryResult& expected,
                           const UserQueryResult& actual,
                           const std::string& label) {
  ASSERT_EQ(expected.status.ok(), actual.status.ok())
      << label << ": " << actual.status.ToString();
  ASSERT_EQ(expected.top_k.size(), actual.top_k.size()) << label;
  for (size_t k = 0; k < expected.top_k.size(); ++k) {
    EXPECT_EQ(expected.top_k[k].item, actual.top_k[k].item)
        << label << " pos " << k;
    // Bit-identical, not approximately equal: the engine must replay the
    // exact same walk as the direct batch.
    EXPECT_EQ(expected.top_k[k].score, actual.top_k[k].score)
        << label << " pos " << k;
  }
  EXPECT_EQ(expected.scores, actual.scores) << label;
}

// Parity for all five walkers at 1 and 8 batch threads, served through
// async Submit + manual pump on a FakeClock, with a shared SubgraphCache.
// max_batch_size 7 on 30 requests forces full *and* partial batches.
TEST_F(ServingEngineTest, EngineResultsBitIdenticalToDirectQueryBatch) {
  const std::vector<ItemId> candidates = {0, 3, 7, 11, 19, 42};
  const std::vector<ServeRequest> requests = TestRequests(candidates);
  const std::vector<UserQuery> queries = AsQueries(requests);
  for (const auto& rec : BuildSuite()) {
    BatchOptions direct;
    direct.num_threads = 1;
    const std::vector<UserQueryResult> expected =
        rec->QueryBatch(queries, direct);
    for (size_t threads : {1u, 8u}) {
      SubgraphCache cache;
      FakeClock clock;
      ServingEngineOptions options;
      options.max_batch_size = 7;
      options.batch_threads = threads;
      options.subgraph_cache = &cache;
      options.clock = &clock;
      options.start_dispatcher = false;
      ServingEngine engine(options);
      ASSERT_TRUE(engine.AddModel(rec.get()).ok());
      std::vector<std::future<UserQueryResult>> futures;
      for (const ServeRequest& r : requests) {
        futures.push_back(engine.Submit(rec->name(), r));
      }
      engine.PumpUntilIdle();
      const std::string label =
          rec->name() + " @" + std::to_string(threads) + "t";
      for (size_t i = 0; i < futures.size(); ++i) {
        ExpectIdenticalResult(expected[i], futures[i].get(),
                              label + " query " + std::to_string(i));
      }
      // Second pass through the blocking bulk API, now on a warm cache.
      const std::vector<UserQueryResult> warm =
          engine.QueryAll(rec->name(), requests);
      for (size_t i = 0; i < warm.size(); ++i) {
        ExpectIdenticalResult(expected[i], warm[i],
                              label + " warm query " + std::to_string(i));
      }
    }
  }
}

// N identical cold queries through the engine perform exactly one subgraph
// extraction and one cache lookup: QueryBatch groups the batch by user
// before the cache is consulted and runs one walk for all N queries. µ is
// capped below the corpus's 70 items: at µ >= the catalog size the walker
// sweeps its Fit-time whole-graph plan and never consults the cache.
TEST_F(ServingEngineTest, IdenticalConcurrentColdQueriesExtractOnce) {
  GraphWalkOptions capped;
  capped.max_subgraph_items = 35;
  auto at = FittedAt(capped);
  SubgraphCache cache;
  ServingEngineOptions options;
  options.max_batch_size = 32;
  options.batch_threads = 8;
  options.subgraph_cache = &cache;
  options.start_dispatcher = false;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(at.get()).ok());
  constexpr size_t kDupes = 32;
  ServeRequest dupe;
  dupe.user = 1;
  dupe.top_k = 10;
  std::vector<std::future<UserQueryResult>> futures;
  for (size_t i = 0; i < kDupes; ++i) {
    futures.push_back(engine.Submit(at->name(), dupe));
  }
  engine.PumpUntilIdle();
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u) << "duplicate extraction ran";
  EXPECT_EQ(stats.inserts, 1u);
  // The 32 duplicates arrive as one micro-batch and QueryBatch walks the
  // user once, so the cache sees exactly one lookup: the miss above.
  EXPECT_EQ(stats.hits + stats.coalesced_waits, 0u);
}

// Deadline semantics: dead-on-arrival requests are rejected at Submit;
// requests whose deadline passes while queued fail at dispatch — both with
// DeadlineExceeded, neither reaching the model.
TEST_F(ServingEngineTest, DeadlinesFailFastWithTypedStatus) {
  auto at = FittedAt();
  FakeClock clock;
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.clock = &clock;
  options.start_dispatcher = false;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(at.get()).ok());

  // Dead on arrival.
  clock.Set(10);
  ServeRequest expired;
  expired.user = 1;
  expired.top_k = 5;
  expired.deadline_tick = 5;
  auto f1 = engine.Submit(at->name(), expired);
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f1.get().status.code(), StatusCode::kDeadlineExceeded);

  // Expires while queued: admitted at tick 10 (deadline 12), the clock
  // passes the deadline before anything pumps, so the dispatch at tick 20
  // fails it without running.
  ServeRequest queued;
  queued.user = 2;
  queued.top_k = 5;
  queued.deadline_tick = 12;
  auto f2 = engine.Submit(at->name(), queued);
  clock.Set(20);
  EXPECT_EQ(engine.Pump(), 1u);
  EXPECT_EQ(f2.get().status.code(), StatusCode::kDeadlineExceeded);

  // A request with headroom still serves.
  ServeRequest healthy;
  healthy.user = 3;
  healthy.top_k = 5;
  healthy.deadline_tick = 100;
  auto f3 = engine.Submit(at->name(), healthy);
  clock.Advance(5);
  engine.PumpUntilIdle();
  EXPECT_TRUE(f3.get().status.ok());

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.rejected_expired, 1u);
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// Admission control: the queue never grows past max_queue_depth; overflow
// fails fast with ResourceExhausted instead of queueing unboundedly.
TEST_F(ServingEngineTest, QueueFullRejectsFastWithResourceExhausted) {
  auto at = FittedAt();
  ServingEngineOptions options;
  options.max_queue_depth = 2;
  options.max_batch_size = 64;
  options.start_dispatcher = false;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(at.get()).ok());
  ServeRequest r;
  r.user = 1;
  r.top_k = 5;
  auto f1 = engine.Submit(at->name(), r);
  auto f2 = engine.Submit(at->name(), r);
  auto f3 = engine.Submit(at->name(), r);  // over depth: rejected now
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.Stats().rejected_queue_full, 1u);
  engine.PumpUntilIdle();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

// A free dispatcher takes what is queued, on a FakeClock that never moves:
// a lone request dispatches at the tick it arrived; three queued requests
// with max_batch_size 2 dispatch as 2 then 1. The batch-size histogram and
// queue-latency stats record it all.
TEST_F(ServingEngineTest, PumpTakesWhatIsQueued) {
  auto at = FittedAt();
  FakeClock clock(7);
  ServingEngineOptions options;
  options.max_batch_size = 2;
  options.clock = &clock;
  options.start_dispatcher = false;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.AddModel(at.get()).ok());
  ServeRequest r;
  r.user = 1;
  r.top_k = 5;

  // One request: dispatched by the first pump, same tick.
  auto f1 = engine.Submit(at->name(), r);
  ASSERT_EQ(engine.Pump(), 1u);
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_EQ(engine.Pump(), 0u);  // nothing left

  // Three requests: one pump takes a full batch of 2, then the last 1.
  auto f2 = engine.Submit(at->name(), r);
  auto f3 = engine.Submit(at->name(), r);
  auto f4 = engine.Submit(at->name(), r);
  ASSERT_EQ(engine.Pump(), 3u);
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_TRUE(f3.get().status.ok());
  EXPECT_TRUE(f4.get().status.ok());

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.batches_executed, 3u);
  ASSERT_FALSE(stats.batch_size_pow2.empty());
  EXPECT_EQ(stats.batch_size_pow2[0], 2u);  // the two size-1 batches
  EXPECT_EQ(stats.batch_size_pow2[1], 1u);  // the size-2 batch
  EXPECT_EQ(stats.dispatched, 4u);
  EXPECT_EQ(stats.queue_ticks_max, 0u);  // nobody waited for company
}

// The background dispatcher is work-conserving: on a clock that never
// advances, a lone submitted request is still served, with zero ticks of
// queue wait. A dispatcher that waits for a request to age (or for the
// batch to fill) leaves this future unresolved until the engine dies.
TEST_F(ServingEngineTest, DispatcherServesLoneRequestOnFrozenClock) {
  auto at = FittedAt();
  FakeClock clock(3);
  ServingEngineOptions options;
  options.max_batch_size = 64;
  options.clock = &clock;
  ServingEngine engine(options);  // dispatcher on
  ASSERT_TRUE(engine.AddModel(at.get()).ok());
  ServeRequest r;
  r.user = 2;
  r.top_k = 5;
  std::future<UserQueryResult> f = engine.Submit(at->name(), r);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "a lone request was held back by an idle dispatcher";
  EXPECT_TRUE(f.get().status.ok());
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_EQ(stats.queue_ticks_max, 0u);
}

TEST_F(ServingEngineTest, RegistrationGuards) {
  auto at = FittedAt();
  ServingEngineOptions options;
  options.start_dispatcher = false;
  ServingEngine engine(options);
  // Unknown model: typed NotFound, immediately ready.
  auto f = engine.Submit("nope", ServeRequest{.user = 1, .top_k = 3});
  EXPECT_EQ(f.get().status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Stats().rejected_unknown_model, 1u);
  // Unfitted models cannot register.
  AbsorbingTimeRecommender unfitted;
  EXPECT_EQ(engine.AddModel(&unfitted).code(),
            StatusCode::kFailedPrecondition);
  // Duplicates cannot register.
  EXPECT_TRUE(engine.AddModel(at.get()).ok());
  EXPECT_EQ(engine.AddModel(at.get()).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.HasModel(at->name()));
}

// Background dispatcher end to end: blocking Query against a running
// dispatcher returns the same result as a direct single-query batch.
TEST_F(ServingEngineTest, DispatcherServesBlockingQueries) {
  auto at = FittedAt();
  SubgraphCache cache;
  ServingEngineOptions options;
  options.max_batch_size = 4;
  options.subgraph_cache = &cache;
  ServingEngine engine(options);  // dispatcher on, steady clock
  ASSERT_TRUE(engine.AddModel(at.get()).ok());
  const std::vector<ItemId> candidates = {1, 2, 5};
  UserQuery q;
  q.user = 4;
  q.top_k = 8;
  q.score_items = candidates;
  const UserQueryResult expected =
      at->QueryBatch(std::span<const UserQuery>(&q, 1))[0];
  ServeRequest r;
  r.user = 4;
  r.top_k = 8;
  r.score_items = candidates;
  const UserQueryResult got = engine.Query(at->name(), r);
  ExpectIdenticalResult(expected, got, "blocking query via dispatcher");
  EXPECT_GE(engine.Stats().completed, 1u);
}

// Checkpoint wiring: a directory of checkpoints cold-starts an engine
// (ModelRegistry does the reconstruction) and serves bit-identically to
// the fitted originals.
TEST_F(ServingEngineTest, CheckpointDirectoryColdStartsEngine) {
  const std::string dir =
      ::testing::TempDir() + "/serving_engine_ckpt_test";
  std::filesystem::create_directories(dir);
  auto at = FittedAt();
  auto ht = std::make_unique<HittingTimeRecommender>();
  ASSERT_TRUE(ht->Fit(*data_).ok());
  ASSERT_TRUE(SaveModelCheckpoint(*at, dir + "/AT.ckpt").ok());
  ASSERT_TRUE(SaveModelCheckpoint(*ht, dir + "/HT.ckpt").ok());

  ServingEngineOptions options;
  options.start_dispatcher = false;
  ServingEngine engine(options);
  auto loaded = LoadCheckpointDirIntoEngine(dir, *data_, &engine);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, (std::vector<std::string>{"AT", "HT"}));

  UserQuery q;
  q.user = 2;
  q.top_k = 10;
  ServeRequest r;
  r.user = 2;
  r.top_k = 10;
  for (const Recommender* original :
       {static_cast<const Recommender*>(at.get()),
        static_cast<const Recommender*>(ht.get())}) {
    const UserQueryResult expected =
        original->QueryBatch(std::span<const UserQuery>(&q, 1))[0];
    const UserQueryResult got = engine.Query(original->name(), r);
    ExpectIdenticalResult(expected, got,
                          "checkpoint-served " + original->name());
  }
  std::filesystem::remove_all(dir);
}

// Destruction with requests still in flight: every future resolves (served
// or typed failure), nothing hangs, nothing leaks (ASan job). Submitters
// race the destructor's shutdown path via the closed-queue rejection.
TEST_F(ServingEngineTest, DestructionWithInflightRequestsHammer) {
  auto at = FittedAt();
  auto ht = std::make_unique<HittingTimeRecommender>();
  ASSERT_TRUE(ht->Fit(*data_).ok());
  SubgraphCache cache;
  constexpr int kRounds = 5;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<std::future<UserQueryResult>>> futures(kThreads);
    {
      ServingEngineOptions options;
      options.max_batch_size = 4;
      options.max_queue_depth = 64;
      options.subgraph_cache = &cache;
      ServingEngine engine(options);  // dispatcher on
      ASSERT_TRUE(engine.AddModel(at.get()).ok());
      ASSERT_TRUE(engine.AddModel(ht.get()).ok());
      std::vector<std::thread> submitters;
      for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
          for (int i = 0; i < kPerThread; ++i) {
            ServeRequest r;
            r.user = (t * kPerThread + i) %
                     ServingEngineTest::data_->num_users();
            r.top_k = 5;
            // A slice of the traffic carries a deadline the dispatcher may
            // or may not beat — both outcomes are legal.
            if (i % 5 == 0) r.deadline_tick = engine.NowTicks() + 1;
            const std::string& model = (i % 2 == 0) ? "AT" : "HT";
            futures[t].push_back(engine.Submit(model, r));
          }
        });
      }
      for (auto& s : submitters) s.join();
      // Engine destructs here with most requests still queued.
    }
    size_t ok = 0, failed = 0;
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "a future was abandoned at engine destruction";
        const UserQueryResult r = f.get();
        if (r.status.ok()) {
          ++ok;
        } else {
          ++failed;
          const StatusCode code = r.status.code();
          EXPECT_TRUE(code == StatusCode::kFailedPrecondition ||
                      code == StatusCode::kDeadlineExceeded ||
                      code == StatusCode::kResourceExhausted)
              << r.status.ToString();
        }
      }
    }
    EXPECT_EQ(ok + failed,
              static_cast<size_t>(kThreads * kPerThread));
  }
}

}  // namespace
}  // namespace longtail
