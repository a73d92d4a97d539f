// Batch/sequential parity: the batch query engine must return results
// bit-identical to the per-user RecommendTopK/ScoreItems path for every
// suite algorithm, at any thread count. This is the contract that lets the
// eval harness and benches run entirely on the batch API.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "baselines/pagerank.h"
#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/graph_recommender_base.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "graph/walk_kernel.h"

namespace longtail {
namespace {

class BatchParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 100;
    spec.num_items = 80;
    spec.mean_user_degree = 10;
    spec.min_user_degree = 3;
    spec.num_genres = 5;
    spec.seed = 4242;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// Builds the five graph/walk algorithms named by the parity requirement:
  /// HT, AT, AC1, AC2, DPPR.
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

  static std::vector<UserId> TestUsers() {
    std::vector<UserId> users;
    for (UserId u = 0; u < std::min<UserId>(50, data_->num_users()); ++u) {
      users.push_back(u);
    }
    return users;
  }

  static Dataset* data_;
};

Dataset* BatchParityTest::data_ = nullptr;

void ExpectIdenticalLists(const std::vector<ScoredItem>& expected,
                          const std::vector<ScoredItem>& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(expected[k].item, actual[k].item) << label << " pos " << k;
    // Bit-identical, not approximately equal: the batch engine must run
    // the exact same walk.
    EXPECT_EQ(expected[k].score, actual[k].score) << label << " pos " << k;
  }
}

TEST_F(BatchParityTest, RecommendBatchMatchesSequential) {
  const std::vector<UserId> users = TestUsers();
  const int k = 10;
  for (const auto& rec : BuildSuite()) {
    std::vector<std::vector<ScoredItem>> expected(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      auto top = rec->RecommendTopK(users[i], k);
      ASSERT_TRUE(top.ok()) << rec->name();
      expected[i] = std::move(top).value();
    }
    for (size_t threads : {1u, 4u}) {
      BatchOptions options;
      options.num_threads = threads;
      auto batch = rec->RecommendBatch(users, k, options);
      ASSERT_EQ(batch.size(), users.size());
      for (size_t i = 0; i < users.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << rec->name() << " user " << users[i];
        ExpectIdenticalLists(expected[i], *batch[i],
                             rec->name() + "@" + std::to_string(threads) +
                                 "t user " + std::to_string(users[i]));
      }
    }
  }
}

TEST_F(BatchParityTest, ScoreBatchMatchesSequential) {
  const std::vector<UserId> users = TestUsers();
  // Per-user candidate lists with different lengths and orders.
  std::vector<std::vector<ItemId>> candidates(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const int len = 5 + static_cast<int>(i % 7);
    for (int j = 0; j < len; ++j) {
      candidates[i].push_back(
          static_cast<ItemId>((i * 13 + j * 5) % data_->num_items()));
    }
  }
  for (const auto& rec : BuildSuite()) {
    std::vector<std::vector<double>> expected(users.size());
    for (size_t i = 0; i < users.size(); ++i) {
      auto scores = rec->ScoreItems(users[i], candidates[i]);
      ASSERT_TRUE(scores.ok()) << rec->name();
      expected[i] = std::move(scores).value();
    }
    for (size_t threads : {1u, 4u}) {
      BatchOptions options;
      options.num_threads = threads;
      auto batch = rec->ScoreBatch(users, candidates, options);
      ASSERT_EQ(batch.size(), users.size());
      for (size_t i = 0; i < users.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << rec->name();
        EXPECT_EQ(expected[i], *batch[i])
            << rec->name() << "@" << threads << "t user " << users[i];
      }
    }
  }
}

// A combined query (top-k + candidate scores) must equal the two separate
// calls — the graph engine serves both from one walk.
TEST_F(BatchParityTest, CombinedQueryMatchesSeparateCalls) {
  AbsorbingTimeRecommender rec;
  ASSERT_TRUE(rec.Fit(*data_).ok());
  const std::vector<ItemId> candidates = {0, 3, 7, 11, 19};
  std::vector<UserQuery> queries;
  for (UserId u = 0; u < 20; ++u) {
    UserQuery q;
    q.user = u;
    q.top_k = 5;
    q.score_items = candidates;
    queries.push_back(q);
  }
  for (size_t threads : {1u, 4u}) {
    BatchOptions options;
    options.num_threads = threads;
    auto results = rec.QueryBatch(queries, options);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok());
      auto top = rec.RecommendTopK(queries[i].user, 5);
      auto scores = rec.ScoreItems(queries[i].user, candidates);
      ASSERT_TRUE(top.ok());
      ASSERT_TRUE(scores.ok());
      ExpectIdenticalLists(*top, results[i].top_k,
                           "combined@" + std::to_string(threads));
      EXPECT_EQ(*scores, results[i].scores);
    }
  }
}

// Per-query failures (out-of-range users here) must not fail the batch:
// every other query still gets served.
TEST_F(BatchParityTest, FailedQueriesAreIsolated) {
  AbsorbingTimeRecommender rec;
  ASSERT_TRUE(rec.Fit(*data_).ok());
  std::vector<UserId> users = {0, -5, 1, data_->num_users() + 7, 2};
  for (size_t threads : {1u, 4u}) {
    BatchOptions options;
    options.num_threads = threads;
    auto batch = rec.RecommendBatch(users, 5, options);
    ASSERT_EQ(batch.size(), users.size());
    EXPECT_TRUE(batch[0].ok());
    EXPECT_FALSE(batch[1].ok());
    EXPECT_TRUE(batch[2].ok());
    EXPECT_FALSE(batch[3].ok());
    EXPECT_TRUE(batch[4].ok());
    auto expected = rec.RecommendTopK(0, 5);
    ASSERT_TRUE(expected.ok());
    ExpectIdenticalLists(*expected, *batch[0], "after failures");
  }
}

// Sequential reference for one UserQuery: the per-user virtuals, called
// exactly as a caller without the batch API would.
UserQueryResult SequentialQuery(const Recommender& rec, const UserQuery& q) {
  UserQueryResult out;
  if (q.top_k > 0) {
    auto top = rec.RecommendTopK(q.user, q.top_k);
    if (!top.ok()) {
      out.status = top.status();
      return out;
    }
    out.top_k = std::move(top).value();
  }
  if (!q.score_items.empty()) {
    auto scores = rec.ScoreItems(q.user, q.score_items);
    if (!scores.ok()) {
      out.status = scores.status();
      return out;
    }
    out.scores = std::move(scores).value();
  }
  return out;
}

void ExpectIdenticalResults(const std::vector<UserQueryResult>& expected,
                            const std::vector<UserQueryResult>& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::string at = label + " query " + std::to_string(i);
    EXPECT_EQ(expected[i].status.code(), actual[i].status.code()) << at;
    ExpectIdenticalLists(expected[i].top_k, actual[i].top_k, at);
    EXPECT_EQ(expected[i].scores, actual[i].scores) << at;
  }
}

// Duplicated users share one walk: QueryBatch groups the batch by user,
// walks each distinct user once and serves every member from that walk.
// The batch mixes a hot user ×6, interleaved smaller duplicate runs, an
// invalid user, empty queries, and duplicates of one user asking for
// different top_k and score lists. Results must be bit-identical to the
// sequential per-user calls at 1 and 8 threads. The observer sees one call
// per sweep carrying all of its queries: the batch's 8 distinct valid
// users (the corpus is in whole-graph mode) fill exactly one lane group,
// so a single sweep serves every query at any thread count.
TEST_F(BatchParityTest, DuplicateUsersShareOneWalk) {
  const std::vector<ItemId> candidates = {2, 5, 9, 14, 21};
  const std::vector<ItemId> other_candidates = {40, 1, 33};
  const std::vector<UserId> pattern = {7, 3, 7, 12, 7, 3,  7, -1, 25,
                                       7, 3, 7, 30, 12, 3, 31, 32, 33};
  std::vector<UserQuery> queries;
  for (UserId u : pattern) {
    UserQuery q;
    q.user = u;
    q.top_k = 6;
    q.score_items = candidates;
    queries.push_back(q);
  }
  // User 12 again with a different k and score list, top-k only, and
  // scores only; user 40 only in empty queries (no walk at all); an empty
  // query for the hot user and one for the invalid user.
  auto add = [&](UserId u, int k, std::span<const ItemId> items) {
    UserQuery q;
    q.user = u;
    q.top_k = k;
    q.score_items = items;
    queries.push_back(q);
  };
  add(12, 3, other_candidates);
  add(12, 9, {});
  add(12, 0, other_candidates);
  add(40, 0, {});
  add(7, 0, {});
  add(-1, 0, {});
  add(40, 0, {});
  // Per distinct user with a non-empty query: its number of queries.
  std::map<UserId, int32_t> per_user;
  for (const UserQuery& q : queries) {
    const bool empty = q.top_k <= 0 && q.score_items.empty();
    if (!empty && q.user >= 0 && q.user < data_->num_users()) {
      ++per_user[q.user];
    }
  }
  int32_t served = 0;
  for (const auto& [user, count] : per_user) served += count;
  ASSERT_EQ(per_user.size(), static_cast<size_t>(WalkKernel::kLanes));

  for (const auto& rec : BuildSuite()) {
    // DPPR is in the parity suite but is not a graph-walk engine: it takes
    // the default per-query dispatch and never invokes the observer.
    const bool graph_engine =
        dynamic_cast<const GraphRecommenderBase*>(rec.get()) != nullptr;
    std::vector<UserQueryResult> expected;
    for (const UserQuery& q : queries) {
      expected.push_back(SequentialQuery(*rec, q));
    }
    std::mutex mu;
    std::vector<int32_t> widths;
    std::function<void(int32_t)> observer = [&](int32_t width) {
      std::lock_guard<std::mutex> lock(mu);
      widths.push_back(width);
    };
    for (size_t threads : {1u, 8u}) {
      BatchOptions options;
      options.num_threads = threads;
      options.fused_width_observer = &observer;
      widths.clear();
      const std::string label = rec->name() + " @" + std::to_string(threads) +
                                "t";
      ExpectIdenticalResults(expected, rec->QueryBatch(queries, options),
                             label);
      std::sort(widths.begin(), widths.end());
      if (graph_engine) {
        EXPECT_EQ(std::vector<int32_t>{served}, widths) << label;
      } else {
        EXPECT_TRUE(widths.empty()) << label;
      }
    }
  }
}

// Exact-solver configurations run the Gauss–Seidel path through the
// workspace; parity must hold there too.
TEST_F(BatchParityTest, ExactSolverBatchMatchesSequential) {
  GraphWalkOptions walk;
  walk.exact = true;
  AbsorbingTimeRecommender rec(walk);
  ASSERT_TRUE(rec.Fit(*data_).ok());
  // The exact path groups by user too: every test user once, then a second
  // pass over every third user with a different k.
  std::vector<UserQuery> queries;
  for (UserId u : TestUsers()) {
    UserQuery q;
    q.user = u;
    q.top_k = 8;
    queries.push_back(q);
  }
  for (UserId u : TestUsers()) {
    if (u % 3 != 0) continue;
    UserQuery q;
    q.user = u;
    q.top_k = 4;
    queries.push_back(q);
  }
  std::vector<UserQueryResult> expected;
  for (const UserQuery& q : queries) {
    expected.push_back(SequentialQuery(rec, q));
    ASSERT_TRUE(expected.back().status.ok());
  }
  BatchOptions options;
  options.num_threads = 4;
  ExpectIdenticalResults(expected, rec.QueryBatch(queries, options), "exact");
}

}  // namespace
}  // namespace longtail
