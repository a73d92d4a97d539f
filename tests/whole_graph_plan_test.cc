// Whole-graph mode: when µ cannot cap (µ <= 0 or µ >= the catalog size),
// every query of HT/AT/AC1/AC2 sweeps one plan built at Fit/LoadModel
// instead of extracting the user's component. Four contracts:
//  1. Component semantics — items outside the user's connected component
//     (zero-degree items included) are never returned and score
//     kUnreachableScore, on the truncated and the exact path.
//  2. Numerics — top-k lists equal a per-user ExtractSubgraph + WalkKernel
//     replay with scores within 1e-13 relative (only the summation order
//     of item rows differs), and equal a replay on the global graph with
//     freshly computed node costs bit for bit.
//  3. Every serving surface gives the same bytes: single-query calls,
//     QueryBatch at 1 and 8 threads, and a checkpoint-restored model.
//  4. No cache traffic and no graph copies: a SubgraphCache passed in
//     whole-graph mode sees zero lookups, misses and inserts.
//  5. Lane groups: QueryBatch sweeps eight distinct users per pass (the
//     last group padded) and still serves every member exactly what its
//     single-user calls give, with failures confined to their own members.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "graph/markov.h"
#include "graph/subgraph.h"
#include "graph/subgraph_cache.h"
#include "graph/walk_kernel.h"
#include "serving/model_registry.h"
#include "util/logging.h"

namespace longtail {
namespace {

/// HT, AT, AC1 and AC2 under `walk`, fitted on `data`.
std::vector<std::unique_ptr<GraphRecommenderBase>> FitWalkers(
    const Dataset& data, const GraphWalkOptions& walk) {
  std::vector<std::unique_ptr<GraphRecommenderBase>> walkers;
  walkers.push_back(std::make_unique<HittingTimeRecommender>(walk));
  walkers.push_back(std::make_unique<AbsorbingTimeRecommender>(walk));
  AbsorbingCostOptions ac;
  ac.walk = walk;
  ac.lda.num_topics = 3;
  ac.lda.iterations = 15;
  walkers.push_back(std::make_unique<AbsorbingCostRecommender>(
      EntropySource::kItemBased, ac));
  walkers.push_back(std::make_unique<AbsorbingCostRecommender>(
      EntropySource::kTopicBased, ac));
  for (auto& walker : walkers) {
    EXPECT_TRUE(walker->Fit(data).ok()) << walker->name();
  }
  return walkers;
}

/// Ranking-sweep values of `model`'s walk for `user` on `g`, whose local
/// users/items map to global ids through `users`/`items`, rebuilt from
/// public pieces: the walker's absorbing set (HT: the user; AT/AC: the
/// rated items), its node costs (unit, or Eq. 9 entropy costs for AC)
/// computed afresh on `g`, and a kernel that builds its own plan.
std::vector<double> ReplayValues(const GraphRecommenderBase& model,
                                 UserId user, const BipartiteGraph& g,
                                 const std::vector<UserId>& users,
                                 const std::vector<ItemId>& items) {
  const Dataset& data = *model.dataset();
  const bool hitting_time = model.name() == "HT";
  const int32_t num_users = static_cast<int32_t>(users.size());
  std::vector<bool> absorbing(g.num_nodes(), false);
  for (int32_t lu = 0; lu < num_users; ++lu) {
    if (hitting_time && users[lu] == user) absorbing[lu] = true;
  }
  for (size_t li = 0; li < items.size(); ++li) {
    if (!hitting_time && data.HasRating(user, items[li])) {
      absorbing[num_users + li] = true;
    }
  }
  std::vector<double> costs(g.num_nodes(), 1.0);
  if (const auto* ac = dynamic_cast<const AbsorbingCostRecommender*>(&model)) {
    std::vector<double> entropy(users.size());
    for (int32_t lu = 0; lu < num_users; ++lu) {
      entropy[lu] = ac->user_entropy()[users[lu]];
    }
    EntropyNodeCostsInto(g, entropy, ac->resolved_user_jump_cost(), &costs);
  }
  WalkKernel kernel;
  kernel.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
  kernel.CompileAbsorbingSweep(absorbing, costs);
  std::vector<double> values;
  kernel.SweepTruncatedItemValues(model.options().iterations, &values);
  return values;
}

/// Top-k over the items of `component` (global ids) from replayed values,
/// ranked the way the recommenders rank: unrated, finite, negated.
std::vector<ScoredItem> ReplayTopK(const GraphRecommenderBase& model,
                                   UserId user, int k,
                                   const std::vector<ItemId>& component,
                                   const std::vector<double>& values,
                                   const std::vector<NodeId>& value_index) {
  std::vector<ScoredItem> candidates;
  for (size_t c = 0; c < component.size(); ++c) {
    if (model.dataset()->HasRating(user, component[c])) continue;
    const double value = values[value_index[c]];
    if (std::isfinite(value)) candidates.push_back({component[c], -value});
  }
  return TopKScoredItems(std::move(candidates), k);
}

void ExpectSameResults(const UserQueryResult& expected,
                       const UserQueryResult& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.status.code(), actual.status.code()) << label;
  ASSERT_EQ(expected.top_k.size(), actual.top_k.size()) << label;
  for (size_t k = 0; k < expected.top_k.size(); ++k) {
    EXPECT_EQ(expected.top_k[k].item, actual.top_k[k].item)
        << label << " pos " << k;
    EXPECT_EQ(expected.top_k[k].score, actual.top_k[k].score)
        << label << " pos " << k;
  }
  EXPECT_EQ(expected.scores, actual.scores) << label;
}

// ------------------------------------------------------ component semantics

/// Two components plus a zero-degree item:
///   A: users 0-3 × items 0-4 (the user i rates items i and i+1, user 0
///      also rates item 4, so A is one component with unrated items left
///      for every user);
///   B: users 4-5 × items 5-7;
///   item 8: rated by nobody.
Dataset MakeDisconnectedDataset() {
  std::vector<RatingEntry> ratings = {
      {0, 0, 5}, {0, 1, 3}, {0, 4, 4}, {1, 1, 4}, {1, 2, 5}, {2, 2, 2},
      {2, 3, 4}, {3, 3, 5}, {3, 4, 1}, {4, 5, 4}, {4, 6, 2}, {5, 6, 5},
      {5, 7, 3}};
  auto result = Dataset::Create(6, 9, std::move(ratings));
  LT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(WholeGraphPlanComponentTest, OutOfComponentItemsAreNeverServed) {
  const Dataset data = MakeDisconnectedDataset();
  const std::vector<ItemId> all_items = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (bool exact : {false, true}) {
    // µ = 0 (uncapped) and µ = the catalog size both mean whole-graph mode.
    for (int32_t mu : {0, data.num_items()}) {
      GraphWalkOptions walk;
      walk.exact = exact;
      walk.max_subgraph_items = mu;
      for (const auto& walker : FitWalkers(data, walk)) {
        const std::string label = walker->name() +
                                  (exact ? " exact" : " truncated") +
                                  " µ=" + std::to_string(mu);
        for (UserId user = 0; user < 4; ++user) {
          auto top = walker->RecommendTopK(user, data.num_items());
          ASSERT_TRUE(top.ok()) << label << " " << top.status().ToString();
          EXPECT_FALSE(top->empty()) << label << " user " << user;
          for (const ScoredItem& s : *top) {
            EXPECT_LE(s.item, 4) << label << " user " << user
                                 << " got an item outside its component";
          }
          auto scores = walker->ScoreItems(user, all_items);
          ASSERT_TRUE(scores.ok()) << label;
          for (size_t i = 0; i < all_items.size(); ++i) {
            if (all_items[i] >= 5) {
              EXPECT_EQ((*scores)[i], kUnreachableScore)
                  << label << " user " << user << " item " << all_items[i];
            } else if (!data.HasRating(user, all_items[i])) {
              EXPECT_GT((*scores)[i], kUnreachableScore)
                  << label << " user " << user << " item " << all_items[i];
            }
          }
        }
        // A user of component B sees only B's unrated items.
        auto top = walker->RecommendTopK(4, data.num_items());
        ASSERT_TRUE(top.ok()) << label;
        ASSERT_EQ(top->size(), 1u) << label;
        EXPECT_EQ((*top)[0].item, 7) << label;
      }
    }
  }
}

// ----------------------------------------------------- numerics and parity

class WholeGraphPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 120;
    spec.num_items = 90;
    spec.mean_user_degree = 10;
    spec.min_user_degree = 3;
    spec.num_genres = 5;
    spec.seed = 20141;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  /// Default µ = 6000 exceeds the 90 items: whole-graph mode.
  static std::vector<std::unique_ptr<GraphRecommenderBase>> Walkers() {
    return FitWalkers(*data_, GraphWalkOptions{});
  }

  /// Queries borrow their candidate list: it lives as long as the suite.
  static std::vector<UserQuery> Queries() {
    static const std::vector<ItemId> kCandidates = {0, 4, 9, 17, 33, 58, 89};
    std::vector<UserQuery> queries;
    for (UserId u = 0; u < 48; ++u) {
      UserQuery q;
      q.user = u;
      q.top_k = 12;
      q.score_items = kCandidates;
      queries.push_back(q);
    }
    return queries;
  }

  static Dataset* data_;
};

Dataset* WholeGraphPlanTest::data_ = nullptr;

TEST_F(WholeGraphPlanTest, TopKMatchesExtractionAndGlobalReplays) {
  constexpr int kTopK = 20;
  for (const auto& walker : Walkers()) {
    const BipartiteGraph& g = walker->graph();
    std::vector<UserId> all_users(g.num_users());
    std::iota(all_users.begin(), all_users.end(), 0);
    std::vector<ItemId> all_items(g.num_items());
    std::iota(all_items.begin(), all_items.end(), 0);
    size_t served = 0;
    for (UserId user = 0; user < data_->num_users(); ++user) {
      if (data_->UserItems(user).empty()) continue;
      std::vector<NodeId> seeds = {g.UserNode(user)};
      if (walker->name() != "HT") {
        for (ItemId item : data_->UserItems(user)) {
          seeds.push_back(g.ItemNode(item));
        }
      }
      SubgraphOptions uncapped;
      uncapped.max_items = 0;
      const Subgraph sub = ExtractSubgraph(g, seeds, uncapped);
      // The extraction's items are exactly the user's component.
      const std::vector<ItemId>& component = sub.items;
      std::vector<NodeId> local_index, global_index;
      for (size_t li = 0; li < component.size(); ++li) {
        local_index.push_back(static_cast<NodeId>(sub.users.size() + li));
        global_index.push_back(g.ItemNode(component[li]));
      }
      const auto extracted = ReplayTopK(
          *walker, user, kTopK, component,
          ReplayValues(*walker, user, sub.graph, sub.users, sub.items),
          local_index);
      const auto global = ReplayTopK(
          *walker, user, kTopK, component,
          ReplayValues(*walker, user, g, all_users, all_items), global_index);

      auto top = walker->RecommendTopK(user, kTopK);
      ASSERT_TRUE(top.ok()) << walker->name();
      const std::string label = walker->name() + " user " +
                                std::to_string(user);
      ASSERT_EQ(top->size(), extracted.size()) << label;
      ASSERT_EQ(top->size(), global.size()) << label;
      for (size_t k = 0; k < top->size(); ++k) {
        EXPECT_EQ((*top)[k].item, extracted[k].item) << label << " pos " << k;
        EXPECT_NEAR((*top)[k].score, extracted[k].score,
                    1e-13 * std::abs(extracted[k].score))
            << label << " pos " << k;
        // The Fit-time plan and node costs are the ones a fresh build on
        // the global graph yields: bit-identical.
        EXPECT_EQ((*top)[k].item, global[k].item) << label << " pos " << k;
        EXPECT_EQ((*top)[k].score, global[k].score) << label << " pos " << k;
      }
      ++served;
    }
    EXPECT_GT(served, 100u) << walker->name();
  }
}

TEST_F(WholeGraphPlanTest, EverySurfaceServesTheSameBytes) {
  const std::vector<UserQuery> queries = Queries();
  const std::string dir = ::testing::TempDir() + "/whole_graph_plan_test";
  std::filesystem::create_directories(dir);
  for (const auto& walker : Walkers()) {
    std::vector<UserQueryResult> single(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto top = walker->RecommendTopK(queries[i].user, queries[i].top_k);
      auto scores = walker->ScoreItems(queries[i].user, queries[i].score_items);
      ASSERT_TRUE(top.ok() && scores.ok()) << walker->name();
      single[i].top_k = std::move(top).value();
      single[i].scores = std::move(scores).value();
    }
    const std::string path = dir + "/" + walker->name() + ".ckpt";
    ASSERT_TRUE(SaveModelCheckpoint(*walker, path).ok()) << walker->name();
    auto restored = LoadModelCheckpoint(path, *data_);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    for (size_t threads : {1u, 8u}) {
      BatchOptions options;
      options.num_threads = threads;
      const auto fitted = walker->QueryBatch(queries, options);
      const auto loaded = (*restored)->QueryBatch(queries, options);
      for (size_t i = 0; i < queries.size(); ++i) {
        const std::string label = walker->name() + " @" +
                                  std::to_string(threads) + "t query " +
                                  std::to_string(i);
        ExpectSameResults(single[i], fitted[i], label + " fitted");
        ExpectSameResults(single[i], loaded[i], label + " restored");
      }
    }
  }
  std::filesystem::remove_all(dir);
}

/// What a member of a QueryBatch gets when served on its own: the
/// single-user calls, in ServeFromWalk's order (top-k first; a failed
/// score list keeps the top-k already served).
UserQueryResult ServeAlone(const GraphRecommenderBase& model,
                           const UserQuery& query) {
  UserQueryResult result;
  if (query.top_k > 0) {
    auto top = model.RecommendTopK(query.user, query.top_k);
    if (!top.ok()) {
      result.status = top.status();
      return result;
    }
    result.top_k = std::move(top).value();
  }
  if (!query.score_items.empty()) {
    auto scores = model.ScoreItems(query.user, query.score_items);
    if (!scores.ok()) {
      result.status = scores.status();
      return result;
    }
    result.scores = std::move(scores).value();
  }
  return result;
}

// Whole-graph batches sweep eight distinct users per pass. The large
// batch has 77 distinct valid users (9 full lane groups and a padded one
// of 5); the small one has 7, below a full lane group, so it walks one
// user per task. Both add duplicates with their own k and score lists,
// user -1, an out-of-range user, empty queries, score-only and top-k-only
// queries and a member whose candidate list holds an out-of-range item.
// At 1 and 8 threads each member must get exactly what its own single-user
// calls give. Failures stay with their own members: invalid users are
// dropped before grouping, and the bad candidate fails only its query. The
// observer sees one call per sweep carrying its queries: one per lane
// group in the large batch, one per user in the small one.
TEST_F(WholeGraphPlanTest, LaneGroupsServeTheSameBytes) {
  static const std::vector<ItemId> kCandidates = {0, 4, 9, 17, 33, 58, 89};
  static const std::vector<ItemId> kOther = {89, 3, 41};
  static const std::vector<ItemId> kBadItem = {2, 999, 7};
  for (const UserId valid_users : {77, 7}) {
    std::vector<UserQuery> queries;
    const auto add = [&](UserId user, int k, std::span<const ItemId> items) {
      UserQuery q;
      q.user = user;
      q.top_k = k;
      q.score_items = items;
      queries.push_back(q);
    };
    // Descending, so grouping has to sort.
    for (UserId u = valid_users - 1; u >= 0; --u) {
      if (u % 5 == 0) {
        add(u, 0, kCandidates);  // scores only
      } else if (u % 7 == 0) {
        add(u, 9, {});  // top-k only
      } else {
        add(u, 12, kCandidates);
      }
    }
    add(5, 3, kOther);
    add(5, 20, {});
    add(3, 12, kCandidates);
    const size_t bad_item_query = queries.size();
    add(5, 4, kBadItem);  // fails OutOfRange; user 5's other queries do not
    add(-1, 5, {});
    add(data_->num_users() + 3, 5, kCandidates);
    add(100, 0, {});  // empty: no walk, OK, not a lane
    add(2, 0, {});
    add(-1, 0, {});

    // Non-empty queries per valid user, in user order: lane groups take
    // them eight at a time once there are eight; below that each user
    // sweeps alone.
    std::map<UserId, int32_t> per_user;
    int32_t served = 0;
    for (const UserQuery& q : queries) {
      const bool empty = q.top_k <= 0 && q.score_items.empty();
      if (!empty && q.user >= 0 && q.user < data_->num_users()) {
        ++per_user[q.user];
        ++served;
      }
    }
    ASSERT_EQ(per_user.size(), static_cast<size_t>(valid_users));
    const bool lanes =
        per_user.size() >= static_cast<size_t>(WalkKernel::kLanes);
    std::vector<int32_t> expected_widths;
    int32_t users = 0;
    for (const auto& [user, count] : per_user) {
      if (!lanes || users++ % WalkKernel::kLanes == 0) {
        expected_widths.push_back(0);
      }
      expected_widths.back() += count;
    }
    std::sort(expected_widths.begin(), expected_widths.end());
    ASSERT_EQ(expected_widths.size(), lanes ? 9u + 1u : 7u);

    for (const auto& walker : Walkers()) {
      std::vector<UserQueryResult> alone;
      for (const UserQuery& q : queries) {
        alone.push_back(ServeAlone(*walker, q));
      }
      std::mutex mu;
      std::vector<int32_t> widths;
      const std::function<void(int32_t)> observer = [&](int32_t width) {
        std::lock_guard<std::mutex> lock(mu);
        widths.push_back(width);
      };
      for (size_t threads : {1u, 8u}) {
        BatchOptions options;
        options.num_threads = threads;
        options.fused_width_observer = &observer;
        widths.clear();
        const auto batch = walker->QueryBatch(queries, options);
        ASSERT_EQ(batch.size(), queries.size());
        const std::string label = walker->name() + " " +
                                  std::to_string(valid_users) + " users @" +
                                  std::to_string(threads) + "t";
        for (size_t i = 0; i < queries.size(); ++i) {
          ExpectSameResults(alone[i], batch[i],
                            label + " query " + std::to_string(i));
        }
        EXPECT_EQ(batch[bad_item_query].status.code(),
                  StatusCode::kOutOfRange)
            << label;
        std::sort(widths.begin(), widths.end());
        EXPECT_EQ(expected_widths, widths) << label;
        EXPECT_EQ(std::accumulate(widths.begin(), widths.end(), 0), served)
            << label;
      }
    }
  }
}

TEST_F(WholeGraphPlanTest, CacheIsNeverConsultedAndNothingIsCopied) {
  const std::vector<UserQuery> queries = Queries();
  for (const auto& walker : Walkers()) {
    BatchOptions uncached;
    uncached.num_threads = 1;
    const auto expected = walker->QueryBatch(queries, uncached);
    SubgraphCache cache;
    BatchOptions cached;
    cached.num_threads = 8;
    cached.subgraph_cache = &cache;
    const uint64_t copies_before = BipartiteGraph::CopyCountForTesting();
    const auto cold = walker->QueryBatch(queries, cached);
    const auto warm = walker->QueryBatch(queries, cached);
    EXPECT_EQ(BipartiteGraph::CopyCountForTesting(), copies_before)
        << walker->name() << ": a whole-graph query copied a graph";
    const SubgraphCacheStats stats = cache.Stats();
    EXPECT_EQ(stats.hits + stats.misses, 0u) << walker->name();
    EXPECT_EQ(stats.misses, 0u) << walker->name();
    EXPECT_EQ(stats.inserts, 0u) << walker->name();
    EXPECT_EQ(stats.coalesced_waits, 0u) << walker->name();
    EXPECT_EQ(stats.entries, 0u) << walker->name();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(expected[i], cold[i], walker->name() + " cold");
      ExpectSameResults(expected[i], warm[i], walker->name() + " warm");
    }
  }
}

}  // namespace
}  // namespace longtail
