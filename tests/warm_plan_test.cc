// Zero-copy warm path: immutable shared WalkPlans built once at cache
// admission. Locks down the PR's three contracts:
//  1. Sharing — N kernels adopting ONE admission-built plan concurrently
//     (private scratch each) sweep bit-identically to a kernel that built
//     its own plan from the same inputs, with and without a layout.
//  2. Zero copies — a warm (cache-hit) query performs zero BipartiteGraph
//     copies and zero transition builds: adoption is a shared_ptr store.
//     The counter test fails on the old deep-copy AdoptSubgraph hit path.
//  3. Payload completeness — the cache admits subgraph + layout + plan +
//     node index together; every adopter shares the same plan object, the
//     payload node index answers global→local exactly like a fresh
//     extraction, and the plan's footprint shows up in the cache stats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/hitting_time.h"
#include "data/generator.h"
#include "graph/markov.h"
#include "graph/subgraph.h"
#include "graph/subgraph_cache.h"
#include "graph/walk_kernel.h"
#include "graph/walk_layout.h"

namespace longtail {
namespace {

/// Random bipartite graph with `edge_prob` density (same recipe as
/// walk_kernel_test.cc, so plan decisions are exercised on familiar
/// shapes).
BipartiteGraph RandomGraph(int32_t num_users, int32_t num_items,
                           double edge_prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> rating(1, 5);
  std::vector<std::vector<std::pair<NodeId, double>>> adj(num_users +
                                                          num_items);
  for (int32_t u = 0; u < num_users; ++u) {
    for (int32_t i = 0; i < num_items; ++i) {
      if (coin(rng) >= edge_prob) continue;
      const double w = static_cast<double>(rating(rng));
      adj[u].push_back({num_users + i, w});
      adj[num_users + i].push_back({u, w});
    }
  }
  return BipartiteGraph::FromAdjacency(num_users, num_items, adj);
}

std::vector<bool> RandomAbsorbing(int32_t n, double prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<bool> absorbing(n, false);
  for (int32_t v = 0; v < n; ++v) absorbing[v] = coin(rng) < prob;
  return absorbing;
}

std::vector<double> RandomCosts(int32_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> cost(0.0, 3.0);
  std::vector<double> costs(n);
  for (int32_t v = 0; v < n; ++v) costs[v] = cost(rng);
  return costs;
}

/// Sweeps `tau` ranking iterations against an adopted shared plan.
std::vector<double> SweepAdopted(const std::shared_ptr<const WalkPlan>& plan,
                                 const std::vector<bool>& absorbing,
                                 const std::vector<double>& costs, int tau) {
  WalkKernel kernel;
  kernel.AdoptPlan(plan);
  kernel.CompileAbsorbingSweep(absorbing, costs);
  std::vector<double> value;
  kernel.SweepTruncatedItemValues(tau, &value);
  return value;
}

// One plan, eight concurrently sweeping kernels, bit-identical to a
// private BuildTransitions — with and without an adopted layout.
TEST(WarmPlanTest, SharedPlanConcurrentSweepsMatchPrivateBuildBitExactly) {
  const BipartiteGraph g = RandomGraph(160, 140, 0.06, 77);
  const int32_t n = g.num_nodes();
  const std::vector<bool> absorbing = RandomAbsorbing(n, 0.2, 78);
  const std::vector<double> costs = RandomCosts(n, 79);
  constexpr int kTau = 15;

  for (const bool with_layout : {false, true}) {
    std::shared_ptr<const WalkLayout> layout;
    if (with_layout) {
      auto built = std::make_shared<WalkLayout>();
      BuildWalkLayout(g, /*with_row_prob=*/true, built.get());
      layout = std::move(built);
    }
    // Cold path: a kernel that builds its own plan.
    WalkKernel cold;
    cold.BuildTransitions(g, WalkNormalization::kRowStochastic, layout);
    cold.CompileAbsorbingSweep(absorbing, costs);
    std::vector<double> expected;
    cold.SweepTruncatedItemValues(kTau, &expected);

    // Warm path: one admission-style plan shared across eight threads.
    auto plan = std::make_shared<WalkPlan>();
    plan->Build(g, WalkNormalization::kRowStochastic, layout);
    ASSERT_TRUE(plan->built());
    EXPECT_STREQ(cold.sweep_strategy(), plan->sweep_strategy());
    EXPECT_EQ(cold.reordered(), plan->reordered());
    EXPECT_GT(plan->OwnedBytes(), 0u);

    std::vector<std::vector<double>> results(8);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t) {
      threads.emplace_back([&, t] {
        results[t] = SweepAdopted(plan, absorbing, costs, kTau);
      });
    }
    for (auto& th : threads) th.join();
    for (size_t t = 0; t < results.size(); ++t) {
      ASSERT_EQ(expected.size(), results[t].size());
      for (size_t v = 0; v < expected.size(); ++v) {
        // Bit-identical, not approximately equal: adoption must replay
        // the exact cold-path arithmetic.
        EXPECT_EQ(expected[v], results[t][v])
            << "layout=" << with_layout << " thread " << t << " node " << v;
      }
    }
  }
}

// The adopted-plan sweep stays within the kernel's documented tolerance of
// the retained reference loop (the same contract walk_kernel_test.cc pins
// for the cold path).
TEST(WarmPlanTest, AdoptedPlanAgreesWithReferenceLoop) {
  const BipartiteGraph g = RandomGraph(90, 70, 0.08, 11);
  const int32_t n = g.num_nodes();
  const std::vector<bool> absorbing = RandomAbsorbing(n, 0.25, 12);
  const std::vector<double> costs = RandomCosts(n, 13);
  constexpr int kTau = 12;

  std::vector<double> ref, ref_scratch;
  AbsorbingValueTruncatedReference(g, absorbing, costs, kTau, &ref,
                                   &ref_scratch);
  auto plan = std::make_shared<WalkPlan>();
  plan->Build(g, WalkNormalization::kRowStochastic);
  WalkKernel kernel;
  kernel.AdoptPlan(plan);
  kernel.CompileAbsorbingSweep(absorbing, costs);
  std::vector<double> value, scratch;
  kernel.SweepTruncated(kTau, &value, &scratch);
  ASSERT_EQ(ref.size(), value.size());
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_NEAR(ref[v], value[v],
                1e-12 * std::max(1.0, std::abs(ref[v])))
        << "node " << v;
  }
}

class WarmPathCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_users = 120;
    spec.num_items = 90;
    spec.mean_user_degree = 12;
    spec.min_user_degree = 3;
    spec.num_genres = 5;
    spec.seed = 20128;
    auto data = GenerateSyntheticData(spec);
    ASSERT_TRUE(data.ok());
    data_ = new Dataset(std::move(data).value().dataset);
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static Dataset* data_;
};

Dataset* WarmPathCacheTest::data_ = nullptr;

// The PR's headline regression test: a warm query batch performs ZERO
// BipartiteGraph copies. The cold pass pays admission copies (the counter
// moving there proves it counts); the warm pass must not move it at all.
// This test fails on the pre-plan hit path, whose deep-copy AdoptSubgraph
// copied the payload's induced graph into the workspace on every hit.
TEST_F(WarmPathCacheTest, WarmQueryPerformsZeroGraphCopies) {
  // µ below the corpus's 90 items: at µ >= the catalog size the walker
  // sweeps its Fit-time whole-graph plan and never consults the cache.
  GraphWalkOptions capped;
  capped.max_subgraph_items = 45;
  HittingTimeRecommender ht(capped);
  ASSERT_TRUE(ht.Fit(*data_).ok());
  const std::vector<ItemId> candidates = {0, 2, 5, 9};
  std::vector<UserQuery> queries;
  for (UserId u = 0; u < 30; ++u) {
    UserQuery q;
    q.user = u;
    q.top_k = 10;
    q.score_items = candidates;
    queries.push_back(q);
  }
  SubgraphCache cache;
  BatchOptions options;
  options.num_threads = 4;
  options.subgraph_cache = &cache;

  const uint64_t before_cold = BipartiteGraph::CopyCountForTesting();
  const auto cold = ht.QueryBatch(queries, options);
  const uint64_t after_cold = BipartiteGraph::CopyCountForTesting();
  // Admission detaches a payload copy per inserted subgraph, so the cold
  // pass must move the counter — otherwise this test is vacuous.
  ASSERT_GT(after_cold, before_cold);

  const auto warm = ht.QueryBatch(queries, options);
  const uint64_t after_warm = BipartiteGraph::CopyCountForTesting();
  EXPECT_EQ(after_cold, after_warm)
      << "a cache-hit query copied a BipartiteGraph; the warm path must "
         "adopt the shared payload without any O(E)/O(V) work";
  EXPECT_GE(cache.Stats().hits, queries.size());

  // Zero-copy must not mean approximately-equal: warm == cold bit for bit.
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    ASSERT_EQ(cold[i].top_k.size(), warm[i].top_k.size()) << "query " << i;
    for (size_t k = 0; k < cold[i].top_k.size(); ++k) {
      EXPECT_EQ(cold[i].top_k[k].item, warm[i].top_k[k].item);
      EXPECT_EQ(cold[i].top_k[k].score, warm[i].top_k[k].score);
    }
    EXPECT_EQ(cold[i].scores, warm[i].scores) << "query " << i;
  }
}

// Admission publishes one plan; every adopter shares that exact object,
// and its footprint is visible in the cache stats.
TEST_F(WarmPathCacheTest, AdoptersShareOneAdmissionBuiltPlan) {
  const BipartiteGraph g = BipartiteGraph::FromDataset(*data_, true);
  const std::vector<NodeId> seeds = {g.UserNode(3)};
  SubgraphOptions options;
  options.max_items = 50;
  SubgraphCache cache;

  WalkWorkspace leader;
  cache.GetOrExtract(g, seeds, options, &leader);
  ASSERT_NE(leader.sub().plan, nullptr);
  ASSERT_TRUE(leader.sub().plan->built());
  ASSERT_TRUE(leader.sub().node_index.built());

  WalkWorkspace adopter;
  cache.GetOrExtract(g, seeds, options, &adopter);
  // Same payload, same plan object — not an equal copy.
  EXPECT_EQ(&leader.sub(), &adopter.sub());
  EXPECT_EQ(leader.sub().plan.get(), adopter.sub().plan.get());

  const SubgraphCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.plan_resident_bytes, 0u);
  EXPECT_LT(stats.plan_resident_bytes, stats.resident_bytes);
}

// The payload's compact node index answers global→local exactly like a
// fresh extraction's lookup tables, for every global user and item.
TEST_F(WarmPathCacheTest, PayloadNodeIndexMatchesFreshExtraction) {
  const BipartiteGraph g = BipartiteGraph::FromDataset(*data_, true);
  const std::vector<NodeId> seeds = {g.UserNode(7)};
  SubgraphOptions options;
  options.max_items = 40;

  const Subgraph fresh = ExtractSubgraph(g, seeds, options);
  SubgraphCache cache;
  WalkWorkspace ws;
  cache.GetOrExtract(g, seeds, options, &ws);  // cold: insert
  WalkWorkspace warm;
  cache.GetOrExtract(g, seeds, options, &warm);  // hit: adopt payload
  const Subgraph& adopted = warm.sub();
  ASSERT_TRUE(adopted.node_index.built());
  ASSERT_EQ(fresh.users, adopted.users);
  ASSERT_EQ(fresh.items, adopted.items);
  for (UserId u = 0; u < data_->num_users(); ++u) {
    EXPECT_EQ(fresh.LocalUserNode(u), adopted.LocalUserNode(u))
        << "user " << u;
  }
  for (ItemId i = 0; i < data_->num_items(); ++i) {
    EXPECT_EQ(fresh.LocalItemNode(i), adopted.LocalItemNode(i))
        << "item " << i;
  }
}

}  // namespace
}  // namespace longtail
