// Walk-kernel / legacy parity: the blocked, pre-normalized WalkKernel
// sweeps must agree with the retained reference loop
// (AbsorbingValueTruncatedReference) on random bipartite graphs — including
// isolated nodes, all-absorbing and empty-absorbing sets, and empty
// subgraphs — and the kernel-served recommenders must stay bit-identical
// between the sequential and batch paths at 1 and 8 threads.
//
// Tolerance contract (documented in docs/KERNELS.md): the kernel
// pre-divides weights by degree and re-associates the row sum, so ordinary
// transient rows agree with the reference to ~1e-13 relative per
// iteration; absorbing rows are exactly 0 and isolated transient rows are
// bit-identical (same two-operand additions) on both paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "graph/markov.h"
#include "graph/subgraph.h"
#include "graph/walk_kernel.h"
#include "graph/walk_layout.h"

namespace longtail {
namespace {

/// Random bipartite graph with `edge_prob` density; users/items past the
/// `connected_*` counts are left isolated on purpose.
BipartiteGraph RandomGraph(int32_t num_users, int32_t num_items,
                           double edge_prob, uint64_t seed,
                           int32_t isolated_users = 0,
                           int32_t isolated_items = 0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int> rating(1, 5);
  const int32_t connected_users = num_users - isolated_users;
  const int32_t connected_items = num_items - isolated_items;
  std::vector<std::vector<std::pair<NodeId, double>>> adj(num_users +
                                                          num_items);
  for (int32_t u = 0; u < connected_users; ++u) {
    for (int32_t i = 0; i < connected_items; ++i) {
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

void ExpectSweepParity(const BipartiteGraph& g,
                       const std::vector<bool>& absorbing,
                       const std::vector<double>& costs, int iterations,
                       const std::string& label) {
  std::vector<double> ref, ref_scratch, ker, ker_scratch;
  AbsorbingValueTruncatedReference(g, absorbing, costs, iterations, &ref,
                                   &ref_scratch);
  AbsorbingValueTruncated(g, absorbing, costs, iterations, &ker,
                          &ker_scratch);
  ASSERT_EQ(ref.size(), ker.size()) << label;
  for (size_t v = 0; v < ref.size(); ++v) {
    const double tol =
        1e-12 * std::max({1.0, std::abs(ref[v]), std::abs(ker[v])});
    EXPECT_NEAR(ref[v], ker[v], tol) << label << " node " << v;
    if (absorbing[v]) {
      // Absorbing rows are pinned at exactly zero on both paths.
      EXPECT_EQ(0.0, ker[v]) << label << " node " << v;
    } else if (g.WeightedDegree(v) <= 0.0) {
      // Isolated transient rows perform the same two-operand additions on
      // both paths, so they must match bit for bit.
      EXPECT_EQ(ref[v], ker[v]) << label << " node " << v;
    }
  }
}

TEST(WalkKernelTest, MatchesReferenceOnRandomGraphs) {
  struct Config {
    int32_t users, items, isolated_users, isolated_items;
    double density, absorbing_prob;
  };
  const Config configs[] = {
      {40, 30, 0, 0, 0.15, 0.2},
      {80, 120, 5, 9, 0.05, 0.1},   // sparse, with isolated nodes
      {17, 11, 3, 2, 0.60, 0.5},    // dense, heavy absorbing set
      {64, 64, 0, 0, 0.02, 0.05},   // nearly disconnected
      {1, 1, 0, 0, 1.0, 0.5},       // minimal
  };
  uint64_t seed = 1000;
  for (const Config& c : configs) {
    const BipartiteGraph g = RandomGraph(c.users, c.items, c.density, ++seed,
                                         c.isolated_users, c.isolated_items);
    const int32_t n = g.num_nodes();
    for (int rep = 0; rep < 3; ++rep) {
      const auto absorbing = RandomAbsorbing(n, c.absorbing_prob, ++seed);
      const std::string label = "graph " + std::to_string(c.users) + "x" +
                                std::to_string(c.items) + " rep " +
                                std::to_string(rep);
      ExpectSweepParity(g, absorbing, std::vector<double>(n, 1.0), 15,
                        label + " unit-cost");
      ExpectSweepParity(g, absorbing, RandomCosts(n, ++seed), 15,
                        label + " random-cost");
    }
  }
}

TEST(WalkKernelTest, AllAbsorbingIsExactlyZero) {
  const BipartiteGraph g = RandomGraph(20, 25, 0.2, 7);
  const std::vector<bool> absorbing(g.num_nodes(), true);
  std::vector<double> value, scratch;
  AbsorbingValueTruncated(g, absorbing,
                          std::vector<double>(g.num_nodes(), 1.0), 15,
                          &value, &scratch);
  for (double v : value) EXPECT_EQ(0.0, v);
}

TEST(WalkKernelTest, EmptyAbsorbingSetMatchesReference) {
  // No absorbing nodes: every value grows toward τ·cost. The kernel must
  // track the reference (and neither may blow up or NaN).
  const BipartiteGraph g = RandomGraph(30, 20, 0.2, 11, 2, 3);
  const int32_t n = g.num_nodes();
  ExpectSweepParity(g, std::vector<bool>(n, false), RandomCosts(n, 12), 25,
                    "empty absorbing set");
}

TEST(WalkKernelTest, ZeroIterationsLeavesZeros) {
  const BipartiteGraph g = RandomGraph(10, 10, 0.3, 21);
  std::vector<double> value, scratch;
  AbsorbingValueTruncated(g, RandomAbsorbing(g.num_nodes(), 0.3, 22),
                          std::vector<double>(g.num_nodes(), 1.0), 0, &value,
                          &scratch);
  ASSERT_EQ(static_cast<size_t>(g.num_nodes()), value.size());
  for (double v : value) EXPECT_EQ(0.0, v);
}

TEST(WalkKernelTest, EmptySeedSubgraphAndEmptyGraph) {
  // Empty seed set → empty subgraph → the kernel must handle n == 0.
  const BipartiteGraph g = RandomGraph(12, 8, 0.3, 31);
  WalkWorkspace ws;
  const Subgraph& sub = ExtractSubgraphInto(g, {}, SubgraphOptions{}, &ws);
  EXPECT_EQ(0, sub.graph.num_nodes());
  std::vector<double> value, scratch;
  AbsorbingValueTruncated(sub.graph, {}, {}, 15, &ws.kernel, &value,
                          &scratch);
  EXPECT_TRUE(value.empty());
  // Default-constructed (empty) graph through the allocating flavour.
  const std::vector<double> empty =
      AbsorbingValueTruncated(BipartiteGraph(), {}, {}, 15);
  EXPECT_TRUE(empty.empty());
}

TEST(WalkKernelTest, RebuildAcrossQueriesMatchesFreshKernel) {
  // One long-lived kernel (the WalkWorkspace situation) recompiled for a
  // sequence of different graphs and absorbing sets must match a fresh
  // kernel on every query, bit for bit.
  WalkKernel reused;
  uint64_t seed = 500;
  for (int query = 0; query < 5; ++query) {
    const BipartiteGraph g =
        RandomGraph(20 + 7 * query, 30 - 3 * query, 0.2, ++seed, query, 1);
    const int32_t n = g.num_nodes();
    const auto absorbing = RandomAbsorbing(n, 0.25, ++seed);
    const auto costs = RandomCosts(n, ++seed);
    std::vector<double> fresh, fresh_scratch, reused_value, reused_scratch;
    AbsorbingValueTruncated(g, absorbing, costs, 10, &fresh, &fresh_scratch);
    AbsorbingValueTruncated(g, absorbing, costs, 10, &reused, &reused_value,
                            &reused_scratch);
    ASSERT_EQ(fresh.size(), reused_value.size());
    for (size_t v = 0; v < fresh.size(); ++v) {
      EXPECT_EQ(fresh[v], reused_value[v]) << "query " << query;
    }
  }
}

TEST(WalkKernelTest, ItemValuesSweepMatchesFullSweepBitwise) {
  // The production ranking sweep computes only the alternating chain the
  // item-side values depend on; those values must be BIT-identical to the
  // full double-buffered sweep, including isolated items (which take two
  // chained cost additions per step) — at both even and odd τ.
  uint64_t seed = 9000;
  for (int iterations : {0, 1, 2, 7, 15, 16}) {
    const BipartiteGraph g = RandomGraph(40, 35, 0.12, ++seed, 4, 5);
    const int32_t n = g.num_nodes();
    const auto absorbing = RandomAbsorbing(n, 0.15, ++seed);
    const auto costs = RandomCosts(n, ++seed);
    WalkKernel kernel;
    kernel.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
    kernel.CompileAbsorbingSweep(absorbing, costs);
    std::vector<double> full, scratch, ranking;
    kernel.SweepTruncated(iterations, &full, &scratch);
    kernel.SweepTruncatedItemValues(iterations, &ranking);
    ASSERT_EQ(full.size(), ranking.size());
    for (int32_t v = g.num_users(); v < n; ++v) {
      EXPECT_EQ(full[v], ranking[v])
          << "item node " << v << " tau " << iterations;
    }
  }
}

TEST(WalkKernelTest, ApplyColumnStochasticMatchesPprScatter) {
  const BipartiteGraph g = RandomGraph(25, 35, 0.15, 77, 2, 2);
  const int32_t n = g.num_nodes();
  std::mt19937_64 rng(78);
  std::uniform_real_distribution<double> mass(0.0, 1.0);
  std::vector<double> x(n), restart(n);
  for (int32_t v = 0; v < n; ++v) {
    x[v] = mass(rng);
    restart[v] = mass(rng);
  }
  const double lambda = 0.5;
  // Reference: the pre-kernel edge-by-edge scatter of (1-λ)r + λPᵀx.
  std::vector<double> expected(n);
  for (int32_t v = 0; v < n; ++v) expected[v] = (1.0 - lambda) * restart[v];
  for (int32_t v = 0; v < n; ++v) {
    const double d = g.WeightedDegree(v);
    if (d <= 0.0) continue;
    const double out = lambda * x[v] / d;
    const auto nbrs = g.Neighbors(v);
    const auto wts = g.Weights(v);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += out * wts[k];
    }
  }
  WalkKernel kernel;
  kernel.BuildTransitions(g, WalkKernel::Normalization::kColumnStochastic);
  std::vector<double> actual(n);
  kernel.Apply(lambda, x.data(), 1.0 - lambda, restart.data(), actual.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_NEAR(expected[v], actual[v],
                1e-12 * std::max(1.0, std::abs(expected[v])))
        << "node " << v;
  }
}

TEST(WalkKernelTest, ApplyRawMatchesKatzScatter) {
  const BipartiteGraph g = RandomGraph(30, 20, 0.2, 91);
  const int32_t n = g.num_nodes();
  std::mt19937_64 rng(92);
  std::uniform_real_distribution<double> mass(0.0, 1.0);
  std::vector<double> x(n);
  for (int32_t v = 0; v < n; ++v) x[v] = mass(rng) < 0.5 ? 0.0 : mass(rng);
  const double beta = 0.01;
  std::vector<double> expected(n, 0.0);
  for (int32_t v = 0; v < n; ++v) {
    if (x[v] == 0.0) continue;
    const auto nbrs = g.Neighbors(v);
    const auto wts = g.Weights(v);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += beta * x[v] * wts[k];
    }
  }
  WalkKernel kernel;
  kernel.BuildTransitions(g, WalkKernel::Normalization::kRaw);
  std::vector<double> actual(n);
  kernel.Apply(beta, x.data(), 0.0, nullptr, actual.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_NEAR(expected[v], actual[v],
                1e-12 * std::max(1.0, std::abs(expected[v])))
        << "node " << v;
    if (expected[v] == 0.0) {
      // Nodes no mass can reach must stay exactly zero (katz_test relies
      // on exact zeros to mark unreachable items).
      EXPECT_EQ(0.0, actual[v]) << "node " << v;
    }
  }
}

TEST(WalkKernelTest, ApplySparseFrontierTakesPushAndMatchesScatter) {
  // A single-nonzero input (the first Katz/PPR step) must route through
  // the sparse push path and still match the reference scatter for both
  // Apply normalizations.
  const BipartiteGraph g = RandomGraph(40, 30, 0.15, 131);
  const int32_t n = g.num_nodes();
  std::vector<double> x(n, 0.0), restart(n, 0.0);
  const NodeId source = g.UserNode(7);
  x[source] = 1.0;
  for (int32_t v = 0; v < n; ++v) restart[v] = 0.01 * (v + 1);
  {
    std::vector<double> expected(n);
    const double lambda = 0.5;
    for (int32_t v = 0; v < n; ++v) expected[v] = (1.0 - lambda) * restart[v];
    const double d = g.WeightedDegree(source);
    ASSERT_GT(d, 0.0);
    const auto nbrs = g.Neighbors(source);
    const auto wts = g.Weights(source);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += lambda / d * wts[k];
    }
    WalkKernel kernel;
    kernel.BuildTransitions(g, WalkKernel::Normalization::kColumnStochastic);
    std::vector<double> actual(n);
    kernel.Apply(lambda, x.data(), 1.0 - lambda, restart.data(),
                 actual.data());
    for (int32_t v = 0; v < n; ++v) {
      EXPECT_NEAR(expected[v], actual[v],
                  1e-12 * std::max(1.0, std::abs(expected[v])))
          << "node " << v;
    }
  }
  {
    const double beta = 0.01;
    std::vector<double> expected(n, 0.0);
    const auto nbrs = g.Neighbors(source);
    const auto wts = g.Weights(source);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      expected[nbrs[k]] += beta * wts[k];
    }
    WalkKernel kernel;
    kernel.BuildTransitions(g, WalkKernel::Normalization::kRaw);
    std::vector<double> actual(n);
    kernel.Apply(beta, x.data(), 0.0, nullptr, actual.data());
    for (int32_t v = 0; v < n; ++v) {
      EXPECT_NEAR(expected[v], actual[v],
                  1e-12 * std::max(1.0, std::abs(expected[v])))
          << "node " << v;
      if (expected[v] == 0.0) EXPECT_EQ(0.0, actual[v]) << "node " << v;
    }
  }
}

// Runtime ISA dispatch: one portable binary carries a scalar and (on
// x86-64 toolchains) an AVX2 row-gather; the CPUID probe picks one at
// kernel construction. The two must be BIT-identical — same per-lane
// accumulation, same reduction tree, no FP contraction — across every
// sweep flavour. On hosts without AVX2 both kernels bind "generic" and
// the comparison is trivially green; the CI AVX2 leg pins the real case.
TEST(WalkKernelTest, RuntimeIsaDispatchBitIdenticalToGeneric) {
  const BipartiteGraph g = RandomGraph(70, 90, 0.12, 4242, 4, 5);
  const int32_t n = g.num_nodes();
  const auto absorbing = RandomAbsorbing(n, 0.15, 4243);
  const auto costs = RandomCosts(n, 4244);

  WalkKernel dispatched;  // whatever the CPU probe picked
  WalkKernel generic;
  generic.ForceGenericIsaForTesting();
  EXPECT_STREQ(generic.isa_name(), "generic");
  if (WalkKernel::RuntimeAvx2Available()) {
    EXPECT_STREQ(dispatched.isa_name(), "avx2");
  } else {
    EXPECT_STREQ(dispatched.isa_name(), "generic");
  }

  // Absorbing sweeps: full double-buffered and in-place ranking flavours.
  dispatched.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
  generic.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
  dispatched.CompileAbsorbingSweep(absorbing, costs);
  generic.CompileAbsorbingSweep(absorbing, costs);
  for (int tau : {1, 2, 7, 15}) {
    std::vector<double> va, sa, vb, sb;
    dispatched.SweepTruncated(tau, &va, &sa);
    generic.SweepTruncated(tau, &vb, &sb);
    ASSERT_EQ(va.size(), vb.size());
    for (size_t v = 0; v < va.size(); ++v) {
      EXPECT_EQ(va[v], vb[v]) << "full sweep tau " << tau << " node " << v;
    }
    std::vector<double> ra, rb;
    dispatched.SweepTruncatedItemValues(tau, &ra);
    generic.SweepTruncatedItemValues(tau, &rb);
    for (int32_t v = g.num_users(); v < n; ++v) {
      EXPECT_EQ(ra[v], rb[v]) << "ranking sweep tau " << tau << " item row "
                              << v;
    }
  }

  // Power-iteration Apply, dense pull path (x dense everywhere so the
  // sparse push is never chosen), with and without a restart vector.
  WalkKernel dispatched_col, generic_col;
  generic_col.ForceGenericIsaForTesting();
  dispatched_col.BuildTransitions(
      g, WalkKernel::Normalization::kColumnStochastic);
  generic_col.BuildTransitions(g,
                               WalkKernel::Normalization::kColumnStochastic);
  std::vector<double> x(n), restart(n);
  for (int32_t v = 0; v < n; ++v) {
    x[v] = 0.25 + 0.5 * ((v * 2654435761u) % 97) / 97.0;
    restart[v] = v % 7 == 0 ? 1.0 / 7.0 : 0.0;
  }
  std::vector<double> ya(n), yb(n);
  dispatched_col.Apply(0.85, x.data(), 0.15, restart.data(), ya.data());
  generic_col.Apply(0.85, x.data(), 0.15, restart.data(), yb.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_EQ(ya[v], yb[v]) << "apply+restart node " << v;
  }
  dispatched_col.Apply(0.5, x.data(), 0.0, nullptr, ya.data());
  generic_col.Apply(0.5, x.data(), 0.0, nullptr, yb.data());
  for (int32_t v = 0; v < n; ++v) {
    EXPECT_EQ(ya[v], yb[v]) << "apply node " << v;
  }
}

// Lane sweeps: CompileAbsorbingLanes + SweepTruncatedItemValuesLanes run up
// to eight queries over one identity-order plan in a single pass. Every
// lane must be BIT-identical, on every node, to SweepTruncatedItemValues
// for that lane's query on the same plan — whatever the other lanes
// absorb. Covered: disjoint and overlapping absorbing sets, a lane whose
// every item absorbs, an HT-style single-user lane, an empty absorbing
// set, padding lanes, isolated transient nodes (self = 1), unit and
// non-unit costs, τ ∈ {0, 1, 2, 15}, simple and blocked identity plans,
// and the dispatched vs the generic ISA.
uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::vector<std::vector<bool>> LaneAbsorbingSets(const BipartiteGraph& g,
                                                 uint64_t seed) {
  const int32_t n = g.num_nodes();
  std::vector<std::vector<bool>> lanes;
  lanes.push_back(RandomAbsorbing(n, 0.15, seed));
  // Disjoint from lane 0.
  std::vector<bool> disjoint = RandomAbsorbing(n, 0.2, seed + 1);
  for (int32_t v = 0; v < n; ++v) {
    if (lanes[0][v]) disjoint[v] = false;
  }
  lanes.push_back(disjoint);
  // Overlapping lane 0: a superset of half of it plus fresh nodes.
  std::vector<bool> overlap = RandomAbsorbing(n, 0.1, seed + 2);
  for (int32_t v = 0; v < n; v += 2) {
    if (lanes[0][v]) overlap[v] = true;
  }
  lanes.push_back(overlap);
  // Every item absorbs.
  std::vector<bool> all_items(n, false);
  for (int32_t v = g.num_users(); v < n; ++v) all_items[v] = true;
  lanes.push_back(all_items);
  // HT-style: one user node absorbs.
  std::vector<bool> one_user(n, false);
  if (g.num_users() > 0) one_user[0] = true;
  lanes.push_back(one_user);
  // Nothing absorbs.
  lanes.push_back(std::vector<bool>(n, false));
  // AT-style: a user's rated items, for two more users.
  for (UserId u : {1, 2}) {
    std::vector<bool> rated(n, false);
    if (u < g.num_users()) {
      for (NodeId nbr : g.Neighbors(g.UserNode(u))) rated[nbr] = true;
    }
    lanes.push_back(rated);
  }
  return lanes;
}

TEST(WalkKernelTest, LaneSweepBitIdenticalPerLane) {
  uint64_t seed = 52000;
  struct Size {
    int32_t users, items;
    double density;
  };
  // The last size spans several L1 row tiles of the blocked plan.
  for (const auto& [users, items, density] :
       {Size{60, 70, 0.12}, Size{9, 13, 0.3}, Size{900, 700, 0.01}}) {
    // Isolated users and items on both sides: rows with self = 1.
    const BipartiteGraph g = RandomGraph(users, items, density, ++seed, 3, 4);
    const int32_t n = g.num_nodes();
    const auto lanes = LaneAbsorbingSets(g, seed += 10);
    ASSERT_EQ(lanes.size(), static_cast<size_t>(WalkKernel::kLanes));
    for (bool unit_cost : {true, false}) {
      const std::vector<double> costs =
          unit_cost ? std::vector<double>(n, 1.0) : RandomCosts(n, ++seed);
      for (WalkKernel::SweepMode plan :
           {WalkKernel::SweepMode::kSimple, WalkKernel::SweepMode::kBlocked}) {
        for (bool generic : {false, true}) {
          // Padding: compile 3 lanes, then all 8.
          for (size_t width : {size_t{3}, lanes.size()}) {
            WalkKernel single, laned;
            single.ForcePlanForTesting(plan);
            laned.ForcePlanForTesting(plan);
            if (generic) laned.ForceGenericIsaForTesting();
            single.BuildTransitions(g,
                                    WalkKernel::Normalization::kRowStochastic);
            laned.BuildTransitions(g,
                                   WalkKernel::Normalization::kRowStochastic);
            laned.CompileAbsorbingLanes(
                std::span<const std::vector<bool>>(lanes.data(), width),
                costs);
            for (int tau : {0, 1, 2, 15}) {
              laned.SweepTruncatedItemValuesLanes(tau);
              const std::string label =
                  std::string(laned.sweep_strategy()) +
                  (generic ? "/generic " : " ") + std::to_string(users) +
                  "x" + std::to_string(items) +
                  (unit_cost ? " unit" : " costs") + " width " +
                  std::to_string(width) + " tau " + std::to_string(tau);
              std::vector<double> ref, got;
              for (int l = 0; l < WalkKernel::kLanes; ++l) {
                laned.LaneValues(l, &got);
                ASSERT_EQ(got.size(), static_cast<size_t>(n)) << label;
                if (static_cast<size_t>(l) >= width) {
                  // Padding lanes absorb everywhere: exactly +0.0.
                  for (int32_t v = 0; v < n; ++v) {
                    EXPECT_EQ(Bits(got[v]), Bits(0.0))
                        << label << " padding lane " << l << " node " << v;
                  }
                  continue;
                }
                single.CompileAbsorbingSweep(lanes[l], costs);
                single.SweepTruncatedItemValues(tau, &ref);
                for (int32_t v = 0; v < n; ++v) {
                  EXPECT_EQ(Bits(ref[v]), Bits(got[v]))
                      << label << " lane " << l << " node " << v;
                }
              }
            }
          }
        }
      }
    }
  }
}

// Lane sweeps index values by original node id and normalize rows on the
// fly, so a reordered plan is refused rather than swept wrongly.
TEST(WalkKernelTest, LaneSweepRequiresIdentityOrderPlan) {
  const BipartiteGraph g = RandomGraph(30, 40, 0.2, 53000);
  const std::vector<std::vector<bool>> lanes(
      2, std::vector<bool>(g.num_nodes(), false));
  const std::vector<double> costs(g.num_nodes(), 1.0);
  WalkKernel kernel;
  kernel.ForcePlanForTesting(WalkKernel::SweepMode::kBlockedReordered);
  kernel.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
  ASSERT_TRUE(kernel.reordered());
  EXPECT_DEATH(kernel.CompileAbsorbingLanes(lanes, costs),
               "identity-order row-stochastic plan");
}

// The three execution plans — simple flat loop, L1-blocked tiles, blocked
// over a WalkLayout-permuted CSR — are *memory layout* decisions only: for
// the same query they must produce BIT-identical results, including the
// reordered plan, whose coefficients are scattered and outputs gathered
// through the permutation. Exercised against the auto plan on random
// graphs with isolated nodes and single-side (users-only / items-only)
// graphs, at several τ, on both the dispatched and the generic row-gather
// flavour.
TEST(WalkKernelTest, ExecutionPlansBitIdenticalAcrossLayouts) {
  struct Config {
    int32_t users, items, isolated_users, isolated_items;
    double density;
  };
  const Config configs[] = {
      {40, 30, 0, 0, 0.15},
      {80, 120, 5, 9, 0.05},  // sparse, isolated nodes on both sides
      {25, 0, 3, 0, 0.0},     // users only — every row isolated
      {0, 18, 0, 2, 0.0},     // items only
  };
  const WalkKernel::SweepMode plans[] = {
      WalkKernel::SweepMode::kSimple,
      WalkKernel::SweepMode::kBlocked,
      WalkKernel::SweepMode::kBlockedReordered,
  };
  uint64_t seed = 31000;
  for (const Config& c : configs) {
    const BipartiteGraph g = RandomGraph(c.users, c.items, c.density, ++seed,
                                         c.isolated_users, c.isolated_items);
    const int32_t n = g.num_nodes();
    const auto absorbing = RandomAbsorbing(n, 0.2, ++seed);
    const auto costs = RandomCosts(n, ++seed);
    for (int tau : {1, 7, 16}) {
      WalkKernel base;  // auto plan, dispatched ISA
      base.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
      base.CompileAbsorbingSweep(absorbing, costs);
      std::vector<double> full, scratch, rank;
      base.SweepTruncated(tau, &full, &scratch);
      base.SweepTruncatedItemValues(tau, &rank);
      for (bool generic : {false, true}) {
        for (WalkKernel::SweepMode plan : plans) {
          WalkKernel k;
          if (generic) k.ForceGenericIsaForTesting();
          k.ForcePlanForTesting(plan);
          k.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
          k.CompileAbsorbingSweep(absorbing, costs);
          const std::string label =
              std::string(k.sweep_strategy()) + (generic ? "/generic" : "") +
              " " + std::to_string(c.users) + "x" + std::to_string(c.items) +
              " tau " + std::to_string(tau);
          std::vector<double> f2, s2, r2;
          k.SweepTruncated(tau, &f2, &s2);
          ASSERT_EQ(full.size(), f2.size()) << label;
          for (size_t v = 0; v < full.size(); ++v) {
            EXPECT_EQ(full[v], f2[v]) << label << " node " << v;
          }
          k.SweepTruncatedItemValues(tau, &r2);
          ASSERT_EQ(rank.size(), r2.size()) << label;
          for (int32_t v = g.num_users(); v < n; ++v) {
            EXPECT_EQ(rank[v], r2[v]) << label << " item row " << v;
          }
        }
      }
    }
  }
}

// Forced plans on the empty subgraph an empty seed set extracts (and on a
// default-constructed graph): every plan must handle n == 0.
TEST(WalkKernelTest, ForcedPlansHandleEmptySeedSubgraph) {
  const BipartiteGraph g = RandomGraph(12, 8, 0.3, 33000);
  for (WalkKernel::SweepMode plan :
       {WalkKernel::SweepMode::kSimple, WalkKernel::SweepMode::kBlocked,
        WalkKernel::SweepMode::kBlockedReordered}) {
    WalkWorkspace ws;
    ws.kernel.ForcePlanForTesting(plan);
    const Subgraph& sub = ExtractSubgraphInto(g, {}, SubgraphOptions{}, &ws);
    EXPECT_EQ(0, sub.graph.num_nodes());
    std::vector<double> value, scratch;
    AbsorbingValueTruncated(sub.graph, {}, {}, 15, &ws.kernel, &value,
                            &scratch);
    EXPECT_TRUE(value.empty());
  }
}

// Apply must also be layout-invariant, bit for bit: the sparse push runs
// in original id space off the graph's own CSR on every plan, and the
// dense pull preserves each row's entry order through the permutation.
// (kSimple is row-stochastic-only, which no Apply caller uses.)
TEST(WalkKernelTest, ApplyBitIdenticalAcrossBlockedPlans) {
  const BipartiteGraph g = RandomGraph(45, 35, 0.12, 35000, 3, 2);
  const int32_t n = g.num_nodes();
  std::vector<double> dense(n), restart(n), sparse(n, 0.0);
  for (int32_t v = 0; v < n; ++v) {
    dense[v] = 0.25 + 0.5 * ((v * 2654435761u) % 97) / 97.0;
    restart[v] = v % 5 == 0 ? 0.2 : 0.0;
  }
  sparse[g.UserNode(7)] = 1.0;  // frontier of one → the push path
  for (WalkKernel::Normalization norm :
       {WalkKernel::Normalization::kColumnStochastic,
        WalkKernel::Normalization::kRaw}) {
    WalkKernel base;  // auto plan, dispatched ISA
    base.BuildTransitions(g, norm);
    std::vector<double> y_dense(n), y_sparse(n);
    base.Apply(0.85, dense.data(), 0.15, restart.data(), y_dense.data());
    base.Apply(0.5, sparse.data(), 0.0, nullptr, y_sparse.data());
    for (bool generic : {false, true}) {
      for (WalkKernel::SweepMode plan :
           {WalkKernel::SweepMode::kBlocked,
            WalkKernel::SweepMode::kBlockedReordered}) {
        WalkKernel k;
        if (generic) k.ForceGenericIsaForTesting();
        k.ForcePlanForTesting(plan);
        k.BuildTransitions(g, norm);
        const std::string label = std::string(k.sweep_strategy()) +
                                  (generic ? "/generic" : "") +
                                  (norm == WalkKernel::Normalization::kRaw
                                       ? " raw"
                                       : " colstoch");
        std::vector<double> ya(n), yb(n);
        k.Apply(0.85, dense.data(), 0.15, restart.data(), ya.data());
        k.Apply(0.5, sparse.data(), 0.0, nullptr, yb.data());
        for (int32_t v = 0; v < n; ++v) {
          EXPECT_EQ(y_dense[v], ya[v]) << label << " dense node " << v;
          EXPECT_EQ(y_sparse[v], yb[v]) << label << " sparse node " << v;
        }
      }
    }
  }
}

// Eight workers, each with a private kernel sweeping the SAME shared
// WalkLayout (the SubgraphCache steady state: one payload, many adopting
// threads), must all match the single-threaded identity-order sweep bit
// for bit. The layout is read-only after build; this pins that no sweep
// mutates shared state.
TEST(WalkKernelTest, SharedLayoutParityAtOneAndEightThreads) {
  const BipartiteGraph g = RandomGraph(120, 100, 0.05, 36000, 4, 3);
  const int32_t n = g.num_nodes();
  const auto absorbing = RandomAbsorbing(n, 0.15, 36001);
  const auto costs = RandomCosts(n, 36002);
  constexpr int kTau = 15;

  WalkKernel identity;
  identity.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic);
  identity.CompileAbsorbingSweep(absorbing, costs);
  std::vector<double> expected_full, scratch, expected_rank;
  identity.SweepTruncated(kTau, &expected_full, &scratch);
  identity.SweepTruncatedItemValues(kTau, &expected_rank);

  auto layout = std::make_shared<WalkLayout>();
  BuildWalkLayout(g, /*with_row_prob=*/true, layout.get());

  for (size_t threads : {size_t{1}, size_t{8}}) {
    std::vector<std::vector<double>> full(threads), rank(threads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        WalkKernel k;
        k.BuildTransitions(g, WalkKernel::Normalization::kRowStochastic,
                           layout);
        k.CompileAbsorbingSweep(absorbing, costs);
        std::vector<double> s;
        k.SweepTruncated(kTau, &full[t], &s);
        k.SweepTruncatedItemValues(kTau, &rank[t]);
      });
    }
    for (auto& th : pool) th.join();
    for (size_t t = 0; t < threads; ++t) {
      ASSERT_EQ(expected_full.size(), full[t].size()) << threads << "t";
      for (size_t v = 0; v < expected_full.size(); ++v) {
        EXPECT_EQ(expected_full[v], full[t][v])
            << threads << "t worker " << t << " node " << v;
      }
      for (int32_t v = g.num_users(); v < n; ++v) {
        EXPECT_EQ(expected_rank[v], rank[t][v])
            << threads << "t worker " << t << " item row " << v;
      }
    }
  }
}

// The kernel serves every production path; sequential and batch results
// must therefore stay bit-identical at any thread count.
TEST(WalkKernelTest, RecommenderBatchParityAtOneAndEightThreads) {
  SyntheticSpec spec;
  spec.num_users = 90;
  spec.num_items = 70;
  spec.mean_user_degree = 9;
  spec.min_user_degree = 3;
  spec.num_genres = 5;
  spec.seed = 777;
  auto data = GenerateSyntheticData(spec);
  ASSERT_TRUE(data.ok());
  const Dataset& train = data->dataset;

  std::vector<std::unique_ptr<Recommender>> suite;
  suite.push_back(std::make_unique<HittingTimeRecommender>());
  suite.push_back(std::make_unique<AbsorbingTimeRecommender>());
  AbsorbingCostOptions ac;
  suite.push_back(std::make_unique<AbsorbingCostRecommender>(
      EntropySource::kItemBased, ac));
  for (auto& rec : suite) ASSERT_TRUE(rec->Fit(train).ok()) << rec->name();

  std::vector<UserId> users;
  for (UserId u = 0; u < 40; ++u) users.push_back(u);
  for (const auto& rec : suite) {
    std::vector<std::vector<ScoredItem>> sequential;
    for (UserId u : users) {
      auto top = rec->RecommendTopK(u, 10);
      ASSERT_TRUE(top.ok()) << rec->name() << " user " << u;
      sequential.push_back(std::move(top).value());
    }
    for (size_t threads : {size_t{1}, size_t{8}}) {
      BatchOptions options;
      options.num_threads = threads;
      const auto batch = rec->RecommendBatch(users, 10, options);
      ASSERT_EQ(users.size(), batch.size());
      for (size_t i = 0; i < users.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << rec->name();
        const auto& expected = sequential[i];
        const auto& actual = *batch[i];
        ASSERT_EQ(expected.size(), actual.size())
            << rec->name() << " @" << threads << "t user " << users[i];
        for (size_t k = 0; k < expected.size(); ++k) {
          EXPECT_EQ(expected[k].item, actual[k].item)
              << rec->name() << " @" << threads << "t user " << users[i];
          EXPECT_EQ(expected[k].score, actual[k].score)
              << rec->name() << " @" << threads << "t user " << users[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace longtail
