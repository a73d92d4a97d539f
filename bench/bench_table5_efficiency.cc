// Table 5 reproduction: online recommendation time cost for LDA, PureSVD,
// AC2 and DPPR on the Douban-like corpus, top-10 per user. Offline training
// (LDA Gibbs, SVD) is excluded, as in the paper.
//
// Paper row: LDA 0.47s, PureSVD 0.45s, AC2 0.52s, DPPR 13.5s (per user,
// single-threaded, 2011-era Java on the full 89,908-item Douban corpus).
// Absolute numbers differ on the scaled C++ substrate; the shape to check
// is pruned AC2 ≪ DPPR (full-graph power iteration per query). An extra
// µ-pruned AC2 row makes the paper's subgraph cost mechanism explicit.
//
// Beyond the paper, a batch-engine section times RecommendBatch at 1 and
// --threads workers (workspace-reused walks on the long-lived
// ServingPool), a serving-layer section times the graph walkers against a
// shared SubgraphCache (cold fill vs. steady state, with per-phase hit
// rates), and the whole table is emitted to BENCH_table5.json so future
// changes have a perf trajectory to compare against.
#include "bench/bench_common.h"
#include "bench/synthetic_walk_graph.h"

#include <filesystem>
#include <thread>

#include <future>

#include "core/absorbing_cost.h"
#include "core/hitting_time.h"
#include "graph/markov.h"
#include "graph/subgraph.h"
#include "graph/subgraph_cache.h"
#include "graph/walk_kernel.h"
#include "serving/model_registry.h"
#include "serving/serving_engine.h"

namespace longtail {
namespace {

struct AlgorithmTimings {
  std::string name;
  double fit_seconds = 0.0;
  double single_seconds_per_user = 0.0;
  double batch1_seconds_per_user = 0.0;   // batch engine, 1 worker
  double batchn_seconds_per_user = 0.0;   // batch engine, `threads` workers
  size_t threads = 0;
};

/// One graph walker served through the shared SubgraphCache: a cold pass
/// that fills it and a steady-state pass that runs on hits.
struct ServingTimings {
  std::string name;
  double cold_seconds_per_user = 0.0;
  double steady_seconds_per_user = 0.0;
  double cold_hit_rate = 0.0;
  double steady_hit_rate = 0.0;
};

double TimeBatch(const Recommender& rec, const std::vector<UserId>& users,
                 int k, size_t threads, SubgraphCache* cache = nullptr) {
  BatchOptions options;
  options.num_threads = threads;
  options.subgraph_cache = cache;
  WallTimer timer;
  auto lists = rec.RecommendBatch(users, k, options);
  const double elapsed = timer.ElapsedSeconds();
  LT_CHECK_EQ(lists.size(), users.size());
  return elapsed / users.size();
}

/// The ServingEngine front door measured three ways: steady-state traffic
/// through the eval engine path (per walker), single-flight coalescing on
/// identical cold queries, and admission-control rejection under a flood.
struct EngineBench {
  size_t max_batch_size = 0;
  size_t threads = 0;
  /// name → seconds/user served through the engine (queue + batch + walk).
  std::vector<std::pair<std::string, double>> traffic;
  /// Engine counters after the traffic pass (queue latency, batch-size
  /// histogram).
  EngineStats traffic_stats;
  // Single-flight experiment: identical cold requests against a fresh
  // cache.
  uint64_t cold_identical_requests = 0;
  uint64_t cold_extractions = 0;
  uint64_t cold_coalesced_waits = 0;
  double coalesced_rate = 0.0;
  // Admission experiment: flood a small queue without pumping.
  uint64_t flood_submitted = 0;
  uint64_t flood_rejected = 0;
  double rejection_rate = 0.0;
};

/// One algorithm's checkpoint economics: persistence latency and the
/// cold-start-from-checkpoint speedup over refitting.
struct CheckpointTimings {
  std::string name;
  double fit_seconds = 0.0;   // offline training cost (refit baseline)
  double save_seconds = 0.0;  // SaveModelCheckpoint wall clock
  double load_seconds = 0.0;  // registry cold-start wall clock
  uint64_t bytes = 0;         // checkpoint file size
};

/// Hit rate over the window between two cumulative stats snapshots.
double WindowHitRate(const SubgraphCacheStats& before,
                     const SubgraphCacheStats& after) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t total = hits + (after.misses - before.misses);
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

/// Old-vs-new timing of the truncated absorbing sweep on one subgraph
/// size. Three timed configurations, each end-to-end per query (the kernel
/// ones include the per-query BuildTransitions + compile, as in
/// production):
///  * reference — the retained pre-kernel scalar loop;
///  * kernel full sweep — both sides updated every iteration (the generic
///    AbsorbingValueTruncated contract);
///  * kernel ranking sweep — the production path (item-side output only,
///    one side per step, half the edge work).
/// "rows" are node-rows swept by the full-DP contract (nodes × τ), so the
/// rates are directly comparable across the three configurations.
struct KernelTimings {
  std::string name;       // subgraph configuration (µ cap or synthetic rung)
  int32_t nodes = 0;
  int64_t edges = 0;
  int iterations = 0;
  /// One DP value vector (8·nodes): the quantity the plan thresholds gate
  /// on, and the deepest cache it fits in on this machine.
  size_t value_bytes = 0;
  const char* cache_level = "";
  /// Memory-layout plan BuildTransitions picked for this size (the
  /// tentpole's measured dimension): simple / blocked / blocked_reordered,
  /// whether the CSR was permuted, and the L1 row tile.
  const char* layout_strategy = "";
  bool reordered = false;
  int32_t row_tile = 0;
  double reference_ns_per_iteration = 0.0;
  double kernel_full_ns_per_iteration = 0.0;
  double kernel_ranking_ns_per_iteration = 0.0;
  /// Steady-state serving path: ranking sweep over a layout pre-built at
  /// SubgraphCache admission (the permutation is outside the timed loop,
  /// exactly as a cache hit amortizes it).
  double kernel_cached_ns_per_iteration = 0.0;
  const char* cached_strategy = "";
  double reference_rows_per_second = 0.0;
  double kernel_rows_per_second = 0.0;
  /// Production headline: reference loop vs the ranking sweep that now
  /// serves every truncated-walk query.
  double speedup = 0.0;
  /// Like-for-like full-DP comparison (both sides, every iteration). CI
  /// asserts >= 0.98 at every size (scripts/compare_bench.py).
  double full_vs_reference_speedup = 0.0;
  /// Reference vs the cached-layout ranking path.
  double cached_speedup = 0.0;
};

/// Deepest cache level one value vector of `bytes` fits in.
const char* CacheLevelOf(size_t bytes) {
  const CacheGeometry& geo = ProbeCacheGeometry();
  if (bytes <= geo.l1d_bytes) return "L1";
  if (bytes <= geo.l2_bytes) return "L2";
  if (bytes <= geo.l3_bytes) return "L3";
  return "RAM";
}


/// Times the four sweep configurations on one graph. Configurations are
/// interleaved round-robin; absolute ns/iteration figures take the
/// minimum window per configuration, while the speedup ratios take the
/// *median of per-round ratios* — a round's four windows are adjacent in
/// time, so slow VM phases (steal bursts on shared 1-core CI runners)
/// inflate numerator and denominator together and cancel, where a ratio
/// of cross-round minima would compare windows from different phases.
KernelTimings BenchKernelGraph(const char* name, const BipartiteGraph& g,
                               const std::vector<bool>& absorbing, int tau,
                               int rounds) {
  const int32_t n = g.num_nodes();
  const std::vector<double> costs(n, 1.0);
  std::vector<double> value, scratch;
  WalkKernel kernel;

  // Calibrate repetitions off one reference run, targeting ~60 ms per
  // timed window.
  WallTimer calibrate;
  AbsorbingValueTruncatedReference(g, absorbing, costs, tau, &value,
                                   &scratch);
  const double once = calibrate.ElapsedSeconds();
  const int reps = std::max(2, static_cast<int>(0.06 / std::max(1e-6, once)));

  // The cached configuration adopts a full WalkPlan built once, up front —
  // exactly what SubgraphCache admission does, so the timed loop below is
  // the serving warm path: AdoptPlan (two pointer stores) + compile +
  // sweep, zero O(E) transition builds. The layout is null below the
  // reorder threshold (then the plan is the plain auto plan, i.e.
  // cache-hit == cold plan parity).
  const std::shared_ptr<const WalkLayout> cached_layout =
      BuildWalkLayoutIfBeneficial(g);
  const std::shared_ptr<const WalkPlan> cached_plan = [&] {
    auto p = std::make_shared<WalkPlan>();
    p->Build(g, WalkNormalization::kRowStochastic, cached_layout);
    return p;
  }();
  WalkKernel cached_kernel;

  std::vector<double> ref_t(rounds), full_t(rounds), rank_t(rounds),
      cache_t(rounds);
  double checksum_ref = 0.0, checksum_full = 0.0;
  for (int round = 0; round < rounds; ++round) {
    {
      WallTimer t;
      for (int r = 0; r < reps; ++r) {
        AbsorbingValueTruncatedReference(g, absorbing, costs, tau, &value,
                                         &scratch);
      }
      ref_t[round] = t.ElapsedSeconds();
      checksum_ref = 0.0;
      for (double v : value) checksum_ref += v;
    }
    {
      WallTimer t;
      for (int r = 0; r < reps; ++r) {
        AbsorbingValueTruncated(g, absorbing, costs, tau, &kernel, &value,
                                &scratch);
      }
      full_t[round] = t.ElapsedSeconds();
      checksum_full = 0.0;
      for (double v : value) checksum_full += v;
    }
    {
      WallTimer t;
      for (int r = 0; r < reps; ++r) {
        kernel.BuildTransitions(g,
                                WalkKernel::Normalization::kRowStochastic);
        kernel.CompileAbsorbingSweep(absorbing, costs);
        kernel.SweepTruncatedItemValues(tau, &value);
      }
      rank_t[round] = t.ElapsedSeconds();
    }
    {
      WallTimer t;
      for (int r = 0; r < reps; ++r) {
        cached_kernel.AdoptPlan(cached_plan);
        cached_kernel.CompileAbsorbingSweep(absorbing, costs);
        cached_kernel.SweepTruncatedItemValues(tau, &value);
      }
      cache_t[round] = t.ElapsedSeconds();
    }
  }
  const auto min_of = [](const std::vector<double>& t) {
    return *std::min_element(t.begin(), t.end());
  };
  // Median of the per-round ref/config ratios (see the function comment).
  const auto median_speedup = [&ref_t](const std::vector<double>& t) {
    std::vector<double> r(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      r[i] = t[i] > 0.0 ? ref_t[i] / t[i] : 0.0;
    }
    std::sort(r.begin(), r.end());
    return r[r.size() / 2];
  };
  const double ref_seconds = min_of(ref_t);
  const double full_seconds = min_of(full_t);
  const double ranking_seconds = min_of(rank_t);
  const double cached_seconds = min_of(cache_t);
  // Parity is enforced by tests; the checksum just keeps the compiler
  // honest about running both loops.
  LT_CHECK(std::abs(checksum_ref - checksum_full) <=
           1e-6 * std::max(1.0, std::abs(checksum_ref)));

  KernelTimings row;
  row.name = name;
  row.nodes = n;
  row.edges = g.num_edges();
  row.iterations = tau;
  row.value_bytes = static_cast<size_t>(n) * sizeof(double);
  row.cache_level = CacheLevelOf(row.value_bytes);
  // The kernel still holds the plan its last BuildTransitions picked.
  row.layout_strategy = kernel.sweep_strategy();
  row.reordered = kernel.reordered();
  row.row_tile = kernel.row_tile();
  row.cached_strategy = cached_kernel.sweep_strategy();
  const double sweeps = static_cast<double>(reps) * tau;
  row.reference_ns_per_iteration = 1e9 * ref_seconds / sweeps;
  row.kernel_full_ns_per_iteration = 1e9 * full_seconds / sweeps;
  row.kernel_ranking_ns_per_iteration = 1e9 * ranking_seconds / sweeps;
  row.kernel_cached_ns_per_iteration = 1e9 * cached_seconds / sweeps;
  row.reference_rows_per_second = n * sweeps / ref_seconds;
  row.kernel_rows_per_second = n * sweeps / ranking_seconds;
  row.speedup = median_speedup(rank_t);
  row.full_vs_reference_speedup = median_speedup(full_t);
  row.cached_speedup = median_speedup(cache_t);

  std::printf(
      "%12s %8d %10lld %4s %18s %11.0f %11.0f %11.0f %11.0f %7.2fx %7.2fx "
      "%7.2fx\n",
      row.name.c_str(), row.nodes, static_cast<long long>(row.edges),
      row.cache_level, row.cached_strategy, row.reference_ns_per_iteration,
      row.kernel_full_ns_per_iteration, row.kernel_ranking_ns_per_iteration,
      row.kernel_cached_ns_per_iteration, row.full_vs_reference_speedup,
      row.speedup, row.cached_speedup);
  return row;
}

/// Times reference vs kernel sweeps across a ladder of subgraph sizes
/// spanning the machine's cache boundaries: µ-capped extractions from the
/// corpus (µ/4 up to the uncapped reachable component) plus synthetic
/// rungs sized off the measured geometry so the value vector crosses L2 —
/// the region where the reordered layout plan engages. Each row records
/// the plan BuildTransitions picked, so the JSON shows the measured
/// crossover points, not just the configured thresholds.
std::vector<KernelTimings> RunKernelBench(const Dataset& d, int tau) {
  const BipartiteGraph graph = BipartiteGraph::FromDataset(d, true);
  // The busiest user seeds the largest (most representative) subgraphs.
  UserId probe = 0;
  for (UserId u = 0; u < d.num_users(); ++u) {
    if (d.UserDegree(u) > d.UserDegree(probe)) probe = u;
  }
  std::vector<NodeId> seeds{graph.UserNode(probe)};
  for (ItemId item : d.UserItems(probe)) seeds.push_back(graph.ItemNode(item));

  const int32_t pruned_mu = std::max<int32_t>(
      60, static_cast<int32_t>(0.067 * d.num_items()));
  const struct {
    const char* name;
    int32_t mu;
  } sizes[] = {
      {"mu_quarter", std::max(15, pruned_mu / 4)},
      {"mu_pruned", pruned_mu},
      {"mu_4x", 4 * pruned_mu},
      {"mu_16x", 16 * pruned_mu},
      {"uncapped", 0},
  };

  const CacheGeometry& geo = ProbeCacheGeometry();
  {
    WalkKernel probe_kernel;
    std::printf(
        "\n# walk kernel (truncated sweep, tau = %d, single thread, "
        "isa = %s,\n#              L1d %zuK / L2 %zuK / L3 %zuM, row tile "
        "%d)\n\n",
        tau, probe_kernel.isa_name(), geo.l1d_bytes / 1024,
        geo.l2_bytes / 1024, geo.l3_bytes / (1024 * 1024),
        WalkKernel::BlockedPlanRowTile());
  }
  std::printf("%12s %8s %10s %4s %18s %11s %11s %11s %11s %8s %8s %8s\n",
              "subgraph", "nodes", "edges", "fits", "steady layout",
              "ref ns/it", "full ns/it", "rank ns/it", "cache ns/it",
              "full x", "rank x", "cache x");
  std::vector<KernelTimings> rows;
  for (const auto& size : sizes) {
    SubgraphOptions sub_options;
    sub_options.max_items = size.mu;
    const Subgraph sub = ExtractSubgraph(graph, seeds, sub_options);
    const int32_t n = sub.graph.num_nodes();
    if (n == 0) continue;
    // Dedupe: a µ cap past the reachable component yields the same
    // subgraph as uncapped.
    if (!rows.empty() && rows.back().nodes == n) continue;
    // AT-style query: the probe user's rated items absorb, unit cost.
    std::vector<bool> absorbing(n, false);
    for (ItemId item : d.UserItems(probe)) {
      const NodeId local = sub.LocalItemNode(item);
      if (local >= 0) absorbing[local] = true;
    }
    rows.push_back(
        BenchKernelGraph(size.name, sub.graph, absorbing, tau, /*rounds=*/7));
  }

  // Synthetic cache-boundary rungs: value vector at half of L2 (blocked,
  // identity order) and at 3x L2 (past the reorder threshold). Sized from
  // the measured geometry so they land on the boundary on any machine;
  // capped so a huge-L2 host cannot make the smoke run unbounded. Fewer
  // timing rounds: at these sizes each round is hundreds of milliseconds
  // and the min-of-rounds noise floor is already low.
  const struct {
    const char* name;
    size_t value_bytes;
  } rungs[] = {
      {"syn_l2_half", geo.l2_bytes / 2},
      {"syn_l2_x3", 3 * geo.l2_bytes},
  };
  for (const auto& rung : rungs) {
    const int32_t n = static_cast<int32_t>(
        std::min<size_t>(rung.value_bytes / sizeof(double), 4u << 20));
    if (!rows.empty() && n <= rows.back().nodes) continue;
    const BipartiteGraph syn = bench::MakeSyntheticWalkGraph(n);
    std::vector<bool> absorbing(syn.num_nodes(), false);
    // AT-style: user 0's rated items absorb.
    for (NodeId nbr : syn.Neighbors(0)) absorbing[nbr] = true;
    rows.push_back(
        BenchKernelGraph(rung.name, syn, absorbing, tau, /*rounds=*/7));
  }
  return rows;
}

/// Emits the "kernel" object (shared by the full run and --kernel_only
/// smoke mode). `trailing_comma` because the section sits mid-object in
/// the full BENCH_table5.json.
void WriteKernelJsonSection(std::FILE* f,
                            const std::vector<KernelTimings>& rows,
                            bool trailing_comma) {
  WalkKernel probe;  // which row-gather flavour runtime dispatch picked
  const CacheGeometry& geo = ProbeCacheGeometry();
  std::fprintf(f, "  \"kernel\": {\n    \"isa\": \"%s\",\n", probe.isa_name());
  std::fprintf(f,
               "    \"cache_geometry\": {\"l1d_bytes\": %zu, "
               "\"l2_bytes\": %zu, \"l3_bytes\": %zu},\n",
               geo.l1d_bytes, geo.l2_bytes, geo.l3_bytes);
  // The configured plan thresholds (docs/KERNELS.md "Tuning"), alongside
  // the measured crossovers below so a drifted machine is visible.
  std::fprintf(f,
               "    \"thresholds\": {\"simple_max_value_bytes\": %zu, "
               "\"reorder_value_bytes_above\": %zu, "
               "\"reorder_min_entries_per_node\": 2, \"row_tile_rows\": "
               "%d},\n",
               WalkKernel::SimplePlanMaxValueBytes(), geo.l2_bytes,
               WalkKernel::BlockedPlanRowTile());
  // Measured crossover points: the smallest swept size where the cost
  // probe left the simple plan, and where the cached (steady-state
  // serving) plan starts reordering.
  int32_t to_blocked = 0, to_reordered = 0;
  for (const KernelTimings& r : rows) {
    if (to_blocked == 0 && std::string(r.layout_strategy) != "simple") {
      to_blocked = r.nodes;
    }
    if (to_reordered == 0 &&
        std::string(r.cached_strategy) == "blocked_reordered") {
      to_reordered = r.nodes;
    }
  }
  std::fprintf(f, "    \"crossovers\": {\"simple_to_blocked_nodes\": ");
  if (to_blocked > 0) {
    std::fprintf(f, "%d", to_blocked);
  } else {
    std::fprintf(f, "null");
  }
  std::fprintf(f, ", \"reorder_nodes\": ");
  if (to_reordered > 0) {
    std::fprintf(f, "%d", to_reordered);
  } else {
    std::fprintf(f, "null");
  }
  std::fprintf(f, "},\n    \"sweeps\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelTimings& r = rows[i];
    std::fprintf(
        f,
        "      {\"name\": \"%s\", \"nodes\": %d, \"edges\": %lld, "
        "\"iterations\": %d, \"value_bytes\": %zu, "
        "\"cache_level\": \"%s\", \"layout\": {\"strategy\": \"%s\", "
        "\"reordered\": %s, \"row_tile\": %d, \"cached_strategy\": "
        "\"%s\"}, \"reference_ns_per_iteration\": %.1f, "
        "\"kernel_full_ns_per_iteration\": %.1f, "
        "\"kernel_ranking_ns_per_iteration\": %.1f, "
        "\"kernel_cached_ns_per_iteration\": %.1f, "
        "\"reference_rows_per_second\": %.0f, "
        "\"kernel_rows_per_second\": %.0f, "
        "\"full_vs_reference_speedup\": %.2f, \"speedup\": %.2f, "
        "\"cached_speedup\": %.2f}%s\n",
        r.name.c_str(), r.nodes, static_cast<long long>(r.edges),
        r.iterations, r.value_bytes, r.cache_level, r.layout_strategy,
        r.reordered ? "true" : "false", r.row_tile, r.cached_strategy,
        r.reference_ns_per_iteration, r.kernel_full_ns_per_iteration,
        r.kernel_ranking_ns_per_iteration, r.kernel_cached_ns_per_iteration,
        r.reference_rows_per_second, r.kernel_rows_per_second,
        r.full_vs_reference_speedup, r.speedup, r.cached_speedup,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }%s\n", trailing_comma ? "," : "");
}

void WriteJson(const char* path, const Dataset& d,
               const std::vector<AlgorithmTimings>& rows,
               const std::vector<ServingTimings>& serving,
               const EngineBench& engine,
               const std::vector<CheckpointTimings>& checkpoints,
               const std::vector<KernelTimings>& kernel,
               const SubgraphCacheStats& cache_stats, size_t threads) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"table5_efficiency\",\n");
  std::fprintf(f,
               "  \"corpus\": {\"users\": %d, \"items\": %d, "
               "\"ratings\": %lld},\n",
               d.num_users(), d.num_items(),
               static_cast<long long>(d.num_ratings()));
  std::fprintf(f, "  \"algorithms\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const AlgorithmTimings& r = rows[i];
    const double speedup = r.batchn_seconds_per_user > 0.0
                               ? r.single_seconds_per_user /
                                     r.batchn_seconds_per_user
                               : 0.0;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"fit_seconds\": %.6f, "
        "\"single_query_seconds_per_user\": %.9f, "
        "\"batch_seconds_per_user_1t\": %.9f, "
        "\"batch_seconds_per_user\": %.9f, \"batch_threads\": %zu, "
        "\"batch_users_per_second\": %.1f, "
        "\"batch_speedup_vs_single\": %.2f}%s\n",
        r.name.c_str(), r.fit_seconds, r.single_seconds_per_user,
        r.batch1_seconds_per_user, r.batchn_seconds_per_user, r.threads,
        r.batchn_seconds_per_user > 0.0 ? 1.0 / r.batchn_seconds_per_user
                                        : 0.0,
        speedup, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Serving layer: shared ServingPool + SubgraphCache. "steady" rows are
  // the latencies a long-lived server settles into once the cache holds
  // the working set.
  std::fprintf(f, "  \"serving\": {\n    \"threads\": %zu,\n", threads);
  std::fprintf(f, "    \"algorithms\": [\n");
  for (size_t i = 0; i < serving.size(); ++i) {
    const ServingTimings& s = serving[i];
    std::fprintf(
        f,
        "      {\"name\": \"%s\", \"cold_batch_seconds_per_user\": %.9f, "
        "\"steady_batch_seconds_per_user\": %.9f, "
        "\"steady_users_per_second\": %.1f, "
        "\"steady_vs_cold_speedup\": %.4f, \"cold_hit_rate\": %.4f, "
        "\"steady_hit_rate\": %.4f}%s\n",
        s.name.c_str(), s.cold_seconds_per_user, s.steady_seconds_per_user,
        s.steady_seconds_per_user > 0.0 ? 1.0 / s.steady_seconds_per_user
                                        : 0.0,
        // In-run, machine-normalized: both passes ran back to back on the
        // same machine, so this ratio is gate-able anywhere (the warm pass
        // must never lose to the cold pass it skipped extraction for;
        // compare_bench.py --assert-only holds the floor).
        s.steady_seconds_per_user > 0.0
            ? s.cold_seconds_per_user / s.steady_seconds_per_user
            : 0.0,
        s.cold_hit_rate, s.steady_hit_rate,
        i + 1 < serving.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(
      f,
      "    \"subgraph_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"hit_rate\": %.4f, \"coalesced_waits\": %llu, "
      "\"coalesced_rate\": %.4f, \"inserts\": %llu, \"evictions\": %llu, "
      "\"entries\": %zu, \"resident_mb\": %.2f}\n",
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      cache_stats.HitRate(),
      static_cast<unsigned long long>(cache_stats.coalesced_waits),
      cache_stats.CoalescedRate(),
      static_cast<unsigned long long>(cache_stats.inserts),
      static_cast<unsigned long long>(cache_stats.evictions),
      cache_stats.entries,
      static_cast<double>(cache_stats.resident_bytes) / (1024.0 * 1024.0));
  std::fprintf(f, "  },\n");
  // Serving engine: admission-controlled micro-batching front door
  // (docs/SERVING.md) — queue latency, batch shaping, single-flight
  // coalescing, and fail-fast rejection under flood.
  std::fprintf(f,
               "  \"engine\": {\n    \"max_batch_size\": %zu, "
               "\"threads\": %zu,\n",
               engine.max_batch_size, engine.threads);
  std::fprintf(f, "    \"traffic\": [\n");
  for (size_t i = 0; i < engine.traffic.size(); ++i) {
    const auto& [name, spu] = engine.traffic[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", "
                 "\"engine_seconds_per_user\": %.9f, "
                 "\"users_per_second\": %.1f}%s\n",
                 name.c_str(), spu, spu > 0.0 ? 1.0 / spu : 0.0,
                 i + 1 < engine.traffic.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  const EngineStats& es = engine.traffic_stats;
  std::fprintf(
      f,
      "    \"queue\": {\"dispatched\": %llu, \"batches\": %llu, "
      "\"mean_queue_ticks\": %.3f, \"max_queue_ticks\": %llu},\n",
      static_cast<unsigned long long>(es.dispatched),
      static_cast<unsigned long long>(es.batches_executed),
      es.MeanQueueTicks(),
      static_cast<unsigned long long>(es.queue_ticks_max));
  std::fprintf(f, "    \"batch_size_histogram\": [");
  bool first_bucket = true;
  for (size_t i = 0; i < es.batch_size_pow2.size(); ++i) {
    if (es.batch_size_pow2[i] == 0) continue;
    std::fprintf(f, "%s{\"min_batch\": %llu, \"count\": %llu}",
                 first_bucket ? "" : ", ",
                 static_cast<unsigned long long>(1ull << i),
                 static_cast<unsigned long long>(es.batch_size_pow2[i]));
    first_bucket = false;
  }
  std::fprintf(f, "],\n");
  std::fprintf(
      f,
      "    \"coalescing\": {\"identical_cold_requests\": %llu, "
      "\"extractions\": %llu, \"coalesced_waits\": %llu, "
      "\"coalesced_rate\": %.4f},\n",
      static_cast<unsigned long long>(engine.cold_identical_requests),
      static_cast<unsigned long long>(engine.cold_extractions),
      static_cast<unsigned long long>(engine.cold_coalesced_waits),
      engine.coalesced_rate);
  std::fprintf(
      f,
      "    \"admission\": {\"submitted\": %llu, "
      "\"rejected_queue_full\": %llu, \"rejection_rate\": %.4f}\n",
      static_cast<unsigned long long>(engine.flood_submitted),
      static_cast<unsigned long long>(engine.flood_rejected),
      engine.rejection_rate);
  std::fprintf(f, "  },\n");
  // Walk kernel: single-thread sweep throughput, old-vs-new (see
  // docs/KERNELS.md for how to read this).
  WriteKernelJsonSection(f, kernel, /*trailing_comma=*/true);
  // Checkpoint subsystem: persistence latency per algorithm and the
  // cold-start speedup a restart gets by loading instead of refitting.
  std::fprintf(f, "  \"checkpoint\": [\n");
  for (size_t i = 0; i < checkpoints.size(); ++i) {
    const CheckpointTimings& c = checkpoints[i];
    const double speedup =
        c.load_seconds > 0.0 ? c.fit_seconds / c.load_seconds : 0.0;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"refit_seconds\": %.6f, "
        "\"save_seconds\": %.6f, \"load_seconds\": %.6f, "
        "\"checkpoint_mb\": %.3f, \"cold_start_speedup_vs_refit\": %.1f}%s\n",
        c.name.c_str(), c.fit_seconds, c.save_seconds, c.load_seconds,
        static_cast<double>(c.bytes) / (1024.0 * 1024.0), speedup,
        i + 1 < checkpoints.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path);
}

/// --kernel_only: corpus + the walk-kernel microbench, nothing else. CI's
/// docs job runs this as a smoke test so the "kernel" JSON section is
/// exercised (and stays parseable) on every PR without fitting the suite.
void RunKernelOnly(const bench::BenchFlags& flags) {
  const SyntheticData corpus = bench::MakeDoubanCorpus(flags);
  bench::PrintCorpusHeader("Douban-like", corpus.dataset);
  const std::vector<KernelTimings> kernel =
      RunKernelBench(corpus.dataset, flags.tau);
  std::FILE* f = std::fopen("BENCH_table5.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open BENCH_table5.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"table5_efficiency (kernel smoke)\",\n");
  std::fprintf(f,
               "  \"corpus\": {\"users\": %d, \"items\": %d, "
               "\"ratings\": %lld},\n",
               corpus.dataset.num_users(), corpus.dataset.num_items(),
               static_cast<long long>(corpus.dataset.num_ratings()));
  WriteKernelJsonSection(f, kernel, /*trailing_comma=*/false);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("# wrote BENCH_table5.json (kernel section only)\n");
}

void Run(const bench::BenchFlags& flags) {
  const SyntheticData corpus = bench::MakeDoubanCorpus(flags);
  bench::PrintCorpusHeader("Douban-like", corpus.dataset);
  AlgorithmSuite suite = bench::FitSuiteOrDie(
      corpus.dataset, flags.Suite(corpus.dataset, /*douban_like=*/true));
  const std::vector<UserId> users =
      SampleTestUsers(corpus.dataset, flags.users, 10, 2000);
  const size_t batch_threads =
      flags.threads > 0 ? static_cast<size_t>(flags.threads)
                        : std::max(1u, std::thread::hardware_concurrency());
  std::printf("# %zu users, top-%d, single-threaded query timing\n\n",
              users.size(), flags.k);

  std::vector<AlgorithmTimings> rows;
  std::printf("%16s %16s %18s\n", "algorithm", "s/user", "users/second");
  for (const char* name : {"LDA", "PureSVD", "AC2", "DPPR"}) {
    const Recommender* alg = suite.Find(name);
    LT_CHECK(alg != nullptr) << name;
    // Single-threaded to mirror the paper's per-query cost measurement.
    auto report = EvaluateTopN(*alg, corpus.dataset, users, flags.k,
                               nullptr, /*num_threads=*/1);
    LT_CHECK(report.ok()) << report.status().ToString();
    std::printf("%16s %16.5f %18.1f\n", name, report->seconds_per_user,
                1.0 / std::max(1e-9, report->seconds_per_user));
    AlgorithmTimings row;
    row.name = name;
    row.fit_seconds = suite.FitSeconds(name);
    row.single_seconds_per_user = report->seconds_per_user;
    row.threads = batch_threads;
    rows.push_back(row);
  }

  // The paper's efficiency win for AC2 comes from the µ-capped subgraph
  // (µ = 6000 ≈ 6.7% of the Douban catalog). Show the pruned configuration
  // so the cost mechanism is visible at this scale too.
  const int32_t pruned_mu = std::max<int32_t>(
      60, static_cast<int32_t>(0.067 * corpus.dataset.num_items()));
  GraphWalkOptions pruned_walk;
  pruned_walk.iterations = flags.tau;
  pruned_walk.max_subgraph_items = pruned_mu;
  AbsorbingCostOptions pruned_options;
  pruned_options.walk = pruned_walk;
  pruned_options.lda.num_topics = flags.topics;
  pruned_options.lda.iterations = flags.lda_iters;
  // Kept alive for the serving-layer section below.
  AbsorbingCostRecommender pruned(EntropySource::kTopicBased, pruned_options);
  {
    WallTimer fit_timer;
    LT_CHECK_OK(pruned.Fit(corpus.dataset));
    const double pruned_fit = fit_timer.ElapsedSeconds();
    auto report = EvaluateTopN(pruned, corpus.dataset, users, flags.k,
                               nullptr, /*num_threads=*/1);
    LT_CHECK(report.ok()) << report.status().ToString();
    std::printf("%16s %16.5f %18.1f   (mu = 6.7%% of the catalog, the\n"
                "%52s paper's Douban ratio; recall quality at reduced\n"
                "%52s scale needs larger mu — see bench_table4_mu)\n",
                "AC2-pruned", report->seconds_per_user,
                1.0 / std::max(1e-9, report->seconds_per_user), "", "");
    AlgorithmTimings row;
    row.name = "AC2-pruned";
    row.fit_seconds = pruned_fit;
    row.single_seconds_per_user = report->seconds_per_user;
    row.threads = batch_threads;
    row.batch1_seconds_per_user =
        TimeBatch(pruned, users, flags.k, /*threads=*/1);
    row.batchn_seconds_per_user =
        TimeBatch(pruned, users, flags.k, batch_threads);
    rows.push_back(row);
  }

  // Batch query engine: workspace-reused walks fanned out over the thread
  // pool. Same results as the per-user path (see batch_parity_test), but
  // without per-query global-table allocation and with real parallelism.
  std::printf("\n# batch engine (RecommendBatch, %zu threads)\n\n",
              batch_threads);
  std::printf("%16s %14s %14s %14s %10s\n", "algorithm", "s/user@1t",
              "s/user@Nt", "users/sec@Nt", "speedup");
  for (AlgorithmTimings& row : rows) {
    if (row.name == "AC2-pruned") continue;  // timed above
    const Recommender* alg = suite.Find(row.name);
    row.batch1_seconds_per_user = TimeBatch(*alg, users, flags.k, 1);
    row.batchn_seconds_per_user =
        TimeBatch(*alg, users, flags.k, batch_threads);
  }
  for (const AlgorithmTimings& row : rows) {
    std::printf("%16s %14.5f %14.5f %14.1f %9.2fx\n", row.name.c_str(),
                row.batch1_seconds_per_user, row.batchn_seconds_per_user,
                1.0 / std::max(1e-9, row.batchn_seconds_per_user),
                row.single_seconds_per_user /
                    std::max(1e-9, row.batchn_seconds_per_user));
  }

  // Serving layer: one shared SubgraphCache across the graph walkers, in
  // the paper's production regime (µ-pruned subgraphs — with µ uncapped at
  // reduced scale, every "subgraph" is the whole component and caching it
  // is all memory and no speedup). Traffic is the hot slice of the test
  // users: serving workloads concentrate on active users, and the steady
  // state being measured is precisely the cached slice; the byte budget
  // below is what bounds the cache when traffic overflows it (evictions
  // are reported either way). Each algorithm runs a cold pass (filling the
  // cache) and a steady-state pass (served from it). AT/AC1/AC2 share
  // seed sets, so once AC2 has filled the cache the AC1/AT "cold" passes
  // already hit — the cross-recommender sharing a suite server gets for
  // free.
  const std::vector<UserId> hot_users(
      users.begin(),
      users.begin() + std::min<size_t>(users.size(), 200));
  std::printf(
      "\n# serving layer (shared SubgraphCache, mu = %d, %zu hot users, "
      "%zu threads)\n\n",
      pruned_mu, hot_users.size(), batch_threads);
  std::printf("%16s %14s %14s %10s %10s\n", "algorithm", "s/user cold",
              "s/user steady", "hit%cold", "hit%steady");
  AbsorbingCostOptions ac1_options;
  ac1_options.walk = pruned_walk;
  AbsorbingCostRecommender ac1_pruned(EntropySource::kItemBased, ac1_options);
  AbsorbingTimeRecommender at_pruned(pruned_walk);
  HittingTimeRecommender ht_pruned(pruned_walk);
  LT_CHECK_OK(ac1_pruned.Fit(corpus.dataset));
  LT_CHECK_OK(at_pruned.Fit(corpus.dataset));
  LT_CHECK_OK(ht_pruned.Fit(corpus.dataset));
  const std::vector<std::pair<const char*, const Recommender*>> walkers = {
      {"AC2-pruned", &pruned},
      {"AC1-pruned", &ac1_pruned},
      {"AT-pruned", &at_pruned},
      {"HT-pruned", &ht_pruned},
  };
  SubgraphCacheOptions cache_options;
  cache_options.max_bytes = 1ull << 30;
  SubgraphCache cache(cache_options);
  std::vector<ServingTimings> serving;
  for (const auto& [name, alg] : walkers) {
    ServingTimings s;
    s.name = name;
    const SubgraphCacheStats before = cache.Stats();
    s.cold_seconds_per_user =
        TimeBatch(*alg, hot_users, flags.k, batch_threads, &cache);
    const SubgraphCacheStats mid = cache.Stats();
    s.steady_seconds_per_user =
        TimeBatch(*alg, hot_users, flags.k, batch_threads, &cache);
    const SubgraphCacheStats after = cache.Stats();
    s.cold_hit_rate = WindowHitRate(before, mid);
    s.steady_hit_rate = WindowHitRate(mid, after);
    std::printf("%16s %14.5f %14.5f %9.1f%% %9.1f%%\n", name,
                s.cold_seconds_per_user, s.steady_seconds_per_user,
                100.0 * s.cold_hit_rate, 100.0 * s.steady_hit_rate);
    serving.push_back(s);
  }
  // Snapshot the serving-phase cache stats *before* the engine section
  // below reuses the same cache: the JSON "serving".subgraph_cache block
  // must describe the serving passes, not later engine/flood traffic.
  const SubgraphCacheStats cache_stats = cache.Stats();
  std::printf(
      "# cache: %.1f%% hit rate overall, %zu entries, %.1f MB resident, "
      "%llu evictions\n",
      100.0 * cache_stats.HitRate(), cache_stats.entries,
      static_cast<double>(cache_stats.resident_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(cache_stats.evictions));

  // Serving engine: the admission-controlled micro-batching front door
  // (docs/SERVING.md). Traffic runs through EvaluateTopN's engine path —
  // identical lists to the direct batch (bit-parity enforced by
  // tests/serving_engine_test.cc) — so the delta vs the steady serving
  // rows above is pure engine overhead: queueing, batch formation,
  // future hand-off.
  EngineBench eb;
  eb.max_batch_size = 32;
  eb.threads = batch_threads;
  std::printf("\n# serving engine (max_batch %zu, %zu hot users)\n\n",
              eb.max_batch_size, hot_users.size());
  std::printf("%16s %18s %14s\n", "algorithm", "s/user via engine",
              "users/sec");
  {
    ServingEngineOptions engine_options;
    engine_options.max_batch_size = eb.max_batch_size;
    engine_options.batch_threads = batch_threads;
    engine_options.subgraph_cache = &cache;
    ServingEngine engine(engine_options);
    for (const auto& [name, alg] : walkers) {
      LT_CHECK_OK(engine.AddModel(alg));  // keyed by the model's name()
    }
    for (const auto& [label, alg] : walkers) {
      auto report = EvaluateTopN(*alg, corpus.dataset, hot_users, flags.k,
                                 nullptr, batch_threads,
                                 /*subgraph_cache=*/nullptr, &engine);
      LT_CHECK(report.ok()) << report.status().ToString();
      eb.traffic.emplace_back(alg->name(), report->seconds_per_user);
      std::printf("%16s %18.5f %14.1f\n", label, report->seconds_per_user,
                  1.0 / std::max(1e-9, report->seconds_per_user));
    }
    eb.traffic_stats = engine.Stats();
    std::printf(
        "# queue: %.2f mean ticks (%llu max), %llu requests in %llu "
        "batches\n",
        eb.traffic_stats.MeanQueueTicks(),
        static_cast<unsigned long long>(eb.traffic_stats.queue_ticks_max),
        static_cast<unsigned long long>(eb.traffic_stats.dispatched),
        static_cast<unsigned long long>(eb.traffic_stats.batches_executed));
  }
  {
    // Single flight: identical cold requests against a fresh cache must
    // extract once. Extra concurrency shows up as coalesced waits; on a
    // 1-core runner the duplicates resolve as cache hits instead — the
    // extraction count stays 1 either way.
    SubgraphCache cold_cache;
    ServingEngineOptions cold_options;
    cold_options.max_batch_size = 64;
    cold_options.batch_threads = batch_threads;
    cold_options.subgraph_cache = &cold_cache;
    cold_options.start_dispatcher = false;
    ServingEngine cold_engine(cold_options);
    LT_CHECK_OK(cold_engine.AddModel(&at_pruned));
    constexpr uint64_t kDupes = 64;
    ServeRequest dupe;
    dupe.user = hot_users.front();
    dupe.top_k = flags.k;
    std::vector<std::future<UserQueryResult>> futures;
    futures.reserve(kDupes);
    for (uint64_t i = 0; i < kDupes; ++i) {
      futures.push_back(cold_engine.Submit(at_pruned.name(), dupe));
    }
    cold_engine.PumpUntilIdle();
    for (auto& f : futures) {
      const UserQueryResult r = f.get();
      LT_CHECK(r.status.ok()) << r.status.ToString();
    }
    const SubgraphCacheStats cs = cold_cache.Stats();
    eb.cold_identical_requests = kDupes;
    eb.cold_extractions = cs.misses;
    eb.cold_coalesced_waits = cs.coalesced_waits;
    eb.coalesced_rate = cs.CoalescedRate();
    std::printf(
        "# coalescing: %llu identical cold requests -> %llu extraction(s), "
        "%llu coalesced waits\n",
        static_cast<unsigned long long>(kDupes),
        static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.coalesced_waits));
  }
  {
    // Admission control: flood a deliberately tiny queue without pumping;
    // the overflow fails fast with ResourceExhausted instead of queueing.
    ServingEngineOptions flood_options;
    flood_options.max_queue_depth = 16;
    flood_options.max_batch_size = 16;
    flood_options.batch_threads = batch_threads;
    flood_options.subgraph_cache = &cache;
    flood_options.start_dispatcher = false;
    ServingEngine flood_engine(flood_options);
    LT_CHECK_OK(flood_engine.AddModel(&ht_pruned));
    std::vector<std::future<UserQueryResult>> futures;
    for (size_t i = 0; i < 64; ++i) {
      ServeRequest r;
      r.user = hot_users[i % hot_users.size()];
      r.top_k = flags.k;
      futures.push_back(flood_engine.Submit(ht_pruned.name(), r));
    }
    flood_engine.PumpUntilIdle();
    for (auto& f : futures) f.get();
    const EngineStats es = flood_engine.Stats();
    eb.flood_submitted = es.submitted;
    eb.flood_rejected = es.rejected_queue_full;
    eb.rejection_rate = es.RejectionRate();
    std::printf(
        "# admission: %llu submitted vs queue depth 16 -> %llu rejected "
        "(%.0f%%)\n",
        static_cast<unsigned long long>(es.submitted),
        static_cast<unsigned long long>(es.rejected_queue_full),
        100.0 * es.RejectionRate());
  }

  // Checkpoint phase: save every suite model, then cold-start each from
  // its checkpoint through the ModelRegistry — the restart path a serving
  // process takes instead of refitting (paper Table 5 shows why: fitting
  // dominates the offline cost). Each loaded model serves a probe batch so
  // the timing covers a genuinely usable model.
  std::printf("\n# checkpoint (save → registry cold-start vs refit)\n\n");
  std::printf("%16s %12s %12s %12s %10s %12s\n", "algorithm", "refit s",
              "save s", "load s", "ckpt MB", "cold-start x");
  const std::vector<UserId> probe_users(
      users.begin(), users.begin() + std::min<size_t>(users.size(), 10));
  std::vector<CheckpointTimings> checkpoints;
  for (const char* name :
       {"AC2", "AC1", "AT", "HT", "DPPR", "PureSVD", "LDA"}) {
    const Recommender* alg = suite.Find(name);
    LT_CHECK(alg != nullptr) << name;
    const std::string path = std::string("BENCH_") + name + ".ckpt";
    CheckpointTimings c;
    c.name = name;
    c.fit_seconds = suite.FitSeconds(name);
    {
      WallTimer timer;
      LT_CHECK_OK(SaveModelCheckpoint(*alg, path));
      c.save_seconds = timer.ElapsedSeconds();
    }
    std::error_code ec;
    const auto file_bytes = std::filesystem::file_size(path, ec);
    c.bytes = ec ? 0 : static_cast<uint64_t>(file_bytes);
    {
      WallTimer timer;
      auto loaded = LoadModelCheckpoint(path, corpus.dataset);
      LT_CHECK(loaded.ok()) << loaded.status().ToString();
      c.load_seconds = timer.ElapsedSeconds();
      const auto probe = (*loaded)->RecommendBatch(probe_users, flags.k);
      LT_CHECK_EQ(probe.size(), probe_users.size());
    }
    std::filesystem::remove(path, ec);
    std::printf("%16s %12.4f %12.4f %12.4f %10.3f %11.1fx\n", name,
                c.fit_seconds, c.save_seconds, c.load_seconds,
                static_cast<double>(c.bytes) / (1024.0 * 1024.0),
                c.load_seconds > 0.0 ? c.fit_seconds / c.load_seconds : 0.0);
    checkpoints.push_back(c);
  }

  // Walk kernel: the single-thread sweep-throughput trajectory — on the
  // 1-core CI substrate this is the only axis where batch-engine progress
  // is measurable at all.
  const std::vector<KernelTimings> kernel =
      RunKernelBench(corpus.dataset, flags.tau);

  std::printf(
      "\nExpected shape: pruned AC2 approaches the model-based methods and\n"
      "beats DPPR (global power iteration per query, no pruning); the\n"
      "advantage widens with catalog size as in the paper's Table 5. The\n"
      "batch rows should scale near-linearly with threads for the graph\n"
      "methods (per-worker walk workspaces on the long-lived serving\n"
      "pool). Steady-state serving rows skip extraction entirely; AC1/AT\n"
      "hit even on their first pass because AC2 shares their seed sets,\n"
      "while HT (different seeds) fills its own entries.\n"
      "Checkpoint rows: cold-start-from-checkpoint should beat refit by\n"
      "orders of magnitude for the trained models (LDA Gibbs, SVD), since\n"
      "loading is file IO while refitting repeats the paper's dominant\n"
      "offline cost.\n");

  WriteJson("BENCH_table5.json", corpus.dataset, rows, serving, eb,
            checkpoints, kernel, cache_stats, batch_threads);
}

}  // namespace
}  // namespace longtail

int main(int argc, char** argv) {
  using namespace longtail;
  using namespace longtail::bench;
  BenchFlags flags;
  bool kernel_only = false;
  FlagParser parser;
  flags.Register(&parser);
  parser.AddBool("kernel_only", &kernel_only,
                 "run only the walk-kernel microbench (CI smoke mode)");
  const Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    if (status.code() != StatusCode::kFailedPrecondition) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    return status.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  std::printf("== Table 5: comparison on online time cost ==\n\n");
  if (kernel_only) {
    RunKernelOnly(flags);
  } else {
    Run(flags);
  }
  return 0;
}
