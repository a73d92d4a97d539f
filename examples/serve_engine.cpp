// Checkpoint → ServingEngine → concurrent mixed-algorithm traffic: the
// serving-engine walkthrough.
//
// Phase 1 plays the offline trainer: it fits a mixed suite (AC2 with its
// LDA topics, AT, HT) on a synthetic corpus, records golden answers, and
// persists the dataset plus one checkpoint per model. Phase 2 plays a
// freshly restarted serving process: it reloads the dataset, cold-starts a
// ServingEngine straight from the checkpoint directory
// (LoadCheckpointDirIntoEngine — Fit never runs), then drives concurrent
// client threads submitting mixed-model traffic through the engine's
// admission-controlled micro-batcher: async futures, blocking queries, a
// shared single-flight SubgraphCache, and a deliberate flood against a
// tiny queue to show fail-fast rejection.
//
//   $ ./serve_engine [work_dir]      # default ./serve_engine_demo
//
// Exits non-zero on any parity mismatch or unexpected failure, so ctest
// runs it as a smoke test.
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/absorbing_cost.h"
#include "core/absorbing_time.h"
#include "core/hitting_time.h"
#include "data/generator.h"
#include "data/serialization.h"
#include "graph/subgraph_cache.h"
#include "serving/model_registry.h"
#include "serving/serving_engine.h"

using namespace longtail;

namespace {

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

bool Identical(const std::vector<ScoredItem>& a,
               const std::vector<ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].item != b[k].item || a[k].score != b[k].score) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "serve_engine_demo";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  SyntheticSpec spec;
  spec.name = "engine-demo";
  spec.num_users = 260;
  spec.num_items = 200;
  spec.mean_user_degree = 12;
  spec.min_user_degree = 4;
  spec.num_genres = 8;
  spec.seed = 20120531;
  auto generated = GenerateSyntheticData(spec);
  if (!generated.ok()) return Fail("generate", generated.status());
  const Dataset& train = generated->dataset;

  const std::vector<UserId> probe_users = {2, 19, 44, 101, 233};
  constexpr int kTopK = 10;

  // ---- Phase 1: offline trainer — fit, record goldens, checkpoint. ----
  std::printf("== phase 1: fit and checkpoint (%d users, %d items) ==\n",
              train.num_users(), train.num_items());
  AbsorbingCostOptions ac2_options;
  ac2_options.lda.num_topics = 8;
  ac2_options.lda.iterations = 30;
  std::vector<std::unique_ptr<Recommender>> fitted;
  fitted.push_back(std::make_unique<AbsorbingCostRecommender>(
      EntropySource::kTopicBased, ac2_options));
  fitted.push_back(std::make_unique<AbsorbingTimeRecommender>());
  fitted.push_back(std::make_unique<HittingTimeRecommender>());

  std::map<std::string, std::vector<std::vector<ScoredItem>>> golden;
  for (const auto& rec : fitted) {
    if (Status s = rec->Fit(train); !s.ok()) return Fail("fit", s);
    auto lists = rec->RecommendBatch(probe_users, kTopK);
    std::vector<std::vector<ScoredItem>> want;
    for (auto& list : lists) {
      if (!list.ok()) return Fail("golden", list.status());
      want.push_back(std::move(list).value());
    }
    golden[rec->name()] = std::move(want);
    const std::string path = dir + "/" + rec->name() + ".ckpt";
    if (Status s = SaveModelCheckpoint(*rec, path); !s.ok()) {
      return Fail("save", s);
    }
    std::printf("  %-4s checkpointed -> %s\n", rec->name().c_str(),
                path.c_str());
  }
  if (Status s = SaveDatasetBinary(train, dir + "/train.bin"); !s.ok()) {
    return Fail("save dataset", s);
  }
  fitted.clear();  // The trainer process "exits".

  // ---- Phase 2: restarted server — engine straight from disk. ---------
  std::printf("\n== phase 2: cold-start engine from %s (no Fit) ==\n",
              dir.c_str());
  auto reloaded = LoadDatasetBinary(dir + "/train.bin");
  if (!reloaded.ok()) return Fail("load dataset", reloaded.status());

  SubgraphCache cache;  // shared, single-flight coalescing
  ServingEngineOptions options;
  options.max_batch_size = 16;
  options.max_queue_depth = 512;
  options.subgraph_cache = &cache;
  ServingEngine engine(options);  // background dispatcher on
  auto loaded = LoadCheckpointDirIntoEngine(dir, *reloaded, &engine);
  if (!loaded.ok()) return Fail("load checkpoints", loaded.status());
  std::printf("  models online:");
  for (const std::string& name : *loaded) std::printf(" %s", name.c_str());
  std::printf("\n");
  if (loaded->size() != golden.size()) {
    std::fprintf(stderr, "expected %zu models, loaded %zu\n", golden.size(),
                 loaded->size());
    return 1;
  }

  // Concurrent mixed-algorithm traffic: every client thread interleaves
  // the three models over a slice of users — async futures for bulk
  // traffic, a blocking Query sprinkled in — all through one engine and
  // one coalescing cache.
  std::printf("\n== mixed traffic: %d client threads x %d requests ==\n", 4,
              60);
  std::atomic<int> errors{0};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::string> names(loaded->begin(), loaded->end());
      std::vector<std::future<UserQueryResult>> futures;
      for (int i = 0; i < 60; ++i) {
        ServeRequest r;
        r.user = (c * 61 + i * 7) % reloaded->num_users();
        r.top_k = kTopK;
        r.deadline_tick = engine.NowTicks() + 2000;  // generous: 2 s
        const std::string& model = names[i % names.size()];
        if (i % 10 == 9) {
          // Blocking path.
          const UserQueryResult got = engine.Query(model, r);
          if (!got.status.ok()) errors.fetch_add(1);
          served.fetch_add(1);
        } else {
          futures.push_back(engine.Submit(model, r));
        }
      }
      for (auto& f : futures) {
        const UserQueryResult got = f.get();
        if (!got.status.ok()) {
          std::fprintf(stderr, "request failed: %s\n",
                       got.status.ToString().c_str());
          errors.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  const EngineStats traffic = engine.Stats();
  const SubgraphCacheStats cache_stats = cache.Stats();
  std::printf(
      "  %llu served, %llu batches, %.2f mean queue ticks (max %llu)\n",
      static_cast<unsigned long long>(served.load()),
      static_cast<unsigned long long>(traffic.batches_executed),
      traffic.MeanQueueTicks(),
      static_cast<unsigned long long>(traffic.queue_ticks_max));
  std::printf(
      "  cache: %llu extractions for %llu walk lookups "
      "(%.0f%% hit, %llu coalesced)\n",
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.hits + cache_stats.misses +
                                      cache_stats.coalesced_waits),
      100.0 * cache_stats.HitRate(),
      static_cast<unsigned long long>(cache_stats.coalesced_waits));

  // Golden parity: the engine must serve exactly what the fitted models
  // answered before the restart.
  std::printf("\n== golden parity through the engine ==\n");
  int mismatches = 0;
  for (const auto& [name, want] : golden) {
    int model_mismatches = 0;
    for (size_t i = 0; i < probe_users.size(); ++i) {
      ServeRequest r;
      r.user = probe_users[i];
      r.top_k = kTopK;
      const UserQueryResult got = engine.Query(name, r);
      if (!got.status.ok() || !Identical(want[i], got.top_k)) {
        ++model_mismatches;
      }
    }
    mismatches += model_mismatches;
    std::printf("  %-4s parity %s\n", name.c_str(),
                model_mismatches == 0 ? "OK" : "MISMATCH");
  }

  // Admission control: flood a tiny-queue engine without draining it —
  // the overflow fails fast with ResourceExhausted instead of piling up.
  std::printf("\n== admission control: flood a depth-8 queue ==\n");
  int rejected = 0;
  {
    ServingEngineOptions tiny;
    tiny.max_queue_depth = 8;
    tiny.max_batch_size = 8;
    tiny.subgraph_cache = &cache;
    tiny.start_dispatcher = false;  // nothing drains during the flood
    ServingEngine flood_engine(tiny);
    if (Status s = flood_engine.AddCheckpoint(dir + "/HT.ckpt", *reloaded);
        !s.ok()) {
      return Fail("flood engine checkpoint", s);
    }
    std::vector<std::future<UserQueryResult>> futures;
    for (int i = 0; i < 32; ++i) {
      ServeRequest r;
      r.user = i % reloaded->num_users();
      r.top_k = kTopK;
      futures.push_back(flood_engine.Submit("HT", r));
    }
    flood_engine.PumpUntilIdle();
    for (auto& f : futures) {
      const UserQueryResult got = f.get();
      if (got.status.code() == StatusCode::kResourceExhausted) ++rejected;
    }
    std::printf("  32 submitted, %d rejected fast, %d served\n", rejected,
                32 - rejected);
    if (rejected != 24) {
      std::fprintf(stderr, "expected 24 rejections, saw %d\n", rejected);
      return 1;
    }
  }

  if (errors.load() > 0 || mismatches > 0) {
    std::fprintf(stderr, "\n%d traffic errors, %d parity mismatches\n",
                 errors.load(), mismatches);
    return 1;
  }
  std::printf(
      "\nThe restarted engine served concurrent mixed-algorithm traffic\n"
      "bit-identically to the fitted originals: checkpoints for cold\n"
      "start, micro-batches for throughput, a coalescing cache for\n"
      "duplicate walks, and fail-fast admission control under flood.\n");
  return 0;
}
