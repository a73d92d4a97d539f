// perfbench — the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process serves one workload's fixed, seed-determined request list and
// drives the system only through public calls:
//   http_zipf_closed       AT with a µ-pruned subgraph behind loopback HTTP;
//                          one keep-alive connection sends back to back.
//   engine_zipf_saturated  one thread runs ServingEngine::QueryAll over a
//                          Zipf(0.99) list, so the admission queue stays full.
//   batch_wholegraph       offline QueryBatch over distinct users with µ = 0
//                          (whole graph); no engine, no cache, no HTTP.
// Set-up (corpus, Fit, engine/server start, one untimed warm-up pass of the
// list) runs several times and reports its median. Timed passes then repeat
// the list. With --trace 1 the timed passes alternate untraced and traced,
// and the run reports per-layer numbers instead of end-to-end ones.
//
// Every serve is checked: a user's list must be byte-identical across all
// of the run's serves, and a fixed sample must equal a direct RecommendTopK.
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. README.md beside this file explains workloads and metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/absorbing_time.h"
#include "data/generator.h"
#include "data/longtail_stats.h"
#include "graph/subgraph.h"
#include "graph/subgraph_cache.h"
#include "graph/walk_kernel.h"
#include "http/http_client.h"
#include "http/http_json.h"
#include "http/http_server.h"
#include "http/serving_http.h"
#include "serving/load_gen.h"
#include "serving/serving_engine.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/zipf.h"

namespace longtail {
namespace {

using Clock = std::chrono::steady_clock;

// The serving configuration of bench/bench_load.cc: Douban-like corpus at
// 2% scale, AT with τ = 15, 32-request micro-batches, a 256-deep admission
// queue and a 512 MB subgraph cache. Engine and batch workers are fixed at
// 4, and no workload uses more than 4 load threads or connections.
constexpr double kDoubanScale = 0.02;
constexpr int kTau = 15;
constexpr int kTopK = 10;
constexpr size_t kWorkers = 4;
// HTTP client connections, and server workers to answer them. One
// connection sends back to back. With more, requests of different
// connections shared micro-batches and vCPU wake-ups, and on a 4-vCPU
// virtual machine the latency tail moved between runs: p90 spread 30% over
// five seeds with 2 connections, and 40% over ten with 4.
constexpr size_t kHttpConnections = 1;
constexpr size_t kMaxBatch = 32;
constexpr size_t kQueueDepth = 256;
constexpr size_t kCacheBytes = size_t{512} << 20;
constexpr double kZipf = 0.99;
// The HTTP list draws Zipf(0.99) over the 128 most popular users only. They
// fit the cache even shard by shard (its byte budget is split over 16
// shards of ~17 entries), so after the warm-up every timed request hits and
// the workload measures the warm path and the transport. Over all users a
// list's one-off tail users changed with the seed, and with them the cost
// of a pass and the share of misses from crowded shards. The saturated
// workload carries the miss path.
constexpr size_t kHttpUsers = 128;
constexpr size_t kHttpRequests = 1000;
constexpr size_t kEngineRequests = 2000;
constexpr size_t kBatchUsers = 512;
// Seed of the fixed rank -> user popularity permutation.
constexpr uint64_t kPopulationSeed = 50123;
// Set-up repetitions (setup_s is their median) and the minimum number of
// timed passes of each kind.
constexpr int kSetupReps = 3;
constexpr int kMinPasses = 2;
// First distinct users of the list checked against a direct RecommendTopK,
// and replayed through the graph layer in the traced run.
constexpr size_t kReferenceUsers = 16;
constexpr size_t kReplayUsers = 32;
constexpr int kReplayRepeats = 3;
// Latency charged to a failed HTTP request: the front's default deadline.
constexpr double kFailedLatencyMs = 30000.0;

enum class Workload { kHttp, kEngine, kBatch };

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}
double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// FNV-1a over a served list's item ids and score bit patterns: two serves
/// hash alike iff they are byte-identical.
uint64_t HashList(const std::vector<ScoredItem>& items) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(items.size());
  for (const ScoredItem& s : items) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s.score, sizeof(bits));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(s.item)));
    mix(bits);
  }
  return h;
}

/// Checks every served list of the run. Driver-thread only.
class OutputChecker {
 public:
  explicit OutputChecker(const std::vector<bool>* tail) : tail_(tail) {}

  /// Records one serve of `user`; false when it differs from an earlier
  /// serve of the same user.
  bool Record(UserId user, const std::vector<ScoredItem>& items) {
    const uint64_t hash = HashList(items);
    const auto [it, inserted] = first_.emplace(user, hash);
    if (!inserted) return it->second == hash;
    for (const ScoredItem& s : items) {
      if (s.item >= 0 && static_cast<size_t>(s.item) < tail_->size() &&
          (*tail_)[s.item]) {
        ++tail_items_;
      }
    }
    served_items_ += items.size();
    return true;
  }

  /// True when `user` was served and its list equals `items`.
  bool Matches(UserId user, const std::vector<ScoredItem>& items) const {
    const auto it = first_.find(user);
    return it != first_.end() && it->second == HashList(items);
  }

  /// Order-independent digest of (user, list) over every served user.
  uint64_t Digest() const {
    uint64_t digest = 0;
    for (const auto& [user, hash] : first_) {
      uint64_t x = hash ^ (static_cast<uint64_t>(user) * 0x9e3779b97f4a7c15ull);
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      digest += x ^ (x >> 29);
    }
    return digest;
  }

  /// Share of tail items over the lists of the distinct users served, each
  /// user's list counted once, so how often a user repeats does not move it.
  double TailShare() const {
    return served_items_ > 0
               ? static_cast<double>(tail_items_) / served_items_
               : 0.0;
  }
  size_t distinct_users() const { return first_.size(); }

 private:
  const std::vector<bool>* tail_;
  std::unordered_map<UserId, uint64_t> first_;
  uint64_t tail_items_ = 0;
  uint64_t served_items_ = 0;
};

// ------------------------------------------------------------------ tracing

struct BatchSpan {
  Clock::time_point start, end;
  std::vector<UserId> users;
};
struct HandlerSpan {
  size_t rid = 0;
  Clock::time_point start, end;
};
/// One HTTP request as the client timed it.
struct ClientSpan {
  size_t rid = 0;
  Clock::time_point send, recv;
};

/// In-memory span store, written out when the run ends. Recording is off
/// outside traced passes.
class TraceLog {
 public:
  std::atomic<bool> recording{false};

  void AddBatch(BatchSpan span) {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(std::move(span));
  }
  void AddHandler(HandlerSpan span) {
    std::lock_guard<std::mutex> lock(mu_);
    handlers_.push_back(span);
  }
  void ObserveFusedWidth(int32_t width) {
    fused_sweeps_.fetch_add(1, std::memory_order_relaxed);
    fused_lanes_.fetch_add(static_cast<uint64_t>(width),
                           std::memory_order_relaxed);
  }

  /// Moves the spans recorded since the last call out of the log.
  void Drain(std::vector<BatchSpan>* batches,
             std::vector<HandlerSpan>* handlers) {
    std::lock_guard<std::mutex> lock(mu_);
    batches->swap(batches_);
    handlers->swap(handlers_);
    batches_.clear();
    handlers_.clear();
  }
  double FusedWidthMean() const {
    const uint64_t sweeps = fused_sweeps_.load();
    return sweeps > 0 ? static_cast<double>(fused_lanes_.load()) / sweeps
                      : 0.0;
  }

 private:
  std::mutex mu_;
  std::vector<BatchSpan> batches_;
  std::vector<HandlerSpan> handlers_;
  std::atomic<uint64_t> fused_sweeps_{0};
  std::atomic<uint64_t> fused_lanes_{0};
};

/// Pass-through model registered in place of the real one in traced runs:
/// records each QueryBatch span with its users and the fused sweep widths,
/// and forwards everything else unchanged.
class TracingRecommender : public Recommender {
 public:
  TracingRecommender(const Recommender* inner, TraceLog* log)
      : inner_(inner), log_(log) {
    data_ = inner->dataset();
  }

  std::string name() const override { return inner_->name(); }
  Status Fit(const Dataset&) override {
    return Status::FailedPrecondition("pass-through model is never fitted");
  }
  Result<std::vector<ScoredItem>> RecommendTopK(UserId user,
                                                int k) const override {
    return inner_->RecommendTopK(user, k);
  }
  Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const override {
    return inner_->ScoreItems(user, items);
  }

  std::vector<UserQueryResult> QueryBatch(
      std::span<const UserQuery> queries,
      const BatchOptions& options) const override {
    if (!log_->recording.load(std::memory_order_acquire)) {
      return inner_->QueryBatch(queries, options);
    }
    const std::function<void(int32_t)>* downstream =
        options.fused_width_observer;
    const std::function<void(int32_t)> observe = [&](int32_t width) {
      log_->ObserveFusedWidth(width);
      if (downstream != nullptr && *downstream) (*downstream)(width);
    };
    BatchOptions traced = options;
    traced.fused_width_observer = &observe;
    BatchSpan span;
    span.users.reserve(queries.size());
    for (const UserQuery& q : queries) span.users.push_back(q.user);
    span.start = Clock::now();
    std::vector<UserQueryResult> results = inner_->QueryBatch(queries, traced);
    span.end = Clock::now();
    log_->AddBatch(std::move(span));
    return results;
  }

 private:
  const Recommender* inner_;
  TraceLog* log_;
};

// ------------------------------------------------------------------- system

struct SetupTimes {
  double corpus_s = 0.0;
  double fit_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double total() const { return corpus_s + fit_s + start_s + warmup_s; }
};

/// Everything one set-up builds. Members are destroyed in reverse order:
/// clients, server, front, engine, cache, models, corpus.
struct System {
  std::unique_ptr<SyntheticData> corpus;
  std::unique_ptr<AbsorbingTimeRecommender> model;
  std::unique_ptr<TracingRecommender> traced;
  std::unique_ptr<SubgraphCache> cache;
  std::unique_ptr<ServingEngine> engine;
  std::unique_ptr<ServingHttpFront> front;
  std::unique_ptr<HttpServer> server;
  std::vector<std::unique_ptr<HttpClient>> clients;

  const Dataset& dataset() const { return corpus->dataset; }
  /// The model the workload queries: the pass-through in traced runs.
  const Recommender& serving() const {
    if (traced != nullptr) return *traced;
    return *model;
  }
};

int32_t MuFor(Workload w, int32_t num_items) {
  if (w == Workload::kBatch) return 0;  // whole graph
  return std::max<int32_t>(60, static_cast<int32_t>(0.067 * num_items));
}

/// Corpus, Fit and engine/server start; the caller times the warm-up.
std::unique_ptr<System> StartSystem(Workload w, TraceLog* log,
                                    SetupTimes* times) {
  auto sys = std::make_unique<System>();
  Clock::time_point t = Clock::now();
  auto generated =
      GenerateSyntheticData(SyntheticSpec::DoubanLike(kDoubanScale));
  LT_CHECK(generated.ok()) << generated.status().ToString();
  sys->corpus = std::make_unique<SyntheticData>(std::move(generated).value());
  times->corpus_s = Seconds(Clock::now() - t);

  t = Clock::now();
  GraphWalkOptions walk;
  walk.iterations = kTau;
  walk.max_subgraph_items = MuFor(w, sys->dataset().num_items());
  sys->model = std::make_unique<AbsorbingTimeRecommender>(walk);
  LT_CHECK_OK(sys->model->Fit(sys->dataset()));
  times->fit_s = Seconds(Clock::now() - t);

  t = Clock::now();
  if (log != nullptr) {
    sys->traced = std::make_unique<TracingRecommender>(sys->model.get(), log);
  }
  if (w != Workload::kBatch) {
    SubgraphCacheOptions cache_options;
    cache_options.max_bytes = kCacheBytes;
    sys->cache = std::make_unique<SubgraphCache>(cache_options);
    ServingEngineOptions engine_options;
    engine_options.max_batch_size = kMaxBatch;
    engine_options.max_queue_depth = kQueueDepth;
    engine_options.flush_interval_ticks = 1;
    engine_options.batch_threads = kWorkers;
    engine_options.subgraph_cache = sys->cache.get();
    sys->engine = std::make_unique<ServingEngine>(engine_options);
    LT_CHECK_OK(sys->engine->AddModel("AT", &sys->serving()));
  }
  if (w == Workload::kHttp) {
    ServingHttpFrontOptions front_options;
    front_options.ready_at_start = true;
    sys->front =
        std::make_unique<ServingHttpFront>(sys->engine.get(), front_options);
    HttpServerOptions server_options;
    server_options.num_workers = kHttpConnections;
    // Connections stay open for the whole run: no reconnects mid-pass.
    server_options.idle_timeout_ms = 120000;
    server_options.max_requests_per_connection = size_t{1} << 30;
    server_options.metrics = sys->engine->metrics();
    ServingHttpFront* front = sys->front.get();
    sys->server = std::make_unique<HttpServer>(
        [front, log](const RequestContext& ctx) {
          if (log == nullptr || !log->recording.load(std::memory_order_acquire)) {
            return front->Dispatch(ctx);
          }
          HandlerSpan span;
          const std::string& target = ctx.request.target;
          const size_t at = target.find("rid=");
          span.rid = at == std::string::npos
                         ? 0
                         : std::strtoull(target.c_str() + at + 4, nullptr, 10);
          span.start = Clock::now();
          HttpResponse response = front->Dispatch(ctx);
          span.end = Clock::now();
          log->AddHandler(span);
          return response;
        },
        server_options);
    LT_CHECK_OK(sys->server->Start());
    for (size_t c = 0; c < kHttpConnections; ++c) {
      auto client = std::make_unique<HttpClient>();
      LT_CHECK_OK(client->Connect("127.0.0.1", sys->server->port()));
      sys->clients.push_back(std::move(client));
    }
  }
  times->start_s = Seconds(Clock::now() - t);
  return sys;
}

// ------------------------------------------------------------- request list

struct RequestList {
  std::vector<UserId> users;
};

RequestList MakeRequests(Workload w, uint64_t seed, int32_t num_users) {
  LoadGenOptions gen_options;
  gen_options.num_users = static_cast<size_t>(num_users);
  gen_options.zipf_exponent = kZipf;
  gen_options.top_k = kTopK;
  RequestList list;
  if (w == Workload::kBatch) {
    // A seeded rank -> user permutation: its head is a sample of distinct
    // users.
    gen_options.seed = seed;
    const LoadGenerator sample(gen_options);
    for (size_t r = 0; r < kBatchUsers; ++r) {
      list.users.push_back(sample.UserForRank(r));
    }
    return list;
  }
  // Which users are hot is a property of the population, not of the run:
  // one fixed rank -> user permutation for every seed. The seed drives the
  // Zipf draws.
  gen_options.seed = kPopulationSeed;
  const LoadGenerator population(gen_options);
  const bool http = w == Workload::kHttp;
  const ZipfDistribution zipf(
      http ? kHttpUsers : static_cast<size_t>(num_users), kZipf);
  std::mt19937_64 rng(seed);
  const size_t n = http ? kHttpRequests : kEngineRequests;
  for (size_t i = 0; i < n; ++i) {
    list.users.push_back(population.UserForRank(zipf.Sample(rng)));
  }
  return list;
}

/// The first `n` distinct users of the list, in list order.
std::vector<UserId> FirstDistinct(const std::vector<UserId>& users, size_t n) {
  std::vector<UserId> out;
  std::set<UserId> seen;
  for (UserId u : users) {
    if (out.size() == n) break;
    if (seen.insert(u).second) out.push_back(u);
  }
  return out;
}

// ------------------------------------------------------------------- passes

/// One pass over the list.
struct PassResult {
  double seconds = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  /// http_zipf_closed: per request, send to response.
  std::vector<double> latency_ms;
};

/// One HTTP request as the client saw it.
struct HttpExchange {
  Clock::time_point send, recv;
  bool transport_ok = false;
  int status = 0;
  std::string body;
};

/// Sends the list over the system's keep-alive connections, each sending
/// its next request as soon as the previous response arrives.
void HttpSendAll(System& sys, const RequestList& list, size_t rid_base,
                 std::vector<HttpExchange>* out) {
  const size_t n = list.users.size();
  out->assign(n, HttpExchange{});
  std::atomic<size_t> next{0};
  const uint16_t port = sys.server->port();
  std::vector<std::thread> senders;
  for (auto& owned : sys.clients) {
    HttpClient* client = owned.get();
    senders.emplace_back([&, client] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        HttpExchange& ex = (*out)[i];
        const std::string target =
            "/v1/recommend?rid=" + std::to_string(rid_base + i);
        const std::string body =
            "{\"model\":\"AT\",\"user\":" + std::to_string(list.users[i]) +
            ",\"top_k\":" + std::to_string(kTopK) + "}";
        ex.send = Clock::now();
        auto response = client->Request("POST", target, body);
        ex.recv = Clock::now();
        if (response.ok()) {
          ex.transport_ok = true;
          ex.status = response.value().status;
          ex.body = std::move(response.value().body);
        }
        if (!response.ok() || !response.value().keep_alive) {
          client->Close();
          (void)client->Connect("127.0.0.1", port);
        }
      }
    });
  }
  for (auto& t : senders) t.join();
}

/// Decodes a /v1/recommend body into its served list.
bool DecodeItems(const std::string& body, UserId user,
                 std::vector<ScoredItem>* items) {
  auto parsed = ParseJson(body);
  if (!parsed.ok()) return false;
  const JsonValue* u = parsed.value().Find("user");
  const JsonValue* list = parsed.value().Find("items");
  if (u == nullptr || !u->is_number() || u->number_value() != user ||
      list == nullptr || !list->is_array()) {
    return false;
  }
  items->clear();
  for (const JsonValue& entry : list->items()) {
    const JsonValue* item = entry.Find("item");
    const JsonValue* score = entry.Find("score");
    if (item == nullptr || score == nullptr || !item->is_number() ||
        !score->is_number()) {
      return false;
    }
    const double id = item->number_value();
    if (!(id >= 0.0 && id < 2147483648.0)) return false;
    items->push_back({static_cast<ItemId>(id), score->number_value()});
  }
  return true;
}

/// Checks every exchange and fills the pass's latency sample.
void CheckHttp(const RequestList& list,
               const std::vector<HttpExchange>& exchanges,
               OutputChecker* checker, PassResult* pass) {
  std::vector<ScoredItem> items;
  for (size_t i = 0; i < exchanges.size(); ++i) {
    const HttpExchange& ex = exchanges[i];
    ++pass->attempted;
    const bool ok = ex.transport_ok && ex.status == 200 &&
                    DecodeItems(ex.body, list.users[i], &items) &&
                    checker->Record(list.users[i], items);
    if (!ok) ++pass->failed;
    pass->latency_ms.push_back(ok ? Ms(ex.recv - ex.send) : kFailedLatencyMs);
  }
}

void CheckResults(const RequestList& list,
                  const std::vector<UserQueryResult>& results,
                  OutputChecker* checker, PassResult* pass) {
  for (size_t i = 0; i < results.size(); ++i) {
    ++pass->attempted;
    if (!results[i].status.ok() ||
        !checker->Record(list.users[i], results[i].top_k)) {
      ++pass->failed;
    }
  }
}

/// Runs one pass of the workload. `exchanges` receives what the HTTP
/// client saw (http_zipf_closed only).
PassResult RunPass(Workload w, System& sys, const RequestList& list,
                   size_t rid_base, OutputChecker* checker,
                   std::vector<HttpExchange>* exchanges) {
  PassResult pass;
  switch (w) {
    case Workload::kHttp: {
      const Clock::time_point t0 = Clock::now();
      HttpSendAll(sys, list, rid_base, exchanges);
      pass.seconds = Seconds(Clock::now() - t0);
      CheckHttp(list, *exchanges, checker, &pass);
      break;
    }
    case Workload::kEngine: {
      std::vector<ServeRequest> requests(list.users.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        requests[i].user = list.users[i];
        requests[i].top_k = kTopK;
      }
      const Clock::time_point t0 = Clock::now();
      const std::vector<UserQueryResult> results =
          sys.engine->QueryAll("AT", requests);
      pass.seconds = Seconds(Clock::now() - t0);
      CheckResults(list, results, checker, &pass);
      break;
    }
    case Workload::kBatch: {
      std::vector<UserQuery> queries(list.users.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        queries[i].user = list.users[i];
        queries[i].top_k = kTopK;
      }
      BatchOptions options;
      options.num_threads = kWorkers;
      const Clock::time_point t0 = Clock::now();
      const std::vector<UserQueryResult> results =
          sys.serving().QueryBatch(queries, options);
      pass.seconds = Seconds(Clock::now() - t0);
      CheckResults(list, results, checker, &pass);
      break;
    }
  }
  return pass;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// End-to-end metrics of the untraced timed passes.
void AddEndToEnd(Workload w, const RequestList& list,
                 const std::vector<PassResult>& passes, double setup_s,
                 double ok_share, double tail_share,
                 std::vector<Metric>* out) {
  std::vector<double> p50_ms, pass_ms, qps;
  for (const PassResult& p : passes) {
    p50_ms.push_back(Quantile(p.latency_ms, 0.50));
    pass_ms.push_back(1e3 * p.seconds);
    qps.push_back(static_cast<double>(list.users.size()) / p.seconds);
  }
  // No tail latency here: on a 4-vCPU virtual machine the HTTP p90 spread
  // 1.3% between runs while the host was quiet and 31-55% while it was
  // busy, as the engine's 1 ms timer wake-ups came late. The traced run
  // reports it as http.latency_ms_p90.
  if (w == Workload::kHttp) {
    // The median request of each pass, then the median over passes.
    out->push_back({"latency_p50_ms", Median(p50_ms), "ms"});
  } else {
    // Closed passes have no per-request latency visible from outside;
    // latency here is the time to finish one pass of the list, so it
    // restates throughput_qps.
    out->push_back({"latency_p50_ms", Median(pass_ms), "ms"});
  }
  out->push_back({"throughput_qps", Median(qps), "1/s"});
  out->push_back({"setup_s", setup_s, "s"});
  out->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  out->push_back({"ok_share", ok_share, "share"});
  out->push_back({"tail_share", tail_share, "share"});
}

/// The timing trace.overhead compares between traced and untraced passes:
/// p50 latency over HTTP, the median pass time (1 / throughput)
/// elsewhere.
double HeadlineMs(Workload w, const std::vector<PassResult>& passes) {
  std::vector<double> values;
  for (const PassResult& p : passes) {
    if (w == Workload::kHttp) {
      values.insert(values.end(), p.latency_ms.begin(), p.latency_ms.end());
    } else {
      values.push_back(1e3 * p.seconds);
    }
  }
  return Median(values);
}

/// Counters the engine and cache keep, read at pass boundaries.
struct Counters {
  EngineStats engine;
  SubgraphCacheStats cache;
  std::map<double, uint64_t> queue_wait_buckets;  // le (ticks) -> cumulative
};

/// Cumulative buckets of the engine's longtail_engine_queue_wait_ticks
/// histogram, parsed from its exposition.
std::map<double, uint64_t> QueueWaitBuckets(const ServingEngine& engine) {
  static const std::string kPrefix =
      "longtail_engine_queue_wait_ticks_bucket{le=\"";
  std::map<double, uint64_t> buckets;
  const std::string text = engine.metrics()->ExportText();
  size_t pos = 0;
  while ((pos = text.find(kPrefix, pos)) != std::string::npos) {
    const size_t le_begin = pos + kPrefix.size();
    const size_t le_end = text.find('"', le_begin);
    const size_t value_begin = text.find(' ', le_end) + 1;
    const std::string le = text.substr(le_begin, le_end - le_begin);
    const double bound =
        le == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le);
    buckets[bound] = std::stoull(text.substr(value_begin));
    pos = value_begin;
  }
  return buckets;
}

Counters ReadCounters(const System& sys) {
  Counters c;
  if (sys.engine != nullptr) {
    c.engine = sys.engine->Stats();
    c.queue_wait_buckets = QueueWaitBuckets(*sys.engine);
  }
  if (sys.cache != nullptr) c.cache = sys.cache->Stats();
  return c;
}

/// Counter growth summed over the traced passes.
struct CounterDeltas {
  double batches = 0, dispatched = 0, rejected_queue_full = 0,
         backpressure_retries = 0;
  double hits = 0, misses = 0, evictions = 0, coalesced_waits = 0;
  std::map<double, double> queue_wait_buckets;  // cumulative per le
  SubgraphCacheStats last_cache;

  void Add(const Counters& b, const Counters& a) {
    batches += a.engine.batches_executed - b.engine.batches_executed;
    dispatched += a.engine.dispatched - b.engine.dispatched;
    rejected_queue_full +=
        a.engine.rejected_queue_full - b.engine.rejected_queue_full;
    backpressure_retries +=
        a.engine.backpressure_retries - b.engine.backpressure_retries;
    hits += a.cache.hits - b.cache.hits;
    misses += a.cache.misses - b.cache.misses;
    evictions += a.cache.evictions - b.cache.evictions;
    coalesced_waits += a.cache.coalesced_waits - b.cache.coalesced_waits;
    for (const auto& [le, count] : a.queue_wait_buckets) {
      const auto it = b.queue_wait_buckets.find(le);
      queue_wait_buckets[le] += static_cast<double>(
          count - (it == b.queue_wait_buckets.end() ? 0 : it->second));
    }
    last_cache = a.cache;
  }
};

/// Quantile of a cumulative histogram, linearly interpolated inside the
/// bucket that holds it.
double BucketQuantile(const std::map<double, double>& cumulative, double q) {
  if (cumulative.empty() || cumulative.rbegin()->second <= 0.0) return 0.0;
  const double target = q * cumulative.rbegin()->second;
  double lower_le = 0.0, lower_count = 0.0;
  for (const auto& [le, count] : cumulative) {
    if (count >= target) {
      if (!std::isfinite(le)) return lower_le;
      const double width = count - lower_count;
      return width > 0.0
                 ? lower_le + (le - lower_le) * (target - lower_count) / width
                 : le;
    }
    lower_le = le;
    lower_count = count;
  }
  return lower_le;
}

/// Times the graph layer's public calls on a fixed sample of users:
/// extraction, plan build, and the ranking sweep of Algorithm 1.
void ReplayGraphLayer(const AbsorbingTimeRecommender& model,
                      const std::vector<UserId>& users,
                      std::vector<Metric>* out) {
  const Dataset& d = *model.dataset();
  const BipartiteGraph& g = model.graph();
  SubgraphOptions sub_options;
  sub_options.max_items = model.options().max_subgraph_items;
  WalkWorkspace ws;
  WalkKernel kernel;
  std::vector<NodeId> seeds;
  std::vector<bool> absorbing;
  std::vector<double> costs, values;
  std::vector<double> extract_us, plan_us, sweep_us, ns_per_edge, edges;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    for (UserId user : users) {
      seeds.assign(1, g.UserNode(user));
      for (ItemId item : d.UserItems(user)) seeds.push_back(g.ItemNode(item));
      Clock::time_point t = Clock::now();
      const Subgraph& sub = ExtractSubgraphInto(g, seeds, sub_options, &ws);
      extract_us.push_back(Us(Clock::now() - t));

      t = Clock::now();
      auto plan = std::make_shared<WalkPlan>();
      plan->Build(sub.graph, WalkNormalization::kRowStochastic);
      plan_us.push_back(Us(Clock::now() - t));

      kernel.AdoptPlan(plan);
      absorbing.assign(sub.graph.num_nodes(), false);
      for (ItemId item : d.UserItems(user)) {
        absorbing[sub.LocalItemNode(item)] = true;
      }
      costs.assign(sub.graph.num_nodes(), 1.0);
      kernel.CompileAbsorbingSweep(absorbing, costs);
      t = Clock::now();
      kernel.SweepTruncatedItemValues(kTau, &values);
      const double us = Us(Clock::now() - t);
      sweep_us.push_back(us);
      const double e = static_cast<double>(sub.graph.num_edges());
      edges.push_back(e);
      ns_per_edge.push_back(e > 0.0 ? 1e3 * us / (kTau * e) : 0.0);
    }
  }
  out->push_back({"graph.extract_us", Median(extract_us), "us"});
  out->push_back({"graph.plan_build_us", Median(plan_us), "us"});
  out->push_back({"graph.sweep_us", Median(sweep_us), "us"});
  out->push_back({"graph.sweep_ns_per_edge", Median(ns_per_edge), "ns"});
  out->push_back({"graph.subgraph_edges_mean", Mean(edges), "count"});
}

/// What the traced passes recorded, accumulated over passes.
struct TraceSample {
  // http: per matched request.
  std::vector<double> rtt_ms, handler_ms, transport_ms;
  std::vector<double> queue_wait_ms;
  double handler_sum_ms = 0.0, queue_plus_batch_sum_ms = 0.0;
  double attributed_ms = 0.0, end_to_end_ms = 0.0;
  size_t unmatched = 0, unnested = 0;
  // All workloads: per QueryBatch span.
  std::vector<double> batch_ms;
  double batch_queries = 0.0, batch_total_ms = 0.0, duplicates = 0.0;
};

/// Folds one traced pass's spans into `sample`.
void AnalyzePass(Workload w, const RequestList& list,
                 const std::vector<HttpExchange>& exchanges, size_t rid_base,
                 const PassResult& pass, std::vector<BatchSpan> batches,
                 std::vector<HandlerSpan> handlers, TraceSample* sample) {
  std::sort(batches.begin(), batches.end(),
            [](const BatchSpan& a, const BatchSpan& b) {
              return a.start < b.start;
            });
  double busy_ms = 0.0;
  Clock::time_point covered{};
  for (const BatchSpan& b : batches) {
    const double ms = Ms(b.end - b.start);
    sample->batch_ms.push_back(ms);
    sample->batch_total_ms += ms;
    sample->batch_queries += static_cast<double>(b.users.size());
    std::set<UserId> seen;
    for (UserId u : b.users) {
      if (!seen.insert(u).second) sample->duplicates += 1.0;
    }
    // Union of span time (spans may overlap when batches run in parallel).
    const Clock::time_point from = std::max(b.start, covered);
    if (b.end > from) busy_ms += Ms(b.end - from);
    covered = std::max(covered, b.end);
  }
  if (w != Workload::kHttp) {
    sample->attributed_ms += busy_ms;
    sample->end_to_end_ms += 1e3 * pass.seconds;
    return;
  }

  // Pair handler spans with client exchanges by request id, then with the
  // QueryBatch that served them: requests of one user are served in
  // arrival order, so the k-th handler span of user u (by start) matches
  // the k-th occurrence of u across batches in execution order.
  std::unordered_map<UserId, std::deque<const HandlerSpan*>> waiting;
  std::sort(handlers.begin(), handlers.end(),
            [](const HandlerSpan& a, const HandlerSpan& b) {
              return a.start < b.start;
            });
  for (const HandlerSpan& h : handlers) {
    if (h.rid < rid_base || h.rid - rid_base >= exchanges.size()) {
      ++sample->unmatched;
      continue;
    }
    waiting[list.users[h.rid - rid_base]].push_back(&h);
  }
  for (const BatchSpan& b : batches) {
    for (UserId u : b.users) {
      auto it = waiting.find(u);
      if (it == waiting.end() || it->second.empty() ||
          it->second.front()->start > b.start) {
        ++sample->unmatched;
        continue;
      }
      const HandlerSpan& h = *it->second.front();
      it->second.pop_front();
      const HttpExchange& ex = exchanges[h.rid - rid_base];
      if (h.start < ex.send || h.end > ex.recv) ++sample->unnested;
      const double rtt = Ms(ex.recv - ex.send);
      const double handler = Ms(h.end - h.start);
      const double queue_wait = Ms(b.start - h.start);
      const double batch = Ms(b.end - b.start);
      sample->rtt_ms.push_back(rtt);
      sample->handler_ms.push_back(handler);
      sample->transport_ms.push_back(rtt - handler);
      sample->queue_wait_ms.push_back(queue_wait);
      sample->handler_sum_ms += handler;
      sample->queue_plus_batch_sum_ms += queue_wait + batch;
      sample->attributed_ms += (rtt - handler) + queue_wait + batch;
      sample->end_to_end_ms += rtt;
    }
  }
  for (const auto& [user, left] : waiting) sample->unmatched += left.size();
}

/// Per-layer metrics of the traced passes. Returns false when the trace
/// does not reconcile with the end-to-end timings.
bool AddPerLayer(Workload w, const System& sys, const RequestList& list,
                 const TraceSample& s, const CounterDeltas& counts,
                 double overhead,
                 const SetupTimes& setup, const TraceLog& log,
                 std::vector<Metric>* out) {
  out->push_back({"http.rtt_ms_p50", Quantile(s.rtt_ms, 0.5), "ms"});
  out->push_back({"http.handler_ms_p50", Quantile(s.handler_ms, 0.5), "ms"});
  out->push_back(
      {"http.transport_ms_p50", Quantile(s.transport_ms, 0.5), "ms"});

  double wait_p50 = 0.0, wait_p99 = 0.0;
  if (w == Workload::kHttp) {
    wait_p50 = Quantile(s.queue_wait_ms, 0.5);
    wait_p99 = Quantile(s.queue_wait_ms, 0.99);
  } else if (w == Workload::kEngine) {
    // QueryAll submits inside the engine, out of the driver's sight: read
    // the engine's own wait histogram (1 tick = 1 ms) between snapshots.
    wait_p50 = BucketQuantile(counts.queue_wait_buckets, 0.5);
    wait_p99 = BucketQuantile(counts.queue_wait_buckets, 0.99);
  }
  out->push_back({"serving.queue_wait_ms_p50", wait_p50, "ms"});
  out->push_back({"serving.queue_wait_ms_p99", wait_p99, "ms"});
  out->push_back({"serving.batch_size_mean",
                  counts.batches > 0.0 ? counts.dispatched / counts.batches
                                       : 0.0,
                  "count"});
  out->push_back({"serving.batches", counts.batches, "count"});
  out->push_back(
      {"serving.rejected_queue_full", counts.rejected_queue_full, "count"});
  out->push_back(
      {"serving.backpressure_retries", counts.backpressure_retries, "count"});

  out->push_back({"core.query_batch_ms_p50", Quantile(s.batch_ms, 0.5), "ms"});
  out->push_back({"core.per_query_us",
                  s.batch_queries > 0.0
                      ? 1e3 * s.batch_total_ms / s.batch_queries
                      : 0.0,
                  "us"});
  out->push_back({"core.duplicate_share",
                  s.batch_queries > 0.0 ? s.duplicates / s.batch_queries : 0.0,
                  "share"});
  out->push_back({"core.fused_width_mean", log.FusedWidthMean(), "count"});

  const SubgraphCacheStats& c1 = counts.last_cache;
  const double lookups = counts.hits + counts.misses;
  out->push_back({"cache.hit_ratio",
                  lookups > 0.0 ? counts.hits / lookups : 0.0, "share"});
  out->push_back({"cache.misses", counts.misses, "count"});
  out->push_back({"cache.evictions", counts.evictions, "count"});
  out->push_back({"cache.coalesced_waits", counts.coalesced_waits, "count"});
  out->push_back({"cache.resident_mb",
                  static_cast<double>(c1.resident_bytes) / (1 << 20), "MB"});
  out->push_back({"cache.plan_resident_mb",
                  static_cast<double>(c1.plan_resident_bytes) / (1 << 20),
                  "MB"});
  out->push_back({"cache.bytes_per_entry",
                  c1.entries > 0 ? static_cast<double>(c1.resident_bytes) /
                                       static_cast<double>(c1.entries)
                                 : 0.0,
                  "B"});

  ReplayGraphLayer(*sys.model, FirstDistinct(list.users, kReplayUsers), out);

  out->push_back({"setup.corpus_s", setup.corpus_s, "s"});
  out->push_back({"setup.fit_s", setup.fit_s, "s"});
  out->push_back({"setup.warmup_s", setup.warmup_s, "s"});
  out->push_back({"trace.overhead", overhead, "share"});
  out->push_back({"trace.unattributed_share",
                  s.end_to_end_ms > 0.0
                      ? 1.0 - s.attributed_ms / s.end_to_end_ms
                      : 0.0,
                  "share"});

  // Reconciliation (http_zipf_closed, the one workload whose requests the
  // driver sees one by one): every handler span nests inside its client
  // round trip, so handler + transport = rtt with transport >= 0; and
  // queue wait + QueryBatch is within 10% of the engine-side latency.
  if (w != Workload::kHttp) return true;
  bool ok = true;
  if (s.unmatched > 0 || s.unnested > 0 || s.handler_ms.empty()) {
    std::fprintf(stderr,
                 "trace: %zu spans unmatched, %zu not nested in their round "
                 "trip\n",
                 s.unmatched, s.unnested);
    ok = false;
  }
  if (std::fabs(s.queue_plus_batch_sum_ms - s.handler_sum_ms) >
      0.10 * s.handler_sum_ms) {
    std::fprintf(stderr,
                 "trace: queue wait + QueryBatch = %.3f ms vs handler %.3f ms "
                 "(outside 10%%)\n",
                 s.queue_plus_batch_sum_ms, s.handler_sum_ms);
    ok = false;
  }
  return ok;
}

/// Writes every span of the traced passes as JSON lines, times in µs from
/// `origin`.
void WriteTrace(const std::string& path, Clock::time_point origin,
                const std::vector<BatchSpan>& batches,
                const std::vector<HandlerSpan>& handlers,
                const std::vector<ClientSpan>& requests) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write trace to %s\n", path.c_str());
    return;
  }
  for (const BatchSpan& b : batches) {
    std::fprintf(f, "{\"span\":\"query_batch\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"users\":[",
                 Us(b.start - origin), Us(b.end - origin));
    for (size_t i = 0; i < b.users.size(); ++i) {
      std::fprintf(f, "%s%d", i > 0 ? "," : "", b.users[i]);
    }
    std::fprintf(f, "]}\n");
  }
  for (const HandlerSpan& h : handlers) {
    std::fprintf(f, "{\"span\":\"http_dispatch\",\"rid\":%zu,"
                    "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 h.rid, Us(h.start - origin), Us(h.end - origin));
  }
  for (const ClientSpan& r : requests) {
    std::fprintf(f, "{\"span\":\"http_request\",\"rid\":%zu,"
                    "\"send_us\":%.3f,\"recv_us\":%.3f}\n",
                 r.rid, Us(r.send - origin), Us(r.recv - origin));
  }
  std::fclose(f);
}

// ------------------------------------------------------------------- set-up

/// A started system after its untimed warm-up pass.
struct Warmed {
  std::unique_ptr<System> sys;
  std::vector<bool> tail;
  std::unique_ptr<OutputChecker> checker;
  SetupTimes times;
  size_t attempted = 0;
  size_t failed = 0;
};

/// One set-up: corpus, Fit, start, and the warm-up pass over the list with
/// every serve checked. Warm-up request ids are [0, list size).
void SetUp(Workload w, const RequestList& list, TraceLog* log, Warmed* out) {
  out->sys = StartSystem(w, log, &out->times);
  out->tail = TailItemFlags(out->sys->dataset());
  out->checker = std::make_unique<OutputChecker>(&out->tail);
  std::vector<HttpExchange> exchanges;
  const Clock::time_point t = Clock::now();
  const PassResult warm =
      RunPass(w, *out->sys, list, 0, out->checker.get(), &exchanges);
  out->times.warmup_s = Seconds(Clock::now() - t);
  out->attempted = warm.attempted;
  out->failed = warm.failed;
}

/// What a set-up child sends back through its pipe.
struct ChildReport {
  SetupTimes times;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
};

/// Runs SetUp in a forked child and waits for it. Call only while this
/// process has no other thread: the child starts from a copy of it.
bool SetUpInChild(Workload w, const RequestList& list, ChildReport* report) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    Warmed warmed;
    SetUp(w, list, nullptr, &warmed);
    ChildReport r;
    r.times = warmed.times;
    r.attempted = warmed.attempted;
    r.failed = warmed.failed;
    r.digest = warmed.checker->Digest();
    const bool sent = write(fds[1], &r, sizeof(r)) == sizeof(r);
    // Exit without tearing the system down; the kernel reclaims it.
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  size_t got = 0;
  char* dst = reinterpret_cast<char*>(report);
  while (got < sizeof(*report)) {
    const ssize_t n = read(fds[0], dst + got, sizeof(*report) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got == sizeof(*report) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

// --------------------------------------------------------------------- main

struct Flags {
  std::string workload;
  int64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_out;
};

int Run(const Flags& flags) {
  Workload w;
  if (flags.workload == "http_zipf_closed") {
    w = Workload::kHttp;
  } else if (flags.workload == "engine_zipf_saturated") {
    w = Workload::kEngine;
  } else if (flags.workload == "batch_wholegraph") {
    w = Workload::kBatch;
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  if (flags.seconds < 1 || (flags.trace != 0 && flags.trace != 1)) {
    std::fprintf(stderr, "--seconds must be >= 1 and --trace 0 or 1\n");
    return 2;
  }
  const bool tracing = flags.trace == 1;
  const Clock::time_point origin = Clock::now();

  const SyntheticSpec spec = SyntheticSpec::DoubanLike(kDoubanScale);
  const RequestList list =
      MakeRequests(w, static_cast<uint64_t>(flags.seed), spec.num_users);
  TraceLog log;

  // Set-up, several times: all but the last in forked children, before
  // this process starts any thread, so that the measured process builds
  // exactly one system and every repetition starts cold. Children serve
  // the same warm-up list; their digest must equal ours.
  std::vector<ChildReport> children(kSetupReps - 1);
  for (ChildReport& child : children) {
    if (!SetUpInChild(w, list, &child)) {
      std::fprintf(stderr, "set-up in a child process failed\n");
      return 1;
    }
  }
  Warmed warmed;
  SetUp(w, list, tracing ? &log : nullptr, &warmed);
  System* sys = warmed.sys.get();
  OutputChecker* checker = warmed.checker.get();
  size_t attempted = warmed.attempted, failed = warmed.failed;
  std::vector<SetupTimes> setups{warmed.times};
  for (const ChildReport& child : children) {
    setups.push_back(child.times);
    attempted += child.attempted + 1;
    failed += child.failed + (child.digest != checker->Digest() ? 1 : 0);
  }
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf("# setup %zu: corpus %.3fs fit %.3fs start %.3fs warm-up %.3fs\n",
                i, setups[i].corpus_s, setups[i].fit_s, setups[i].start_s,
                setups[i].warmup_s);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  SetupTimes setup;
  setup.corpus_s = median_of(&SetupTimes::corpus_s);
  setup.fit_s = median_of(&SetupTimes::fit_s);
  setup.warmup_s = median_of(&SetupTimes::warmup_s);
  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.total());
  const double setup_s = Median(totals);
  size_t rid = list.users.size();  // the warm-up used ids [0, n)
  std::vector<HttpExchange> exchanges;

  // Timed passes repeat until --seconds have passed, traced or not.
  std::vector<PassResult> untraced, traced;
  TraceSample sample;
  std::vector<BatchSpan> all_batches;
  std::vector<HandlerSpan> all_handlers;
  std::vector<ClientSpan> all_requests;
  CounterDeltas counts;
  const int kinds = tracing ? 2 : 1;  // traced runs alternate the two
  const Clock::time_point timed_start = Clock::now();
  for (int p = 0;; ++p) {
    if (p % kinds == 0) {
      const bool enough =
          static_cast<int>(untraced.size()) >= kMinPasses &&
          Seconds(Clock::now() - timed_start) >= flags.seconds;
      if (enough) break;
    }
    const bool traced_pass = p % kinds == 1;
    const Counters pass_before = traced_pass ? ReadCounters(*sys) : Counters{};
    log.recording.store(traced_pass, std::memory_order_release);
    PassResult pass = RunPass(w, *sys, list, rid, checker, &exchanges);
    log.recording.store(false, std::memory_order_release);
    attempted += pass.attempted;
    failed += pass.failed;
    std::printf("# pass %d (%s): %.3fs", p,
                traced_pass ? "traced" : "untraced", pass.seconds);
    if (!pass.latency_ms.empty()) {
      std::printf(", latency p50 %.3f ms p90 %.3f ms p99 %.3f ms",
                  Quantile(pass.latency_ms, 0.5), Quantile(pass.latency_ms, 0.9),
                  Quantile(pass.latency_ms, 0.99));
    }
    std::printf("\n");
    if (traced_pass) {
      counts.Add(pass_before, ReadCounters(*sys));
      std::vector<BatchSpan> batches;
      std::vector<HandlerSpan> handlers;
      log.Drain(&batches, &handlers);
      AnalyzePass(w, list, exchanges, rid, pass, batches, handlers, &sample);
      all_batches.insert(all_batches.end(), batches.begin(), batches.end());
      all_handlers.insert(all_handlers.end(), handlers.begin(),
                          handlers.end());
      if (w == Workload::kHttp) {
        for (size_t i = 0; i < exchanges.size(); ++i) {
          const HttpExchange& ex = exchanges[i];
          all_requests.push_back({rid + i, ex.send, ex.recv});
        }
      }
      traced.push_back(std::move(pass));
    } else {
      untraced.push_back(std::move(pass));
    }
    rid += list.users.size();
  }

  // Reference check: a fixed sample of served users against a direct,
  // uncached RecommendTopK.
  for (UserId user : FirstDistinct(list.users, kReferenceUsers)) {
    ++attempted;
    auto direct = sys->model->RecommendTopK(user, kTopK);
    if (!direct.ok() || !checker->Matches(user, direct.value())) {
      std::fprintf(stderr, "user %d: served list differs from RecommendTopK\n",
                   user);
      ++failed;
    }
  }
  std::printf("# served %zu distinct users, digest %016llx\n",
              checker->distinct_users(),
              static_cast<unsigned long long>(checker->Digest()));

  std::vector<Metric> metrics;
  bool reconciled = true;
  if (tracing) {
    const double overhead =
        HeadlineMs(w, traced) / HeadlineMs(w, untraced) - 1.0;
    reconciled = AddPerLayer(w, *sys, list, sample, counts, overhead,
                             setup, log, &metrics);
    // The HTTP tail moves with host load, too much to gate on; it is
    // reported here.
    std::vector<double> latency_ms;
    for (const PassResult& pass : traced) {
      latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                        pass.latency_ms.end());
    }
    metrics.push_back(
        {"http.latency_ms_p90", Quantile(latency_ms, 0.90), "ms"});
    metrics.push_back(
        {"http.latency_ms_p99", Quantile(latency_ms, 0.99), "ms"});
    WriteTrace(flags.trace_out, origin, all_batches, all_handlers,
               all_requests);
  } else {
    AddEndToEnd(w, list, untraced, setup_s,
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(attempted),
                checker->TailShare(), &metrics);
  }

  for (const Metric& m : metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = failed == 0 && reconciled;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace longtail

int main(int argc, char** argv) {
  longtail::Flags flags;
  longtail::FlagParser parser;
  parser.AddString("workload", &flags.workload,
                   "http_zipf_closed | engine_zipf_saturated | batch_wholegraph");
  parser.AddInt("seed", &flags.seed, "workload seed");
  parser.AddInt("seconds", &flags.seconds, "measured seconds");
  parser.AddInt("trace", &flags.trace, "1 = traced run (per-layer metrics)");
  parser.AddString("trace_out", &flags.trace_out,
                   "traced run: JSON-lines span file (empty = none)");
  const longtail::Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  return longtail::Run(flags);
}
