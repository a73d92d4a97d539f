// Closed-loop + open-loop load harness for the ServingEngine front door.
//
// Serves Zipf-distributed user traffic (util/zipf.h; YCSB-style exponent
// 0.99 by default) against an AT graph walker behind the engine's
// admission-controlled micro-batching, and measures the two numbers a
// capacity plan needs:
//
//  * closed loop — N concurrent clients in submit→wait→repeat lockstep,
//    ramped over a client ladder. Offered load self-limits to the service
//    rate, so the ladder's best throughput is the *saturation rate* of
//    this engine configuration on this machine.
//  * open loop — a Poisson arrival schedule at a fixed rate, submitted
//    regardless of completions (the regime real front ends live in, and
//    the only one where queueing delay and admission rejections appear).
//    The rate sweeps fractions of the measured saturation through 2x past
//    it; each point reports p50/p99/p99.9 latency from the *scheduled*
//    arrival (not the possibly-late submit instant, so a backed-up
//    submitter cannot hide queueing — the coordinated-omission trap) and
//    the rejection rate.
//
// Results go to BENCH_load.json (schema consumed by
// scripts/compare_bench.py --load and validated by CI's smoke run). The
// engine's Prometheus exposition is self-checked at the end of the run
// with the same checker the tests use.
#include "bench/bench_common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/absorbing_time.h"
#include "graph/subgraph_cache.h"
#include "http/http_client.h"
#include "http/http_server.h"
#include "http/serving_http.h"
#include "serving/load_gen.h"
#include "serving/serving_engine.h"
#include "tests/prometheus_text_checker.h"
#include "util/zipf.h"

namespace longtail {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct LoadFlags {
  double douban_scale = 0.02;  // corpus preset (see bench_common.h)
  int k = 10;                  // items per request
  int tau = 15;                // truncated DP iterations
  int threads = 0;             // batch workers (0 = hardware)
  int max_batch = 32;          // engine micro-batch cap
  int queue_depth = 256;       // admission-control queue bound
  double zipf = 0.99;          // workload skew
  int64_t seed = 50123;
  double closed_seconds = 2.0;  // measurement window per ladder rung
  double open_seconds = 3.0;    // measurement window per rate point
  // Closed-loop ladder top (1,2,4,...). Must comfortably exceed the
  // engine's micro-batch width: N lockstep clients cap the in-flight
  // population at N, so a short ladder under-fills batches and reports a
  // "saturation" the open-loop batched engine sails past — which is how
  // the 2x overload point once completed 741/741 with zero rejections.
  // 64 clients keep the queue deep enough that the best rung is a real
  // capacity ceiling and 2x of it genuinely overruns the admission queue.
  int max_clients = 64;
  // Re-run the closed ladder through a loopback HttpServer on the same
  // engine: the rung-by-rung delta against the direct ladder is the full
  // transport cost (socket round trip + parse + JSON + dispatch).
  bool http = false;
  bool smoke = false;           // CI mode: tiny corpus, short windows
  std::string out = "BENCH_load.json";
};

struct ClosedPoint {
  int clients = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double seconds = 0.0;
  double throughput = 0.0;       // completions / second
  double mean_latency = 0.0;     // seconds, over completions
};

struct OpenPoint {
  double target_rate = 0.0;      // requests / second offered
  double fraction_of_saturation = 0.0;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  double seconds = 0.0;
  double achieved_rate = 0.0;    // completions / second
  double rejection_rate = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;  // seconds
};

double Percentile(std::vector<double>* sorted_latencies, double q) {
  if (sorted_latencies->empty()) return 0.0;
  const size_t n = sorted_latencies->size();
  const size_t idx = std::min(
      n - 1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))) -
                 (q > 0.0 ? 1 : 0));
  return (*sorted_latencies)[idx];
}

/// One closed-loop rung: `clients` threads in submit→wait→repeat lockstep
/// for `seconds`. Each client draws from its own seeded generator so the
/// rung's workload is deterministic in (seed, clients).
ClosedPoint RunClosedLoop(ServingEngine& engine, const std::string& model,
                          const LoadGenOptions& gen_options, int clients,
                          double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0}, rejected{0};
  std::atomic<double> latency_sum{0.0};
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      LoadGenOptions my_options = gen_options;
      my_options.seed = gen_options.seed + 7919ull * (c + 1);
      LoadGenerator gen(my_options);
      double my_latency = 0.0;
      uint64_t my_completed = 0, my_rejected = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ServeRequest request = gen.Next();
        const Clock::time_point t0 = Clock::now();
        const UserQueryResult result = engine.Query(model, request);
        if (result.status.ok()) {
          my_latency += SecondsSince(t0);
          ++my_completed;
        } else {
          ++my_rejected;
        }
      }
      completed.fetch_add(my_completed, std::memory_order_relaxed);
      rejected.fetch_add(my_rejected, std::memory_order_relaxed);
      double seen = latency_sum.load(std::memory_order_relaxed);
      while (!latency_sum.compare_exchange_weak(seen, seen + my_latency,
                                                std::memory_order_relaxed)) {
      }
    });
  }
  const Clock::time_point start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  ClosedPoint point;
  point.clients = clients;
  point.completed = completed.load();
  point.rejected = rejected.load();
  point.seconds = SecondsSince(start);
  point.throughput = point.completed / std::max(1e-9, point.seconds);
  point.mean_latency =
      point.completed > 0 ? latency_sum.load() / point.completed : 0.0;
  return point;
}

/// The same closed-loop rung driven over loopback HTTP: each client owns a
/// keep-alive connection to the embedded server and POSTs /v1/recommend in
/// submit→wait→repeat lockstep. Client c draws from the same seeded
/// generator as RunClosedLoop's client c, so a rung here and its direct
/// twin offer the same user stream — the throughput delta is purely the
/// transport stack.
ClosedPoint RunClosedLoopHttp(uint16_t port, const std::string& model,
                              const LoadGenOptions& gen_options, int clients,
                              double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0}, rejected{0};
  std::atomic<double> latency_sum{0.0};
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      LoadGenOptions my_options = gen_options;
      my_options.seed = gen_options.seed + 7919ull * (c + 1);
      LoadGenerator gen(my_options);
      double my_latency = 0.0;
      uint64_t my_completed = 0, my_rejected = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ServeRequest request = gen.Next();
        const std::string body =
            "{\"model\":\"" + model +
            "\",\"user\":" + std::to_string(request.user) +
            ",\"top_k\":" + std::to_string(request.top_k) + "}";
        const Clock::time_point t0 = Clock::now();
        const auto response = client.Request("POST", "/v1/recommend", body);
        if (!response.ok()) {
          // Connection torn down (e.g. max_requests_per_connection):
          // reconnect and keep going, like a pooled client would.
          ++my_rejected;
          client.Close();
          if (!client.Connect("127.0.0.1", port).ok()) break;
          continue;
        }
        if (response.value().status == 200) {
          my_latency += SecondsSince(t0);
          ++my_completed;
        } else {
          ++my_rejected;
        }
      }
      completed.fetch_add(my_completed, std::memory_order_relaxed);
      rejected.fetch_add(my_rejected, std::memory_order_relaxed);
      double seen = latency_sum.load(std::memory_order_relaxed);
      while (!latency_sum.compare_exchange_weak(seen, seen + my_latency,
                                                std::memory_order_relaxed)) {
      }
    });
  }
  const Clock::time_point start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  ClosedPoint point;
  point.clients = clients;
  point.completed = completed.load();
  point.rejected = rejected.load();
  point.seconds = SecondsSince(start);
  point.throughput = point.completed / std::max(1e-9, point.seconds);
  point.mean_latency =
      point.completed > 0 ? latency_sum.load() / point.completed : 0.0;
  return point;
}

/// One open-loop rate point: a submitter walks the Poisson schedule and a
/// collector settles futures in submit order (per-model dispatch is FIFO,
/// so the collector is almost always parked on the oldest in-flight
/// future and timestamps each completion promptly).
OpenPoint RunOpenLoop(ServingEngine& engine, const std::string& model,
                      const LoadGenOptions& gen_options, double rate,
                      double seconds) {
  struct InFlight {
    std::future<UserQueryResult> future;
    Clock::time_point scheduled;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;
  bool submitting = true;

  std::vector<double> latencies;
  uint64_t completed = 0, rejected = 0;
  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || !submitting; });
        if (inflight.empty()) return;
        item = std::move(inflight.front());
        inflight.pop_front();
      }
      const UserQueryResult result = item.future.get();
      if (result.status.ok()) {
        latencies.push_back(std::chrono::duration<double>(
                                Clock::now() - item.scheduled)
                                .count());
        ++completed;
      } else {
        ++rejected;
      }
    }
  });

  LoadGenerator gen(gen_options);
  uint64_t offered = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point next = start;
  while (next < end) {
    std::this_thread::sleep_until(next);  // no-op when running behind
    const ServeRequest request = gen.Next();
    InFlight item;
    item.scheduled = next;
    item.future = engine.Submit(model, request);
    ++offered;
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(item));
    }
    cv.notify_one();
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gen.NextArrivalSeconds(rate)));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_all();
  collector.join();
  const double elapsed = SecondsSince(start);

  std::sort(latencies.begin(), latencies.end());
  OpenPoint point;
  point.target_rate = rate;
  point.offered = offered;
  point.completed = completed;
  point.rejected = rejected;
  point.seconds = elapsed;
  point.achieved_rate = completed / std::max(1e-9, elapsed);
  point.rejection_rate =
      offered > 0 ? static_cast<double>(rejected) / offered : 0.0;
  point.p50 = Percentile(&latencies, 0.50);
  point.p99 = Percentile(&latencies, 0.99);
  point.p999 = Percentile(&latencies, 0.999);
  return point;
}

void WriteJson(const LoadFlags& flags, const Dataset& d,
               const ServingEngineOptions& engine_options,
               const LoadGenOptions& gen_options,
               const std::vector<ClosedPoint>& ladder, double saturation,
               const std::vector<ClosedPoint>& http_ladder,
               double http_saturation,
               const std::vector<OpenPoint>& points,
               double rejection_at_2x, size_t metrics_series,
               bool exposition_ok) {
  std::FILE* f = std::fopen(flags.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n",
                 flags.out.c_str());
    return;
  }
  // The mode field lets validators assert overload behaviour only where
  // it is measurable: smoke windows are too short (and their corpora too
  // small) to fill the admission queue, so rejection_rate_at_2x_saturation
  // is only meaningful — and only gated — when mode == "full".
  std::fprintf(f, "{\n  \"bench\": \"load_harness\",\n  \"mode\": \"%s\",\n",
               flags.smoke ? "smoke" : "full");
  std::fprintf(f,
               "  \"corpus\": {\"users\": %d, \"items\": %d, "
               "\"ratings\": %lld},\n",
               d.num_users(), d.num_items(),
               static_cast<long long>(d.num_ratings()));
  std::fprintf(f,
               "  \"workload\": {\"model\": \"AT\", \"zipf_exponent\": %.3f, "
               "\"num_users\": %zu, \"top_k\": %d, \"seed\": %llu},\n",
               gen_options.zipf_exponent, gen_options.num_users,
               gen_options.top_k,
               static_cast<unsigned long long>(gen_options.seed));
  std::fprintf(
      f,
      "  \"engine\": {\"max_batch_size\": %zu, \"max_queue_depth\": %zu, "
      "\"batch_threads\": %zu, \"query_retry_budget\": %llu},\n",
      engine_options.max_batch_size, engine_options.max_queue_depth,
      engine_options.batch_threads,
      static_cast<unsigned long long>(engine_options.query_retry_budget));
  std::fprintf(f, "  \"closed_loop\": {\n    \"ladder\": [\n");
  for (size_t i = 0; i < ladder.size(); ++i) {
    const ClosedPoint& p = ladder[i];
    std::fprintf(f,
                 "      {\"name\": \"clients_%d\", \"clients\": %d, "
                 "\"seconds\": %.3f, \"completed\": %llu, "
                 "\"rejected\": %llu, \"throughput_rps\": %.2f, "
                 "\"mean_latency_seconds\": %.6f}%s\n",
                 p.clients, p.clients, p.seconds,
                 static_cast<unsigned long long>(p.completed),
                 static_cast<unsigned long long>(p.rejected), p.throughput,
                 p.mean_latency, i + 1 < ladder.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"saturation_rps\": %.2f\n  },\n",
               saturation);
  if (!http_ladder.empty()) {
    // Additive section (--http): same closed ladder through the loopback
    // HTTP front. Validators that check required fields ignore it.
    std::fprintf(f, "  \"http\": {\n    \"ladder\": [\n");
    for (size_t i = 0; i < http_ladder.size(); ++i) {
      const ClosedPoint& p = http_ladder[i];
      std::fprintf(f,
                   "      {\"name\": \"http_clients_%d\", \"clients\": %d, "
                   "\"seconds\": %.3f, \"completed\": %llu, "
                   "\"rejected\": %llu, \"throughput_rps\": %.2f, "
                   "\"mean_latency_seconds\": %.6f}%s\n",
                   p.clients, p.clients, p.seconds,
                   static_cast<unsigned long long>(p.completed),
                   static_cast<unsigned long long>(p.rejected), p.throughput,
                   p.mean_latency, i + 1 < http_ladder.size() ? "," : "");
    }
    std::fprintf(f,
                 "    ],\n    \"saturation_rps\": %.2f,\n"
                 "    \"transport_cost_fraction\": %.4f\n  },\n",
                 http_saturation,
                 saturation > 0.0
                     ? 1.0 - http_saturation / saturation
                     : 0.0);
  }
  std::fprintf(f, "  \"open_loop\": {\n    \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const OpenPoint& p = points[i];
    std::fprintf(
        f,
        "      {\"name\": \"rate_x%.2f\", \"fraction_of_saturation\": %.2f, "
        "\"target_rate_rps\": %.2f, \"seconds\": %.3f, \"offered\": %llu, "
        "\"completed\": %llu, \"rejected\": %llu, \"achieved_rps\": %.2f, "
        "\"rejection_rate\": %.4f, \"p50_seconds\": %.6f, "
        "\"p99_seconds\": %.6f, \"p999_seconds\": %.6f}%s\n",
        p.fraction_of_saturation, p.fraction_of_saturation, p.target_rate,
        p.seconds, static_cast<unsigned long long>(p.offered),
        static_cast<unsigned long long>(p.completed),
        static_cast<unsigned long long>(p.rejected), p.achieved_rate,
        p.rejection_rate, p.p50, p.p99, p.p999,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n    \"rejection_rate_at_2x_saturation\": %.4f\n"
               "  },\n",
               rejection_at_2x);
  std::fprintf(f,
               "  \"metrics\": {\"series_lines\": %zu, "
               "\"exposition_valid\": %s}\n}\n",
               metrics_series, exposition_ok ? "true" : "false");
  std::fclose(f);
  std::printf("# wrote %s\n", flags.out.c_str());
}

void Run(const LoadFlags& flags) {
  const SyntheticData corpus = [&] {
    bench::BenchFlags corpus_flags;
    corpus_flags.douban_scale = flags.smoke ? 0.005 : flags.douban_scale;
    return bench::MakeDoubanCorpus(corpus_flags);
  }();
  const Dataset& d = corpus.dataset;
  bench::PrintCorpusHeader("Douban-like", d);

  // The paper's production regime: µ-pruned subgraphs behind a shared
  // cache (uncapped at this scale would walk the whole component per
  // query and cache nothing but the full graph).
  GraphWalkOptions walk;
  walk.iterations = flags.tau;
  walk.max_subgraph_items = std::max<int32_t>(
      60, static_cast<int32_t>(0.067 * d.num_items()));
  AbsorbingTimeRecommender model(walk);
  {
    WallTimer fit_timer;
    LT_CHECK_OK(model.Fit(d));
    std::printf("# fitted AT (mu = %d) in %.2fs\n", walk.max_subgraph_items,
                fit_timer.ElapsedSeconds());
  }

  // Declaration order is destruction-order-critical: the registry outlives
  // the cache bound to it, which outlives the engine serving from it. (An
  // engine-owned registry would die inside the engine, before the cache
  // unbinds — a use-after-free in ~SubgraphCache.)
  MetricsRegistry registry;
  SubgraphCacheOptions cache_options;
  cache_options.max_bytes = 1ull << 29;
  SubgraphCache cache(cache_options);

  ServingEngineOptions engine_options;
  engine_options.max_batch_size = static_cast<size_t>(flags.max_batch);
  engine_options.max_queue_depth = static_cast<size_t>(flags.queue_depth);
  engine_options.batch_threads =
      flags.threads > 0 ? static_cast<size_t>(flags.threads) : 0;
  engine_options.subgraph_cache = &cache;
  engine_options.metrics = &registry;
  ServingEngine engine(engine_options);
  cache.BindMetrics(engine.metrics());
  LT_CHECK_OK(engine.AddModel(&model));

  LoadGenOptions gen_options;
  gen_options.num_users = static_cast<size_t>(d.num_users());
  gen_options.zipf_exponent = flags.zipf;
  gen_options.top_k = flags.k;
  gen_options.seed = static_cast<uint64_t>(flags.seed);

  const double closed_seconds = flags.smoke ? 0.3 : flags.closed_seconds;
  const double open_seconds = flags.smoke ? 0.3 : flags.open_seconds;
  const int max_clients = flags.smoke ? 2 : flags.max_clients;

  // Warm the cache's hot head so the ladder measures the steady state the
  // engine actually serves, not first-touch extraction.
  {
    LoadGenerator warm(gen_options);
    std::vector<ServeRequest> warm_requests;
    for (int i = 0; i < (flags.smoke ? 32 : 256); ++i) {
      warm_requests.push_back(warm.Next());
    }
    const auto results = engine.QueryAll("AT", warm_requests);
    for (const auto& r : results) LT_CHECK_OK(r.status);
  }

  // Closed loop: ramp the client ladder, saturation = best rung.
  std::printf("\n# closed loop (%.1fs per rung)\n\n", closed_seconds);
  std::printf("%8s %12s %14s %16s %10s\n", "clients", "completed",
              "throughput", "mean latency ms", "rejected");
  std::vector<ClosedPoint> ladder;
  double saturation = 0.0;
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    const ClosedPoint point =
        RunClosedLoop(engine, "AT", gen_options, clients, closed_seconds);
    std::printf("%8d %12llu %11.1f/s %16.3f %10llu\n", point.clients,
                static_cast<unsigned long long>(point.completed),
                point.throughput, 1e3 * point.mean_latency,
                static_cast<unsigned long long>(point.rejected));
    saturation = std::max(saturation, point.throughput);
    ladder.push_back(point);
  }
  LT_CHECK(saturation > 0.0) << "no closed-loop completions";

  // Loopback HTTP discipline (--http): the same ladder through an embedded
  // HttpServer + ServingHttpFront on this engine. The rung-by-rung delta
  // against the direct ladder prices the transport stack.
  std::vector<ClosedPoint> http_ladder;
  double http_saturation = 0.0;
  if (flags.http) {
    ServingHttpFrontOptions front_options;
    front_options.ready_at_start = true;  // models are already registered
    ServingHttpFront front(&engine, front_options);
    HttpServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.num_workers = static_cast<size_t>(max_clients);
    server_options.metrics = engine.metrics();
    HttpServer server(
        [&front](const RequestContext& ctx) { return front.Dispatch(ctx); },
        server_options);
    LT_CHECK_OK(server.Start());
    std::printf("\n# closed loop over loopback HTTP on 127.0.0.1:%u "
                "(%.1fs per rung)\n\n",
                server.port(), closed_seconds);
    std::printf("%8s %12s %14s %16s %10s %12s\n", "clients", "completed",
                "throughput", "mean latency ms", "rejected", "vs direct");
    for (int clients = 1; clients <= max_clients; clients *= 2) {
      const ClosedPoint point = RunClosedLoopHttp(
          server.port(), "AT", gen_options, clients, closed_seconds);
      const ClosedPoint& direct = ladder[http_ladder.size()];
      std::printf("%8d %12llu %11.1f/s %16.3f %10llu %11.1f%%\n",
                  point.clients,
                  static_cast<unsigned long long>(point.completed),
                  point.throughput, 1e3 * point.mean_latency,
                  static_cast<unsigned long long>(point.rejected),
                  direct.throughput > 0.0
                      ? 100.0 * point.throughput / direct.throughput
                      : 0.0);
      http_saturation = std::max(http_saturation, point.throughput);
      http_ladder.push_back(point);
    }
    server.Stop();
    LT_CHECK(http_saturation > 0.0) << "no HTTP closed-loop completions";
  }

  // Open loop: sweep fractions of saturation through 2x past the knee.
  const std::vector<double> fractions =
      flags.smoke ? std::vector<double>{0.5, 2.0}
                  : std::vector<double>{0.25, 0.5, 0.75, 1.0, 1.25, 2.0};
  std::printf("\n# open loop (Poisson arrivals, %.1fs per point)\n\n",
              open_seconds);
  std::printf("%10s %12s %10s %10s %10s %10s %10s\n", "rate", "offered",
              "p50 ms", "p99 ms", "p99.9 ms", "achieved", "rejected");
  std::vector<OpenPoint> points;
  double rejection_at_2x = 0.0;
  for (double fraction : fractions) {
    OpenPoint point = RunOpenLoop(engine, "AT", gen_options,
                                  fraction * saturation, open_seconds);
    point.fraction_of_saturation = fraction;
    std::printf("%7.2fx %12llu %10.3f %10.3f %10.3f %8.1f/s %9.1f%%\n",
                fraction, static_cast<unsigned long long>(point.offered),
                1e3 * point.p50, 1e3 * point.p99, 1e3 * point.p999,
                point.achieved_rate, 100.0 * point.rejection_rate);
    if (fraction == 2.0) rejection_at_2x = point.rejection_rate;
    points.push_back(point);
  }
  if (!flags.smoke && rejection_at_2x <= 0.0) {
    // A full run offering 2x a real saturation estimate must overrun the
    // admission queue; zero rejections means the ladder under-measured
    // capacity and the overload point is not an overload (CI gates the
    // committed artifact on this).
    std::fprintf(stderr,
                 "WARNING: 2x-saturation point rejected nothing — "
                 "saturation estimate is below true capacity\n");
  }

  // The run's own scrape surface, self-checked with the test checker.
  const std::string exposition = engine.metrics()->ExportText();
  std::string checker_error;
  const bool exposition_ok =
      CheckPrometheusText(exposition, &checker_error);
  size_t series_lines = 0;
  for (char ch : exposition) {
    if (ch == '\n') ++series_lines;
  }
  if (!exposition_ok) {
    std::fprintf(stderr, "metrics exposition INVALID: %s\n",
                 checker_error.c_str());
  }
  std::printf("\n# metrics: %zu exposition lines, checker %s\n",
              series_lines, exposition_ok ? "ok" : "INVALID");

  WriteJson(flags, d, engine_options, gen_options, ladder, saturation,
            http_ladder, http_saturation, points, rejection_at_2x,
            series_lines, exposition_ok);
  LT_CHECK(exposition_ok) << checker_error;
}

}  // namespace
}  // namespace longtail

int main(int argc, char** argv) {
  using namespace longtail;
  LoadFlags flags;
  FlagParser parser;
  parser.AddDouble("douban_scale", &flags.douban_scale,
                   "Douban-like corpus scale (1.0 = paper size)");
  parser.AddInt("k", &flags.k, "items per request");
  parser.AddInt("tau", &flags.tau, "truncated DP iterations");
  parser.AddInt("threads", &flags.threads, "batch workers (0 = hardware)");
  parser.AddInt("max_batch", &flags.max_batch, "engine micro-batch cap");
  parser.AddInt("queue_depth", &flags.queue_depth,
                "admission-control queue bound");
  parser.AddDouble("zipf", &flags.zipf, "workload skew exponent");
  parser.AddInt("seed", &flags.seed, "workload seed");
  parser.AddDouble("closed_seconds", &flags.closed_seconds,
                   "closed-loop window per ladder rung");
  parser.AddDouble("open_seconds", &flags.open_seconds,
                   "open-loop window per rate point");
  parser.AddInt("max_clients", &flags.max_clients,
                "closed-loop ladder top (powers of two up to this)");
  parser.AddBool("http", &flags.http,
                 "also run the closed ladder through a loopback HTTP "
                 "server (prices the transport stack)");
  parser.AddBool("smoke", &flags.smoke,
                 "CI mode: tiny corpus, short windows, 2-point sweep");
  parser.AddString("out", &flags.out, "output JSON path");
  const Status status = parser.Parse(argc, argv);
  if (!status.ok()) {
    if (status.code() != StatusCode::kFailedPrecondition) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
    }
    return status.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  std::printf("== ServingEngine load harness (Zipf arrivals) ==\n\n");
  Run(flags);
  return 0;
}
