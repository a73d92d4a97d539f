#include "serving/serving_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "serving/model_registry.h"
#include "util/serving_pool.h"

namespace longtail {

ServingEngine::ServingEngine(ServingEngineOptions options)
    : options_(options) {
  options_.max_batch_size = std::max<size_t>(1, options_.max_batch_size);
  options_.max_queue_depth = std::max<size_t>(1, options_.max_queue_depth);
  if (options_.clock != nullptr) {
    clock_ = options_.clock;
  } else {
    owned_clock_ = std::make_unique<SteadyTickClock>();
    clock_ = owned_clock_.get();
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  RegisterEngineMetrics();
  if (options_.start_dispatcher) {
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  }
}

ServingEngine::~ServingEngine() {
  // Callback series capture `this` and per-model entries; drop them before
  // any member starts dying so a concurrent scrape of an *external*
  // registry can never read a half-destroyed engine.
  metrics_->ReleaseCallbacks(this);
  shutdown_.store(true, std::memory_order_release);
  {
    // Pairs with the dispatcher's predicate check: without this empty
    // critical section a store between its check and its sleep could be
    // missed and the join below would hang.
    std::lock_guard<std::mutex> lock(dispatch_mu_);
  }
  dispatch_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Fail-fast shutdown: every still-queued request resolves with a typed
  // Status instead of blocking teardown behind unserved traffic.
  for (ModelEntry* entry : SnapshotEntries()) {
    std::vector<PendingRequest> drained = entry->queue.CloseAndDrain();
    queued_.fetch_sub(drained.size(), std::memory_order_relaxed);
    rejected_shutdown_.fetch_add(drained.size(), std::memory_order_release);
    for (PendingRequest& p : drained) {
      UserQueryResult failed;
      failed.status = Status::FailedPrecondition(
          "ServingEngine destroyed before the request was dispatched");
      p.promise.set_value(std::move(failed));
    }
  }
}

// ----------------------------------------------------------------- models

Status ServingEngine::AddEntry(std::string name, const Recommender* model,
                               std::unique_ptr<Recommender> owned) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot register a null model");
  }
  if (name.empty()) {
    return Status::InvalidArgument("cannot register a model without a name");
  }
  if (model->dataset() == nullptr) {
    return Status::FailedPrecondition(
        "model '" + name + "' must be fitted (or checkpoint-loaded) before "
        "it can serve");
  }
  auto entry = std::make_unique<ModelEntry>(options_.max_queue_depth);
  entry->name = name;
  entry->model = model;
  entry->owned = std::move(owned);
  ModelEntry* raw = entry.get();
  {
    std::lock_guard<std::mutex> lock(models_mu_);
    auto [it, inserted] = models_.emplace(std::move(name), std::move(entry));
    if (!inserted) {
      return Status::InvalidArgument("model '" + it->first +
                                     "' is already registered");
    }
  }
  // Outside models_mu_: registration takes the registry mutex, and
  // ExportText (registry mutex held) reads queue depths — never nest the
  // two the other way around.
  RegisterEntryMetrics(raw);
  return Status::OK();
}

void ServingEngine::RegisterEngineMetrics() {
  const auto counter = [this](const std::string& name,
                              const std::string& help,
                              const std::atomic<uint64_t>* source,
                              MetricLabels labels = {}) {
    metrics_->RegisterCallbackCounter(
        name, help, labels,
        [source] { return source->load(std::memory_order_relaxed); }, this);
  };
  counter("longtail_engine_requests_submitted_total",
          "Requests submitted to the engine (every Submit call).",
          &submitted_);
  counter("longtail_engine_requests_completed_total",
          "Requests fulfilled by an executed batch.", &completed_);
  counter("longtail_engine_requests_rejected_total",
          "Requests rejected without execution, by reason.",
          &rejected_queue_full_, {{"reason", "queue_full"}});
  counter("longtail_engine_requests_rejected_total",
          "Requests rejected without execution, by reason.",
          &rejected_expired_, {{"reason", "expired"}});
  counter("longtail_engine_requests_rejected_total",
          "Requests rejected without execution, by reason.",
          &rejected_unknown_model_, {{"reason", "unknown_model"}});
  counter("longtail_engine_requests_rejected_total",
          "Requests rejected without execution, by reason.",
          &rejected_shutdown_, {{"reason", "shutdown"}});
  counter("longtail_engine_requests_expired_in_queue_total",
          "Requests whose deadline passed while queued.", &expired_in_queue_);
  counter("longtail_engine_requests_dispatched_total",
          "Requests handed to a model's QueryBatch.", &dispatched_);
  counter("longtail_engine_batches_executed_total",
          "Micro-batches executed.", &batches_executed_);
  counter("longtail_engine_queue_wait_ticks_total",
          "Total ticks dispatched requests spent queued.", &queue_ticks_sum_);
  counter("longtail_engine_backpressure_retries_total",
          "Queue-full admissions retried inside blocking Query/QueryAll.",
          &backpressure_retries_);
  metrics_->RegisterCallbackGauge(
      "longtail_engine_queue_wait_ticks_max",
      "Worst queue wait observed at dispatch, in ticks.", {},
      [this] {
        return static_cast<double>(
            queue_ticks_max_.load(std::memory_order_relaxed));
      },
      this);
  metrics_->RegisterCallbackGauge(
      "longtail_engine_queued_requests",
      "Requests currently waiting across all model queues.", {},
      [this] {
        return static_cast<double>(queued_.load(std::memory_order_relaxed));
      },
      this);
  // Histograms are registry-owned; the engine only observes into them. The
  // bounds are powers of two so the batch-size series tells the same story
  // as EngineStats::batch_size_pow2 (whose [2^i, 2^(i+1)) buckets remain
  // the source of truth for the bench JSON).
  batch_size_hist_ = metrics_->RegisterHistogram(
      "longtail_engine_batch_size", "Executed batch sizes.",
      ExponentialBuckets(1.0, 2.0, 11));
  std::vector<double> wait_bounds{0.0};
  for (double b : ExponentialBuckets(1.0, 2.0, 12)) wait_bounds.push_back(b);
  queue_wait_hist_ = metrics_->RegisterHistogram(
      "longtail_engine_queue_wait_ticks",
      "Per-request queue wait at dispatch, in ticks.",
      std::move(wait_bounds));
  // The same waits on steady_clock: with a work-conserving dispatcher
  // nearly every wait is 0 ticks, so only sub-millisecond buckets show
  // where queueing time goes (10 us .. ~1.3 s).
  queue_wait_seconds_hist_ = metrics_->RegisterHistogram(
      "longtail_engine_queue_wait_seconds",
      "Per-request queue wait at dispatch, in seconds of steady_clock.",
      ExponentialBuckets(1e-5, 2.0, 18));
  // Sweep sharing: queries served per sweep (1, 2, 4, ..., 32), observed
  // after QueryBatch groups a micro-batch by user (and, in whole-graph
  // mode, distinct users into lane groups), so /metrics shows how often
  // requests ride one sweep.
  fused_width_hist_ = metrics_->RegisterHistogram(
      "longtail_engine_fused_width", "Queries served per sweep.",
      ExponentialBuckets(1.0, 2.0, 6));
  fused_width_observer_fn_ = [this](int32_t width) {
    fused_width_hist_->Observe(static_cast<double>(width));
  };
}

void ServingEngine::RegisterEntryMetrics(ModelEntry* entry) {
  metrics_->RegisterCallbackGauge(
      "longtail_engine_queue_depth",
      "Requests currently queued for one model.",
      {{"model", entry->name}},
      [entry] { return static_cast<double>(entry->queue.depth()); }, this);
  metrics_->RegisterCallbackGauge(
      "longtail_engine_queue_depth_peak",
      "High-water mark of one model's queue depth.",
      {{"model", entry->name}},
      [entry] { return static_cast<double>(entry->queue.peak_depth()); },
      this);
}

Status ServingEngine::AddModel(const Recommender* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot register a null model");
  }
  return AddEntry(model->name(), model, nullptr);
}

Status ServingEngine::AddModel(std::string name, const Recommender* model) {
  return AddEntry(std::move(name), model, nullptr);
}

Status ServingEngine::AddOwnedModel(std::unique_ptr<Recommender> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot register a null model");
  }
  const Recommender* raw = model.get();
  return AddEntry(raw->name(), raw, std::move(model));
}

Status ServingEngine::AddCheckpoint(const std::string& path,
                                    const Dataset& data) {
  LT_ASSIGN_OR_RETURN(std::unique_ptr<Recommender> model,
                      LoadModelCheckpoint(path, data));
  return AddOwnedModel(std::move(model));
}

bool ServingEngine::HasModel(const std::string& name) const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return models_.count(name) > 0;
}

std::vector<std::string> ServingEngine::ModelNames() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(models_mu_);
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

std::vector<ServingEngine::ModelEntry*> ServingEngine::SnapshotEntries()
    const {
  std::vector<ModelEntry*> entries;
  std::lock_guard<std::mutex> lock(models_mu_);
  entries.reserve(models_.size());
  for (const auto& [name, entry] : models_) entries.push_back(entry.get());
  return entries;
}

ServingEngine::ModelEntry* ServingEngine::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(models_mu_);
  auto it = models_.find(name);
  return it != models_.end() ? it->second.get() : nullptr;
}

// ---------------------------------------------------------------- serving

std::future<UserQueryResult> ServingEngine::RejectedFuture(Status status) {
  std::promise<UserQueryResult> promise;
  std::future<UserQueryResult> future = promise.get_future();
  UserQueryResult rejected;
  rejected.status = std::move(status);
  promise.set_value(std::move(rejected));
  return future;
}

std::future<UserQueryResult> ServingEngine::Submit(
    const std::string& model, const ServeRequest& request) {
  // Outcome counters are incremented with release ordering *after* this
  // submitted_ increment; Stats() acquire-loads outcomes first and
  // submitted last, so every snapshot shows a submission for each outcome
  // (see EngineStats).
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (shutdown_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_release);
    return RejectedFuture(
        Status::FailedPrecondition("ServingEngine is shutting down"));
  }
  ModelEntry* entry = FindEntry(model);
  if (entry == nullptr) {
    rejected_unknown_model_.fetch_add(1, std::memory_order_release);
    return RejectedFuture(
        Status::NotFound("no model '" + model + "' is registered"));
  }
  const uint64_t now = clock_->NowTicks();
  if (request.deadline_tick != 0 && now > request.deadline_tick) {
    rejected_expired_.fetch_add(1, std::memory_order_release);
    return RejectedFuture(Status::DeadlineExceeded(
        "request deadline (tick " + std::to_string(request.deadline_tick) +
        ") passed before submit (tick " + std::to_string(now) + ")"));
  }
  // Counted *before* the enqueue so a concurrent Pump that takes the
  // request immediately can never decrement past zero; rejected admissions
  // undo the increment below.
  queued_.fetch_add(1, std::memory_order_relaxed);
  std::future<UserQueryResult> future;
  const Status admitted = entry->queue.Enqueue(request, now, &future);
  if (!admitted.ok()) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    if (admitted.code() == StatusCode::kResourceExhausted) {
      rejected_queue_full_.fetch_add(1, std::memory_order_release);
    } else {
      rejected_shutdown_.fetch_add(1, std::memory_order_release);
    }
    return RejectedFuture(admitted);
  }
  {
    // Pairs with the dispatcher's predicate check (see ~ServingEngine):
    // the increment must not slip between its check and its sleep.
    std::lock_guard<std::mutex> lock(dispatch_mu_);
  }
  dispatch_cv_.notify_one();
  return future;
}

UserQueryResult ServingEngine::Query(const std::string& model,
                                     const ServeRequest& request) {
  std::vector<UserQueryResult> results =
      QueryAll(model, std::span<const ServeRequest>(&request, 1));
  return std::move(results.front());
}

std::vector<UserQueryResult> ServingEngine::QueryAll(
    const std::string& model, std::span<const ServeRequest> requests) {
  std::vector<UserQueryResult> results(requests.size());
  // Futures still waiting on dispatch, in submit order (index, future).
  std::deque<std::pair<size_t, std::future<UserQueryResult>>> inflight;
  const auto settle_front = [&] {
    auto& [idx, future] = inflight.front();
    results[idx] = future.get();
    inflight.pop_front();
  };
  for (size_t i = 0; i < requests.size(); ++i) {
    uint64_t retries = 0;
    for (;;) {
      std::future<UserQueryResult> future = Submit(model, requests[i]);
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        // Either rejected at submit or already served by a racing
        // dispatcher flush; only queue-full rejections are retryable.
        UserQueryResult ready = future.get();
        if (ready.status.code() != StatusCode::kResourceExhausted) {
          results[i] = std::move(ready);
          break;
        }
        // Backpressure: make room (serve what is queued, settle our
        // oldest) and retry instead of surfacing the rejection — but only
        // within the retry budget. When foreign traffic holds the queue
        // full, unbounded retries are a hot spin that serves nobody;
        // past the budget the caller gets the ResourceExhausted and can
        // shed load itself.
        backpressure_retries_.fetch_add(1, std::memory_order_relaxed);
        ++retries;
        if (options_.query_retry_budget > 0 &&
            retries >= options_.query_retry_budget) {
          results[i] = std::move(ready);
          break;
        }
        if (!dispatcher_running()) Pump();
        if (!inflight.empty()) {
          settle_front();
        } else if (dispatcher_running()) {
          // Foreign traffic holds the queue: pause a tick instead of
          // spinning on Submit.
          BackoffOneTick();
        }
        continue;
      }
      inflight.emplace_back(i, std::move(future));
      break;
    }
  }
  if (!dispatcher_running()) PumpUntilIdle();
  while (!inflight.empty()) settle_front();
  return results;
}

void ServingEngine::BackoffOneTick() {
  // Yield until the engine clock advances. The iteration bound keeps a
  // frozen FakeClock from turning the backoff itself into a spin — with
  // the default 1 tick = 1 ms clock the bound is never the exit path.
  const uint64_t start = clock_->NowTicks();
  for (int spin = 0; spin < 1024 && clock_->NowTicks() == start; ++spin) {
    std::this_thread::yield();
  }
}

size_t ServingEngine::Pump() {
  size_t taken = 0;
  for (ModelEntry* entry : SnapshotEntries()) {
    taken += PumpEntry(entry);
  }
  return taken;
}

size_t ServingEngine::PumpUntilIdle() {
  size_t taken = 0;
  while (true) {
    const size_t round = Pump();
    if (round == 0) break;
    taken += round;
  }
  return taken;
}

size_t ServingEngine::PumpEntry(ModelEntry* entry) {
  size_t taken = 0;
  while (true) {
    std::vector<PendingRequest> batch =
        entry->queue.TakeBatch(options_.max_batch_size);
    if (batch.empty()) break;
    queued_.fetch_sub(batch.size(), std::memory_order_relaxed);
    taken += batch.size();
    ExecuteBatch(entry, std::move(batch));
  }
  return taken;
}

void ServingEngine::RecordBatchSize(size_t size) {
  const size_t bucket = std::min<size_t>(
      kBatchBuckets - 1, static_cast<size_t>(std::bit_width(size) - 1));
  batch_size_pow2_[bucket].fetch_add(1, std::memory_order_relaxed);
  batch_size_hist_->Observe(static_cast<double>(size));
}

void ServingEngine::ExecuteBatch(ModelEntry* entry,
                                 std::vector<PendingRequest> batch) {
  const uint64_t now = clock_->NowTicks();
  const auto now_time = std::chrono::steady_clock::now();
  std::vector<UserQuery> queries;
  std::vector<size_t> live;  // indexes into `batch`, aligned with queries
  queries.reserve(batch.size());
  live.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& p = batch[i];
    if (p.request.deadline_tick != 0 && now > p.request.deadline_tick) {
      // Expired while queued: fail without spending walk workers on it.
      expired_in_queue_.fetch_add(1, std::memory_order_release);
      UserQueryResult expired;
      expired.status = Status::DeadlineExceeded(
          "request deadline (tick " +
          std::to_string(p.request.deadline_tick) +
          ") passed in queue (dispatch tick " + std::to_string(now) + ")");
      p.promise.set_value(std::move(expired));
      continue;
    }
    const uint64_t waited = now - p.enqueue_tick;
    queue_ticks_sum_.fetch_add(waited, std::memory_order_relaxed);
    // Lost-update-free max: concurrent Pump/dispatcher batches race their
    // `waited` values here (the shared primitive is the audited CAS loop;
    // a plain load-compare-store would under-report under contention —
    // see metrics_registry_test's hammer).
    AtomicFetchMax(queue_ticks_max_, waited);
    queue_wait_hist_->Observe(static_cast<double>(waited));
    queue_wait_seconds_hist_->Observe(
        std::chrono::duration<double>(now_time - p.enqueue_time).count());
    UserQuery q;
    q.user = p.request.user;
    q.top_k = p.request.top_k;
    q.score_items = p.request.score_items;
    queries.push_back(q);
    live.push_back(i);
  }
  dispatched_.fetch_add(queries.size(), std::memory_order_release);
  if (queries.empty()) return;
  batches_executed_.fetch_add(1, std::memory_order_relaxed);
  RecordBatchSize(queries.size());
  BatchOptions batch_options;
  batch_options.num_threads = options_.batch_threads;
  batch_options.pool = options_.pool;
  batch_options.subgraph_cache = options_.subgraph_cache;
  // Same-model batches arrive here intact (queues are per model), so
  // QueryBatch's per-user grouping sees every duplicate; the observer
  // records how many queries each walk served.
  batch_options.fused_width_observer = &fused_width_observer_fn_;
  std::vector<UserQueryResult> batch_results =
      entry->model->QueryBatch(queries, batch_options);
  // Count before fulfilling: a blocking caller woken by set_value must
  // already see its query in Stats().completed. Release: pairs with the
  // acquire load in Stats() (completed is loaded first, so a snapshot
  // showing this completion also shows its dispatch and submission).
  completed_.fetch_add(batch_results.size(), std::memory_order_release);
  for (size_t j = 0; j < batch_results.size(); ++j) {
    batch[live[j]].promise.set_value(std::move(batch_results[j]));
  }
}

void ServingEngine::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(dispatch_mu_);
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (queued_.load(std::memory_order_relaxed) == 0) {
      // Idle: block until a submit (or shutdown) wakes us.
      dispatch_cv_.wait(lock, [this] {
        return shutdown_.load(std::memory_order_acquire) ||
               queued_.load(std::memory_order_relaxed) > 0;
      });
      continue;
    }
    // Work-conserving: take whatever is queued. Requests that arrive
    // while a batch runs form the next batch.
    lock.unlock();
    if (Pump() == 0) {
      // queued_ counts a request just before Submit enqueues it; let that
      // Submit finish instead of spinning on its lock.
      std::this_thread::yield();
    }
    lock.lock();
  }
}

EngineStats ServingEngine::Stats() const {
  // Load order is the fix for the over-counted-outcome snapshot (see the
  // EngineStats comment): acquire-load every *outcome* first — completed
  // before dispatched, so completed <= dispatched — and submitted_ LAST.
  // Each outcome was release-incremented after its submission, so the
  // acquire loads here guarantee the later submitted_ read covers every
  // outcome already counted; loading submitted first (the old code) let a
  // snapshot catch an outcome whose submission it had not seen, making
  // completed + rejected > submitted and RejectionRate > 100%.
  EngineStats stats;
  stats.completed = completed_.load(std::memory_order_acquire);
  // Test-only interleaving point: lets a regression test run traffic between
  // the first load and the rest of the snapshot. With submitted_ loaded
  // last, anything that lands here only widens the submitted_ read.
  if (stats_snapshot_hook_for_test_) stats_snapshot_hook_for_test_();
  stats.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_acquire);
  stats.rejected_expired = rejected_expired_.load(std::memory_order_acquire);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_acquire);
  stats.rejected_unknown_model =
      rejected_unknown_model_.load(std::memory_order_acquire);
  stats.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_acquire);
  stats.dispatched = dispatched_.load(std::memory_order_acquire);
  stats.batches_executed = batches_executed_.load(std::memory_order_relaxed);
  stats.queue_ticks_sum = queue_ticks_sum_.load(std::memory_order_relaxed);
  stats.queue_ticks_max = queue_ticks_max_.load(std::memory_order_relaxed);
  stats.backpressure_retries =
      backpressure_retries_.load(std::memory_order_relaxed);
  stats.batch_size_pow2.resize(kBatchBuckets);
  for (size_t i = 0; i < kBatchBuckets; ++i) {
    stats.batch_size_pow2[i] =
        batch_size_pow2_[i].load(std::memory_order_relaxed);
  }
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace longtail
