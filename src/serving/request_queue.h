// Admission-controlled request queue + the tick clock the engine stamps
// deadlines against: the waiting room of the ServingEngine
// (serving/serving_engine.h).
//
// One RequestQueue holds the pending requests of one registered model.
// Admission is bounded — Enqueue fails fast with a typed
// Status::ResourceExhausted once `max_depth` requests wait, instead of
// queueing unboundedly — and batch formation is explicit: TakeBatch hands
// back the oldest `max_batch` requests (or everything, when fewer wait),
// leaving the rest queued. The queue never holds a request back to let a
// batch fill: a free dispatcher takes what is there.
//
// Time is abstract "ticks" read from an EngineClock so deadline handling
// is testable deterministically: production uses SteadyTickClock
// (1 tick = 1 ms of steady_clock); tests inject a FakeClock and advance it
// by hand (no sleeps, no flaky timing). Deadlines and the tick queue-wait
// stats are in ticks of whichever clock the engine was given; Enqueue also
// stamps steady_clock so the engine can report sub-tick queue waits.
#ifndef LONGTAIL_SERVING_REQUEST_QUEUE_H_
#define LONGTAIL_SERVING_REQUEST_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <span>
#include <vector>

#include "core/recommender.h"

namespace longtail {

/// Monotonic tick source for the serving engine. Implementations must be
/// thread-safe; ticks never decrease.
class EngineClock {
 public:
  virtual ~EngineClock() = default;
  virtual uint64_t NowTicks() = 0;
};

/// Production clock: 1 tick = 1 millisecond of std::chrono::steady_clock,
/// counted from construction.
class SteadyTickClock : public EngineClock {
 public:
  SteadyTickClock() : start_(std::chrono::steady_clock::now()) {}
  uint64_t NowTicks() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  const std::chrono::steady_clock::time_point start_;
};

/// Test clock: time moves only when the test says so.
class FakeClock : public EngineClock {
 public:
  explicit FakeClock(uint64_t start = 0) : ticks_(start) {}
  uint64_t NowTicks() override {
    return ticks_.load(std::memory_order_acquire);
  }
  void Advance(uint64_t ticks) {
    ticks_.fetch_add(ticks, std::memory_order_acq_rel);
  }
  void Set(uint64_t ticks) { ticks_.store(ticks, std::memory_order_release); }

 private:
  std::atomic<uint64_t> ticks_;
};

/// One caller request against a registered model: top-k recommendations,
/// scores for an explicit candidate list, or both (the same two halves as
/// UserQuery, served from one walk by the graph recommenders).
struct ServeRequest {
  UserId user = 0;
  /// > 0 → fill UserQueryResult::top_k with up to this many items.
  int top_k = 0;
  /// Non-empty → fill UserQueryResult::scores, aligned with this span. The
  /// referenced storage must stay alive until the request's future
  /// resolves.
  std::span<const ItemId> score_items;
  /// Last tick (engine clock) at which the request may still be
  /// dispatched; 0 = no deadline. A request past its deadline fails with
  /// Status::DeadlineExceeded — at submit if already expired, at dispatch
  /// if it expired while queued — and never runs.
  uint64_t deadline_tick = 0;
};

/// A queued request: the caller holds the future, the queue holds the
/// promise until dispatch (or rejection at shutdown).
struct PendingRequest {
  ServeRequest request;
  uint64_t enqueue_tick = 0;
  /// steady_clock at admission, for the sub-tick queue-wait histogram.
  std::chrono::steady_clock::time_point enqueue_time;
  std::promise<UserQueryResult> promise;
};

/// Bounded MPMC waiting room for one model. Thread-safe; all policy
/// parameters are supplied per call by the engine so a queue stores
/// nothing but requests.
class RequestQueue {
 public:
  explicit RequestQueue(size_t max_depth);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Admits `request`, recording `now_tick` and steady_clock for latency
  /// accounting, and hands the matching future to `*out`. Fails fast with
  /// ResourceExhausted when `max_depth` requests already wait and with
  /// FailedPrecondition after Close() — in both cases nothing is queued
  /// and `*out` is untouched.
  Status Enqueue(const ServeRequest& request, uint64_t now_tick,
                 std::future<UserQueryResult>* out);

  /// Takes the oldest min(depth, max_batch) requests; empty when nothing
  /// is queued.
  std::vector<PendingRequest> TakeBatch(size_t max_batch);

  /// Rejects all future Enqueues (shutdown) and returns everything still
  /// queued so the caller can fail the promises.
  std::vector<PendingRequest> CloseAndDrain();

  size_t depth() const;

  /// High-water mark of depth() since construction (atomic fetch-max; never
  /// resets). The metrics plane exports it per model next to the live depth
  /// gauge, so a scrape after a burst still shows how deep the queue got.
  size_t peak_depth() const {
    return static_cast<size_t>(peak_depth_.load(std::memory_order_relaxed));
  }

 private:
  const size_t max_depth_;
  mutable std::mutex mu_;
  std::deque<PendingRequest> pending_;
  std::atomic<uint64_t> peak_depth_{0};
  bool closed_ = false;
};

}  // namespace longtail

#endif  // LONGTAIL_SERVING_REQUEST_QUEUE_H_
