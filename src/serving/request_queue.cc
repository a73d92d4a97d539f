#include "serving/request_queue.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"

namespace longtail {

RequestQueue::RequestQueue(size_t max_depth)
    : max_depth_(std::max<size_t>(1, max_depth)) {}

Status RequestQueue::Enqueue(const ServeRequest& request, uint64_t now_tick,
                             std::future<UserQueryResult>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::FailedPrecondition(
        "request queue is closed (engine shutting down)");
  }
  if (pending_.size() >= max_depth_) {
    return Status::ResourceExhausted(
        "request queue is full (" + std::to_string(max_depth_) +
        " requests waiting); shed load or raise max_queue_depth");
  }
  PendingRequest pending;
  pending.request = request;
  pending.enqueue_tick = now_tick;
  pending.enqueue_time = std::chrono::steady_clock::now();
  *out = pending.promise.get_future();
  pending_.push_back(std::move(pending));
  AtomicFetchMax(peak_depth_, pending_.size());
  return Status::OK();
}

std::vector<PendingRequest> RequestQueue::TakeBatch(size_t max_batch) {
  max_batch = std::max<size_t>(1, max_batch);
  std::vector<PendingRequest> batch;
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(pending_.size(), max_batch);
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  return batch;
}

std::vector<PendingRequest> RequestQueue::CloseAndDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  std::vector<PendingRequest> drained;
  drained.reserve(pending_.size());
  while (!pending_.empty()) {
    drained.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  return drained;
}

size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace longtail
