#include "service/batch_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pd::service {

BatchQueue::BatchQueue(const BatchQueueConfig& config) : config_(config) {
  PD_CHECK_MSG(config_.batch_cap > 0, "BatchQueue: batch_cap must be >= 1");
  PD_CHECK_MSG(config_.queue_bound > 0, "BatchQueue: queue_bound must be >= 1");
}

bool BatchQueue::submit(QueuedRequest request) {
  if (depth_ >= config_.queue_bound) {
    return false;
  }
  plans_[request.plan].pending.push_back(std::move(request));
  ++depth_;
  return true;
}

std::uint8_t BatchQueue::effective_priority(const QueuedRequest& head,
                                            std::uint64_t now) const {
  if (head.priority == 0) {
    return 0;
  }
  // A bulk head that has waited kBulkEscalationTicks is promoted to
  // interactive for selection, bounding how long interactive pressure can
  // defer the optimizer fleet.
  return now >= head.enqueue_tick + kBulkEscalationTicks ? std::uint8_t{0}
                                                         : head.priority;
}

std::vector<QueuedRequest> BatchQueue::pop_ready(std::uint64_t now,
                                                 bool drain) {
  // Among launchable plans pick the lowest (effective priority, head
  // enqueue tick): interactive beats bulk, then the head that waited
  // longest, so a busy service stays fair across plans instead of
  // ping-ponging on one.
  auto best = plans_.end();
  std::pair<std::uint8_t, std::uint64_t> best_key{0, 0};
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    PlanQueue& pq = it->second;
    if (pq.busy || pq.pending.empty()) {
      continue;
    }
    const QueuedRequest& head = pq.pending.front();
    const bool full = pq.pending.size() >= config_.batch_cap;
    const bool aged = now >= head.enqueue_tick + config_.flush_age_ticks;
    if (!full && !aged && !drain) {
      continue;
    }
    const std::pair<std::uint8_t, std::uint64_t> key{
        effective_priority(head, now), head.enqueue_tick};
    if (best == plans_.end() || key < best_key) {
      best = it;
      best_key = key;
    }
  }
  std::vector<QueuedRequest> batch;
  if (best == plans_.end()) {
    return batch;
  }
  PlanQueue& pq = best->second;
  std::size_t width = std::min(config_.batch_cap, pq.pending.size());
  // Never mix execution configurations in one launch: shrink to the FIFO
  // prefix sharing the head's exec_key.  The suffix stays queued and
  // launches (in order) once this batch's mark_idle frees the plan.
  const std::uint32_t key = pq.pending.front().exec_key;
  std::size_t uniform = 1;
  while (uniform < width && pq.pending[uniform].exec_key == key) {
    ++uniform;
  }
  width = uniform;
  batch.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    batch.push_back(std::move(pq.pending.front()));
    pq.pending.pop_front();
  }
  depth_ -= width;
  pq.busy = true;
  return batch;
}

void BatchQueue::mark_idle(const std::string& plan) {
  const auto it = plans_.find(plan);
  if (it == plans_.end()) {
    return;
  }
  it->second.busy = false;
  if (it->second.pending.empty()) {
    plans_.erase(it);
  }
}

std::vector<QueuedRequest> BatchQueue::expire(std::uint64_t now) {
  std::vector<QueuedRequest> dead;
  for (auto it = plans_.begin(); it != plans_.end();) {
    std::deque<QueuedRequest>& pending = it->second.pending;
    for (auto req = pending.begin(); req != pending.end();) {
      if (req->deadline_tick != 0 && req->deadline_tick <= now) {
        dead.push_back(std::move(*req));
        req = pending.erase(req);
        --depth_;
      } else {
        ++req;
      }
    }
    if (pending.empty() && !it->second.busy) {
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
  return dead;
}

bool BatchQueue::cancel(std::uint64_t id) {
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    std::deque<QueuedRequest>& pending = it->second.pending;
    for (auto req = pending.begin(); req != pending.end(); ++req) {
      if (req->id == id) {
        pending.erase(req);
        --depth_;
        if (pending.empty() && !it->second.busy) {
          plans_.erase(it);
        }
        return true;
      }
    }
  }
  return false;
}

std::optional<std::uint64_t> BatchQueue::next_event_tick() const {
  std::optional<std::uint64_t> next;
  const auto consider = [&next](std::uint64_t tick) {
    if (!next || tick < *next) {
      next = tick;
    }
  };
  for (const auto& [plan, pq] : plans_) {
    (void)plan;
    if (pq.pending.empty()) {
      continue;
    }
    if (!pq.busy) {
      // Full batches are launchable immediately; their reported tick is the
      // head's enqueue tick (<= now), not 0, so consumers comparing ticks
      // across several queues rank full queues by how long their heads
      // actually waited (see the header note on multi-queue fairness).
      // Otherwise the head's flush age is the next scheduling event.
      if (pq.pending.size() >= config_.batch_cap) {
        consider(pq.pending.front().enqueue_tick);
      } else {
        consider(pq.pending.front().enqueue_tick + config_.flush_age_ticks);
      }
    }
    for (const QueuedRequest& req : pq.pending) {
      if (req.deadline_tick != 0) {
        consider(req.deadline_tick);
      }
    }
  }
  return next;
}

std::optional<std::uint64_t> BatchQueue::oldest_ready_head_tick(
    std::uint64_t now, bool drain) const {
  std::optional<std::uint64_t> oldest;
  for (const auto& [plan, pq] : plans_) {
    (void)plan;
    if (pq.busy || pq.pending.empty()) {
      continue;
    }
    const QueuedRequest& head = pq.pending.front();
    const bool full = pq.pending.size() >= config_.batch_cap;
    const bool aged = now >= head.enqueue_tick + config_.flush_age_ticks;
    if (!full && !aged && !drain) {
      continue;
    }
    if (!oldest || head.enqueue_tick < *oldest) {
      oldest = head.enqueue_tick;
    }
  }
  return oldest;
}

}  // namespace pd::service
