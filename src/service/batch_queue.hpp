#pragma once
// Adaptive request-coalescing queue for DoseService.
//
// BatchQueue groups submitted requests by plan and decides when a plan's
// pending run should be launched as one DoseEngine::compute_batch.  By
// default it is work-conserving: a plan that is not busy launches its head
// as soon as a consumer asks, so a batch forms only from requests that
// queued while the plan's previous launch ran or while every consumer was
// busy.  An opt-in hold (flush_age_ticks > 0) instead keeps a partial batch
// until its head has waited that long, the plan is full (batch_cap), or the
// caller drains.  Per plan the order is strict FIFO — a batch is always a
// prefix of the plan's submission order, and compute_batch preserves
// per-column bits — so batching can never reorder or alter any request's
// dose (docs/service.md).
//
// The queue is deliberately *passive and deterministic*: no threads, no
// clocks — time is an opaque monotone tick supplied by the caller, and all
// methods are called under the service lock.  That makes the scheduling
// logic exhaustively testable single-threaded (tests/test_batch_queue.cpp
// drives seeded random interleavings of submit / flush / deadline ticks and
// checks the FIFO, cap, and bound invariants).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pd::service {

struct BatchQueueConfig {
  std::size_t batch_cap = 8;    ///< Max requests coalesced into one launch.
  std::size_t queue_bound = 256;  ///< Max queued requests (backpressure).
  /// Opt-in hold: a partial batch waits until its head is this old.
  /// 0 = work-conserving (a non-busy plan's head launches at once).
  std::uint64_t flush_age_ticks = 0;
};

/// A bulk-priority head that has waited this many ticks (8 ms in
/// DoseService's µs ticks) counts as interactive in pop_ready's plan
/// selection, so sustained interactive traffic delays the optimizer fleet by
/// a bounded amount instead of starving it.  Independent of the hold.
constexpr std::uint64_t kBulkEscalationTicks = 8000;

/// One queued request.  `deadline_tick` == 0 means no deadline.
/// `exec_key` tags the execution configuration the request asked for
/// (DoseService encodes the accuracy tier/format in it); a launched batch is
/// always uniform in exec_key so the engine can be configured once per
/// launch, under the plan's busy mark.  `priority` orders plan selection in
/// pop_ready (0 = interactive, higher = later); within a plan FIFO order is
/// never reordered by priority — per-plan bits and ordering stay fixed.
struct QueuedRequest {
  std::uint64_t id = 0;
  std::string plan;
  std::uint64_t enqueue_tick = 0;
  std::uint64_t deadline_tick = 0;
  std::uint32_t exec_key = 0;
  std::uint8_t priority = 0;
};

class BatchQueue {
 public:
  explicit BatchQueue(const BatchQueueConfig& config);

  const BatchQueueConfig& config() const { return config_; }

  /// Requests queued right now (across all plans).
  std::size_t depth() const { return depth_; }

  /// Enqueue; returns false when the queue bound is reached (the caller
  /// rejects the request — the queue never grows past queue_bound).
  bool submit(QueuedRequest request);

  /// Pop the next launchable batch and mark its plan busy.  A plan is
  /// launchable when it is not busy (one in-flight batch per plan keeps its
  /// engine single-writer and its ordering FIFO) and (pending >= batch_cap,
  /// or its head aged >= flush_age_ticks — always true at the default 0 —
  /// or `drain`).  Among launchable plans the winner is the lowest
  /// (effective head priority, head enqueue tick) pair: interactive heads
  /// beat bulk heads, oldest head breaks ties, and a bulk head that waited
  /// kBulkEscalationTicks counts as interactive so it cannot starve (see
  /// QueuedRequest::priority).
  /// The batch is the longest prefix of the plan's FIFO sharing the head's
  /// exec_key (capped at batch_cap), so mixed-tier traffic splits into
  /// uniform launches without ever reordering a plan's requests.
  /// Empty result = nothing launchable at `now`.
  std::vector<QueuedRequest> pop_ready(std::uint64_t now, bool drain);

  /// Clear a plan's busy mark once its in-flight batch completed.
  void mark_idle(const std::string& plan);

  /// Remove and return every queued request whose deadline has passed.
  /// Busy plans are included: their *queued* requests (not the in-flight
  /// batch) can still expire.
  std::vector<QueuedRequest> expire(std::uint64_t now);

  /// Remove a queued request by id.  False when unknown — already popped
  /// into a batch (too late to cancel), expired, or never queued.
  bool cancel(std::uint64_t id);

  /// Earliest tick at which anything becomes actionable (a head reaches
  /// flush age — its enqueue tick at the default hold of 0 — or a deadline
  /// passes); nullopt when nothing is pending.
  /// A full non-busy plan is actionable *now*; it reports its head's
  /// enqueue tick (always <= now), NOT a literal 0.  Single-queue consumers
  /// only compare the result against now, so the two are equivalent there —
  /// but multi-queue consumers (one BatchQueue per shard) compare tick
  /// values *across* queues to pick the next shard to serve, and a constant
  /// 0 made every full queue look infinitely old, starving shards whose
  /// heads were genuinely older.  Reporting the real head tick keeps
  /// cross-queue comparisons oldest-head-fair.
  std::optional<std::uint64_t> next_event_tick() const;

  /// Oldest head enqueue tick among plans launchable at `now` (same launch
  /// condition as pop_ready, priority-blind); nullopt when nothing is
  /// launchable.  This is the cross-queue fairness key: a multi-shard
  /// consumer that always serves the queue with the smallest value gets
  /// global oldest-head order, not just per-queue order.
  std::optional<std::uint64_t> oldest_ready_head_tick(std::uint64_t now,
                                                      bool drain) const;

 private:
  struct PlanQueue {
    std::deque<QueuedRequest> pending;
    bool busy = false;
  };

  /// Plan-selection priority of a head at `now` (bulk escalates to
  /// interactive once it has waited kBulkEscalationTicks).
  std::uint8_t effective_priority(const QueuedRequest& head,
                                  std::uint64_t now) const;

  BatchQueueConfig config_;
  std::map<std::string, PlanQueue> plans_;
  std::size_t depth_ = 0;
};

}  // namespace pd::service
