// BatchQueue property test (ServiceBatchQueueProperty).
//
// BatchQueue is passive and deterministic — no threads, no clocks — so its
// scheduling logic can be tested exhaustively single-threaded.  A seeded
// pd::Rng drives random interleavings of submit / tick advance / pop_ready /
// mark_idle / expire / cancel against a shadow model, checking the queue's
// core invariants after every step:
//
//  * per-plan FIFO: the concatenation of popped batches for a plan equals
//    that plan's submission order minus cancelled/expired requests;
//  * a popped batch never exceeds batch_cap, is single-plan, and is only
//    produced when the plan is full, its head aged past flush_age_ticks
//    (always, at the work-conserving hold of 0), or the caller drains;
//  * depth() never exceeds queue_bound, and submit() returns false exactly
//    at the bound;
//  * at most one in-flight batch per plan (pop_ready never returns a busy
//    plan until mark_idle);
//  * expire() removes exactly the queued requests whose deadline has passed.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/batch_queue.hpp"

namespace pd::service {
namespace {

struct ShadowRequest {
  std::uint64_t id;
  std::uint64_t deadline_tick;
};

class ServiceBatchQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceBatchQueueProperty, RandomInterleavingsKeepInvariants) {
  Rng rng(GetParam());
  BatchQueueConfig config;
  config.batch_cap = 1 + rng.uniform_index(8);
  config.queue_bound = 4 + rng.uniform_index(28);
  config.flush_age_ticks = rng.uniform_index(51);  // 0 = work-conserving
  BatchQueue queue(config);

  const std::vector<std::string> plans = {"liver", "prostate", "hn"};
  std::map<std::string, std::deque<ShadowRequest>> shadow;
  std::map<std::string, bool> shadow_busy;
  std::set<std::uint64_t> live_ids;
  std::uint64_t now = 0;
  std::uint64_t next_id = 1;
  std::size_t shadow_depth = 0;

  const auto check_depth = [&] {
    ASSERT_EQ(queue.depth(), shadow_depth);
    ASSERT_LE(queue.depth(), config.queue_bound);
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.uniform_index(100);
    if (op < 45) {
      // submit
      const std::string& plan = plans[rng.uniform_index(plans.size())];
      QueuedRequest request;
      request.id = next_id;
      request.plan = plan;
      request.enqueue_tick = now;
      request.deadline_tick =
          rng.uniform_index(4) == 0 ? now + 1 + rng.uniform_index(80) : 0;
      const bool accepted = queue.submit(request);
      ASSERT_EQ(accepted, shadow_depth < config.queue_bound)
          << "submit must accept exactly below the bound";
      if (accepted) {
        shadow[plan].push_back(ShadowRequest{next_id, request.deadline_tick});
        live_ids.insert(next_id);
        ++shadow_depth;
      }
      ++next_id;
    } else if (op < 60) {
      // advance time
      now += 1 + rng.uniform_index(30);
    } else if (op < 80) {
      // pop_ready
      const bool drain = rng.uniform_index(5) == 0;
      std::vector<QueuedRequest> batch = queue.pop_ready(now, drain);
      if (!batch.empty()) {
        ASSERT_LE(batch.size(), config.batch_cap);
        const std::string& plan = batch.front().plan;
        ASSERT_FALSE(shadow_busy[plan]) << "popped a busy plan";
        std::deque<ShadowRequest>& pending = shadow[plan];
        ASSERT_GE(pending.size(), batch.size());
        const bool full = pending.size() >= config.batch_cap;
        const bool aged =
            now >= batch.front().enqueue_tick + config.flush_age_ticks;
        ASSERT_TRUE(full || aged || drain)
            << "popped a batch with no launch condition";
        for (const QueuedRequest& request : batch) {
          ASSERT_EQ(request.plan, plan) << "batch mixes plans";
          ASSERT_EQ(request.id, pending.front().id)
              << "batch is not a FIFO prefix of the plan's submissions";
          pending.pop_front();
          live_ids.erase(request.id);
          --shadow_depth;
        }
        shadow_busy[plan] = true;
      }
    } else if (op < 88) {
      // mark_idle (sometimes on a plan that is not busy — must be harmless)
      const std::string& plan = plans[rng.uniform_index(plans.size())];
      queue.mark_idle(plan);
      shadow_busy[plan] = false;
    } else if (op < 95) {
      // expire
      std::vector<QueuedRequest> dead = queue.expire(now);
      std::set<std::uint64_t> dead_ids;
      for (const QueuedRequest& request : dead) {
        ASSERT_NE(request.deadline_tick, 0u);
        ASSERT_LE(request.deadline_tick, now);
        dead_ids.insert(request.id);
      }
      for (auto& [plan, pending] : shadow) {
        for (auto it = pending.begin(); it != pending.end();) {
          const bool should_die =
              it->deadline_tick != 0 && it->deadline_tick <= now;
          ASSERT_EQ(should_die, dead_ids.count(it->id) != 0)
              << "expire() and the model disagree on id " << it->id;
          if (should_die) {
            live_ids.erase(it->id);
            it = pending.erase(it);
            --shadow_depth;
          } else {
            ++it;
          }
        }
      }
    } else {
      // cancel: half the time a live id, half the time a bogus one
      std::uint64_t id = next_id + 1000;  // unknown
      if (!live_ids.empty() && rng.uniform_index(2) == 0) {
        auto it = live_ids.begin();
        std::advance(it, rng.uniform_index(live_ids.size()));
        id = *it;
      }
      const bool cancelled = queue.cancel(id);
      ASSERT_EQ(cancelled, live_ids.count(id) != 0);
      if (cancelled) {
        for (auto& [plan, pending] : shadow) {
          for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (it->id == id) {
              pending.erase(it);
              break;
            }
          }
        }
        live_ids.erase(id);
        --shadow_depth;
      }
    }
    check_depth();
  }

  // Drain everything out and confirm total FIFO consistency of what is left.
  for (const std::string& plan : plans) {
    queue.mark_idle(plan);
    shadow_busy[plan] = false;
  }
  while (queue.depth() > 0) {
    std::vector<QueuedRequest> batch = queue.pop_ready(now, /*drain=*/true);
    ASSERT_FALSE(batch.empty()) << "non-empty queue must drain";
    ASSERT_LE(batch.size(), config.batch_cap);
    std::deque<ShadowRequest>& pending = shadow[batch.front().plan];
    for (const QueuedRequest& request : batch) {
      ASSERT_EQ(request.id, pending.front().id);
      pending.pop_front();
      --shadow_depth;
    }
    queue.mark_idle(batch.front().plan);
  }
  for (const auto& [plan, pending] : shadow) {
    EXPECT_TRUE(pending.empty()) << "plan " << plan << " retained requests";
  }
  EXPECT_FALSE(queue.next_event_tick().has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceBatchQueueProperty,
                         ::testing::Values(0x5eedULL, 42ULL, 9001ULL,
                                           0xfeedfaceULL, 7ULL));

// Directed checks for the scheduling edge cases the random walk may not pin
// precisely: flush timing, next_event_tick, and the busy gate.
TEST(ServiceBatchQueueProperty, FlushAgeAndNextEventTick) {
  BatchQueueConfig config;
  config.batch_cap = 4;
  config.queue_bound = 16;
  config.flush_age_ticks = 100;
  BatchQueue queue(config);

  QueuedRequest request;
  request.id = 1;
  request.plan = "liver";
  request.enqueue_tick = 10;
  ASSERT_TRUE(queue.submit(request));

  // Below cap and below flush age: nothing pops, next event is the flush.
  EXPECT_TRUE(queue.pop_ready(/*now=*/50, /*drain=*/false).empty());
  ASSERT_TRUE(queue.next_event_tick().has_value());
  EXPECT_EQ(*queue.next_event_tick(), 110u);

  // At flush age the partial batch launches.
  std::vector<QueuedRequest> batch = queue.pop_ready(/*now=*/110, false);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, 1u);

  // The plan is busy: a full batch queued behind it must not pop...
  for (std::uint64_t id = 2; id <= 5; ++id) {
    request.id = id;
    request.enqueue_tick = 110;
    ASSERT_TRUE(queue.submit(request));
  }
  EXPECT_TRUE(queue.pop_ready(/*now=*/500, /*drain=*/true).empty());
  // ...until mark_idle, at which point it is actionable immediately.  The
  // reported event tick is the head's enqueue tick (already in the past),
  // not a constant 0 — multi-queue consumers compare these ticks across
  // queues to serve the globally oldest head first.
  queue.mark_idle("liver");
  ASSERT_TRUE(queue.next_event_tick().has_value());
  EXPECT_EQ(*queue.next_event_tick(), 110u);
  EXPECT_EQ(queue.pop_ready(/*now=*/500, false).size(), 4u);
  queue.mark_idle("liver");
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(ServiceBatchQueueProperty, OldestHeadWinsAcrossPlans) {
  BatchQueueConfig config;
  config.batch_cap = 2;
  config.queue_bound = 16;
  config.flush_age_ticks = 10;
  BatchQueue queue(config);

  QueuedRequest request;
  request.plan = "b_newer";
  request.id = 1;
  request.enqueue_tick = 5;
  ASSERT_TRUE(queue.submit(request));
  request.plan = "a_older";
  request.id = 2;
  request.enqueue_tick = 1;
  ASSERT_TRUE(queue.submit(request));

  // Both aged; the plan whose head waited longest goes first regardless of
  // map order.
  std::vector<QueuedRequest> first = queue.pop_ready(/*now=*/100, false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().plan, "a_older");
  std::vector<QueuedRequest> second = queue.pop_ready(/*now=*/100, false);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.front().plan, "b_newer");
}

TEST(ServiceBatchQueueProperty, InteractivePlanBeatsOlderBulkPlan) {
  BatchQueueConfig config;
  config.batch_cap = 2;
  config.queue_bound = 16;
  config.flush_age_ticks = 10;
  BatchQueue queue(config);

  QueuedRequest request;
  request.plan = "bulk_older";
  request.id = 1;
  request.enqueue_tick = 1;
  request.priority = 1;
  ASSERT_TRUE(queue.submit(request));
  request.plan = "interactive_newer";
  request.id = 2;
  request.enqueue_tick = 5;
  request.priority = 0;
  ASSERT_TRUE(queue.submit(request));

  // Both aged past the flush deadline; the interactive head launches first
  // even though the bulk head is older...
  std::vector<QueuedRequest> first = queue.pop_ready(/*now=*/20, false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().plan, "interactive_newer");
  // ...and the bulk head follows — delayed, never dropped.
  std::vector<QueuedRequest> second = queue.pop_ready(/*now=*/20, false);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.front().plan, "bulk_older");
}

TEST(ServiceBatchQueueProperty, BulkHeadEscalatesPastStarvationBound) {
  BatchQueueConfig config;
  config.batch_cap = 2;
  config.queue_bound = 16;
  config.flush_age_ticks = 10;
  BatchQueue queue(config);

  QueuedRequest request;
  request.plan = "bulk_ancient";
  request.id = 1;
  request.enqueue_tick = 0;
  request.priority = 1;
  ASSERT_TRUE(queue.submit(request));
  request.plan = "interactive_fresh";
  request.id = 2;
  request.enqueue_tick = 30;
  request.priority = 0;
  ASSERT_TRUE(queue.submit(request));

  // At now = kBulkEscalationTicks + 5 the bulk head has waited past the
  // escalation bound: it counts as interactive, and being older it wins —
  // sustained interactive traffic delays bulk by a bounded amount only.
  const std::uint64_t now = kBulkEscalationTicks + 5;
  std::vector<QueuedRequest> first = queue.pop_ready(now, false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().plan, "bulk_ancient");
}

TEST(ServiceBatchQueueProperty, WorkConservingHoldKeepsPriorities) {
  // The default hold of 0: a lone head is launchable at its own enqueue
  // tick, and bulk escalation is a fixed bound, not a multiple of the hold.
  BatchQueueConfig config;
  config.batch_cap = 4;
  config.queue_bound = 16;
  ASSERT_EQ(config.flush_age_ticks, 0u);
  BatchQueue queue(config);

  QueuedRequest request;
  request.plan = "lone";
  request.id = 1;
  request.enqueue_tick = 100;
  ASSERT_TRUE(queue.submit(request));
  ASSERT_TRUE(queue.next_event_tick().has_value());
  EXPECT_EQ(*queue.next_event_tick(), 100u);
  std::vector<QueuedRequest> lone = queue.pop_ready(/*now=*/100, false);
  ASSERT_EQ(lone.size(), 1u);
  EXPECT_EQ(lone.front().id, 1u);
  queue.mark_idle("lone");

  // An interactive head beats an older bulk head until the bulk head has
  // waited kBulkEscalationTicks...
  request.plan = "bulk";
  request.id = 2;
  request.enqueue_tick = 1000;
  request.priority = 1;
  ASSERT_TRUE(queue.submit(request));
  request.plan = "interactive";
  request.id = 3;
  request.priority = 0;
  for (const std::uint64_t tick :
       {std::uint64_t{1001}, 1000 + kBulkEscalationTicks - 1}) {
    request.enqueue_tick = tick;
    ASSERT_TRUE(queue.submit(request));
    std::vector<QueuedRequest> first = queue.pop_ready(tick, false);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first.front().plan, "interactive") << "at tick " << tick;
    queue.mark_idle("interactive");
    ++request.id;
  }
  // ...and from then on the bulk head counts as interactive and, being
  // older, launches first.
  const std::uint64_t escalated = 1000 + kBulkEscalationTicks;
  request.enqueue_tick = escalated;
  ASSERT_TRUE(queue.submit(request));
  std::vector<QueuedRequest> first = queue.pop_ready(escalated, false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().plan, "bulk");
}

TEST(ServiceBatchQueueProperty, MultiQueueConsumerStaysOldestHeadFair) {
  // Regression for the cross-queue fairness bug: next_event_tick reported a
  // literal 0 for a full non-busy plan, so a consumer polling one BatchQueue
  // per shard saw every full queue as infinitely old and served them in
  // iteration order, starving shards whose heads had genuinely waited
  // longest.  oldest_ready_head_tick (and the fixed next_event_tick) report
  // the real head tick; a consumer that always serves the queue with the
  // smallest value drains heads in global enqueue order.
  BatchQueueConfig config;
  config.batch_cap = 2;  // Two-request plans are full => launchable "now".
  config.queue_bound = 16;
  config.flush_age_ticks = 1000;  // Age alone never triggers a launch here.
  std::vector<BatchQueue> queues;
  queues.emplace_back(config);
  queues.emplace_back(config);
  queues.emplace_back(config);

  // Interleave full plans across the queues so iteration order (queue 0
  // first) disagrees with global head age.
  const struct {
    std::size_t queue;
    const char* plan;
    std::uint64_t tick;
  } plans[] = {
      {2, "p_oldest", 10}, {0, "p_mid", 20}, {1, "p_newer", 30},
      {0, "p_newest", 40},
  };
  std::uint64_t id = 1;
  for (const auto& p : plans) {
    QueuedRequest request;
    request.plan = p.plan;
    request.enqueue_tick = p.tick;
    request.id = id++;
    ASSERT_TRUE(queues[p.queue].submit(request));
    request.id = id++;
    ASSERT_TRUE(queues[p.queue].submit(request));
  }

  std::vector<std::string> served;
  while (true) {
    std::size_t best = queues.size();
    std::uint64_t best_tick = 0;
    for (std::size_t q = 0; q < queues.size(); ++q) {
      const std::optional<std::uint64_t> tick =
          queues[q].oldest_ready_head_tick(/*now=*/100, /*drain=*/false);
      if (tick && (best == queues.size() || *tick < best_tick)) {
        best = q;
        best_tick = *tick;
      }
    }
    if (best == queues.size()) {
      break;
    }
    std::vector<QueuedRequest> batch = queues[best].pop_ready(100, false);
    ASSERT_FALSE(batch.empty());
    served.push_back(batch.front().plan);
    queues[best].mark_idle(batch.front().plan);
  }
  const std::vector<std::string> want = {"p_oldest", "p_mid", "p_newer",
                                         "p_newest"};
  EXPECT_EQ(served, want);

  // next_event_tick agrees with the fairness key for full plans: it must
  // report the real head tick, never 0.
  QueuedRequest request;
  request.plan = "full";
  request.enqueue_tick = 77;
  request.id = id++;
  ASSERT_TRUE(queues[0].submit(request));
  request.id = id++;
  ASSERT_TRUE(queues[0].submit(request));
  ASSERT_TRUE(queues[0].next_event_tick().has_value());
  EXPECT_EQ(*queues[0].next_event_tick(), 77u);
}

TEST(ServiceBatchQueueProperty, OldestReadyHeadTickIsPriorityBlind) {
  BatchQueueConfig config;
  config.batch_cap = 4;
  config.queue_bound = 16;
  config.flush_age_ticks = 10;
  BatchQueue queue(config);

  QueuedRequest request;
  request.plan = "bulk";
  request.id = 1;
  request.enqueue_tick = 1;
  request.priority = 1;
  ASSERT_TRUE(queue.submit(request));
  request.plan = "interactive";
  request.id = 2;
  request.enqueue_tick = 5;
  request.priority = 0;
  ASSERT_TRUE(queue.submit(request));

  // Fairness observable: the oldest launchable head is the bulk one even
  // though pop_ready would serve the interactive plan first — head age and
  // service order are deliberately different measurements.
  const std::optional<std::uint64_t> tick =
      queue.oldest_ready_head_tick(/*now=*/20, /*drain=*/false);
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(*tick, 1u);
  std::vector<QueuedRequest> first = queue.pop_ready(/*now=*/20, false);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.front().plan, "interactive");
}

}  // namespace
}  // namespace pd::service
