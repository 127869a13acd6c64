// DoseService differential stress and fault-injection tests.
//
// ServiceStress: N client threads hammer M plans with seeded random weight
// vectors through a DoseService, across worker counts {1, 2, 5}, batch caps
// {1, 4, 9}, and both backends.  Every returned dose is checked *bitwise*
// against a fresh sequential DoseEngine::compute on the same plan matrix —
// batching, scheduling order, worker count, cache eviction, and backend must
// all be invisible in the bits (§II-D served end-to-end).
//
// ServiceFaults: deterministic fault injection — deadline expiry mid-queue,
// cancellation after submit, cache eviction racing an in-flight batch,
// queue-overflow backpressure, unknown plans, malformed weight vectors, and
// non-finite weights (rejected at submit for every tier, also through a
// ShardedDoseService).
// Every fault resolves with a documented status; no fault ever yields a
// wrong dose or a deadlock, including under ASan/UBSan
// (-DPROTONDOSE_SANITIZE=ON, exercised by the CI sanitize job).
//
// PROTONDOSE_SERVICE_STRESS=1 elevates client/request counts (CI stress job).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/threadcheck.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "service/dose_service.hpp"
#include "service/sharded_service.hpp"
#include "sparse/random.hpp"

namespace pd::service {
namespace {

/// Clean-suite enforcement (docs/threadcheck.md): under
/// PROTONDOSE_THREADCHECK=1 (the CI threadcheck job) every test in this
/// binary doubles as a threadcheck fixture — at exit the analyzer must have
/// found nothing in the whole recorded stream.
class ThreadcheckCleanEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    if (!threadcheck::enabled()) {
      return;
    }
    const threadcheck::Report report = threadcheck::analyze();
    EXPECT_TRUE(report.clean()) << report.summary();
  }
};
[[maybe_unused]] const auto* const kThreadcheckCleanEnv =
    ::testing::AddGlobalTestEnvironment(new ThreadcheckCleanEnv);

using Backend = kernels::DoseEngine::Backend;

constexpr std::uint64_t kMatrixSeedBase = 0xd05e5eedULL;
constexpr std::uint64_t kSpots = 90;

bool stress_elevated() {
  const char* env = std::getenv("PROTONDOSE_SERVICE_STRESS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Deterministic per-plan matrix: same seed -> same bits, every call.  This
/// is the MatrixSource contract the cache relies on for eviction safety.
sparse::CsrF64 plan_matrix(std::size_t plan_index) {
  Rng rng(kMatrixSeedBase + plan_index);
  return sparse::random_csr(rng, 300, kSpots, 12.0,
                            sparse::RandomStructure::kSkewed);
}

std::string plan_name(std::size_t plan_index) {
  return "plan" + std::to_string(plan_index);
}

ServiceConfig make_config(Backend backend, unsigned workers,
                          std::size_t batch_cap) {
  ServiceConfig config;
  config.workers = workers;
  config.batch_cap = batch_cap;
  config.queue_bound = 512;
  config.flush_deadline_ms = 0.5;
  config.engine_cache_capacity = 2;  // < plan count: eviction under stress
  config.engine.device = gpusim::make_a100();
  config.engine.backend = backend;
  return config;
}

void register_plans(DoseService& service, std::size_t num_plans) {
  for (std::size_t p = 0; p < num_plans; ++p) {
    service.register_plan(plan_name(p), [p] { return plan_matrix(p); });
  }
}

/// Fresh sequential reference engines, one per plan, independent of the
/// service (never shared, never batched).
std::vector<kernels::DoseEngine> make_references(Backend backend,
                                                 std::size_t num_plans) {
  std::vector<kernels::DoseEngine> refs;
  refs.reserve(num_plans);
  for (std::size_t p = 0; p < num_plans; ++p) {
    refs.emplace_back(plan_matrix(p), gpusim::make_a100(),
                      kernels::DoseEngine::Mode::kHalfDouble,
                      kernels::kDefaultVectorTpb, kernels::SpmvFamily::kVector,
                      backend);
  }
  return refs;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "dose[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

struct ClientRecord {
  std::size_t plan_index;
  std::vector<double> weights;
  std::future<DoseResult> result;
};

/// One client: submits `requests` random-weight requests round-robin over the
/// plans, then verifies each future bitwise against the reference engine.
void run_client(DoseService& service, std::uint64_t seed,
                std::size_t num_plans, std::size_t requests,
                std::vector<ClientRecord>& records) {
  Rng rng(seed);
  records.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    const std::size_t plan_index = rng.uniform_index(num_plans);
    std::vector<double> weights = sparse::random_vector(rng, kSpots, 0.0, 2.0);
    Ticket ticket =
        service.submit(plan_name(plan_index), weights);
    records.push_back(
        ClientRecord{plan_index, std::move(weights), std::move(ticket.result)});
  }
}

struct StressCase {
  Backend backend;
  unsigned workers;
  std::size_t batch_cap;
  /// Keep ServiceConfig's default hold (work-conserving dispatch) instead
  /// of make_config's 0.5 ms.
  bool default_hold = false;
};

class ServiceStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ServiceStress, DifferentialBitwiseUnderConcurrency) {
  const StressCase& param = GetParam();
  const std::size_t num_plans = 3;
  const std::size_t clients = stress_elevated() ? 8 : 3;
  const std::size_t requests_per_client = stress_elevated() ? 48 : 10;

  ServiceConfig config =
      make_config(param.backend, param.workers, param.batch_cap);
  if (param.default_hold) {
    config.flush_deadline_ms = ServiceConfig{}.flush_deadline_ms;
  }
  DoseService service(config);
  register_plans(service, num_plans);

  std::vector<std::vector<ClientRecord>> per_client(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&service, &per_client, c, num_plans,
                            requests_per_client] {
        run_client(service, /*seed=*/1000 + c, num_plans, requests_per_client,
                   per_client[c]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  service.drain();

  std::vector<kernels::DoseEngine> refs =
      make_references(param.backend, num_plans);
  std::size_t ok = 0;
  for (std::vector<ClientRecord>& records : per_client) {
    for (ClientRecord& record : records) {
      DoseResult result = record.result.get();
      ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
      ASSERT_GE(result.batch_size, 1u);
      ASSERT_LE(result.batch_size, param.batch_cap);
      const std::vector<double> want =
          refs[record.plan_index].compute(record.weights);
      expect_bitwise_equal(result.dose, want);
      ++ok;
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.submitted, clients * requests_per_client);
  EXPECT_EQ(stats.rejected + stats.cancelled + stats.expired + stats.failed,
            0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.mean_batch_size(), 0.0);
  // 3 plans, capacity 2: the cache must have missed at least once per plan.
  EXPECT_GE(stats.cache.misses, num_plans);
}

std::string stress_case_name(
    const ::testing::TestParamInfo<StressCase>& info) {
  std::string name =
      info.param.backend == Backend::kNative ? "native" : "gpusim";
  name += "_w" + std::to_string(info.param.workers);
  name += "_cap" + std::to_string(info.param.batch_cap);
  if (info.param.default_hold) {
    name += "_default_hold";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ServiceStress,
    ::testing::Values(
        // Native backend: full worker x cap sweep (fast wall-clock).
        StressCase{Backend::kNative, 1, 1}, StressCase{Backend::kNative, 1, 4},
        StressCase{Backend::kNative, 1, 9}, StressCase{Backend::kNative, 2, 1},
        StressCase{Backend::kNative, 2, 4}, StressCase{Backend::kNative, 2, 9},
        StressCase{Backend::kNative, 5, 1}, StressCase{Backend::kNative, 5, 4},
        StressCase{Backend::kNative, 5, 9},
        // Gpusim backend: corner configs (the simulated device is slow; the
        // batching logic upstream of the backend is identical).
        StressCase{Backend::kGpusim, 1, 4}, StressCase{Backend::kGpusim, 2, 9},
        StressCase{Backend::kGpusim, 5, 1},
        // The default, work-conserving dispatch: batches form only behind a
        // busy plan or busy workers.
        StressCase{Backend::kNative, 1, 9, true},
        StressCase{Backend::kNative, 2, 4, true},
        StressCase{Backend::kGpusim, 2, 9, true}),
    stress_case_name);

// ---------------------------------------------------------------------------
// Fault injection

TEST(ServiceFaults, QueueOverflowBackpressure) {
  // queue_bound 4 < batch_cap 8 with an hour-long flush deadline: nothing
  // launches, so the 5th submit must bounce with kRejected + retry hint.
  ServiceConfig config = make_config(Backend::kNative, 1, 8);
  config.queue_bound = 4;
  config.flush_deadline_ms = 3.6e6;
  DoseService service(config);
  register_plans(service, 1);

  const std::vector<double> weights(kSpots, 1.0);
  std::vector<Ticket> accepted;
  for (int i = 0; i < 4; ++i) {
    accepted.push_back(service.submit(plan_name(0), weights));
  }
  Ticket bounced = service.submit(plan_name(0), weights);
  DoseResult rejected = bounced.result.get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  // The hint estimates the backlog's clearing time, not the hold.
  EXPECT_LT(rejected.retry_after_ms, config.flush_deadline_ms);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().max_queue_depth, 4u);

  // Backpressure is transient: drain flushes the partial batch and the
  // accepted requests complete normally.
  service.drain();
  for (Ticket& ticket : accepted) {
    EXPECT_EQ(ticket.result.get().status, RequestStatus::kOk);
  }
  EXPECT_EQ(service.stats().completed, 4u);
}

TEST(ServiceFaults, RetryAfterIsPositiveBeforeTheFirstLaunch) {
  // The default hold, one worker stalled inside the plan's first engine
  // build: no launch has completed, so there is no launch cost to scale
  // the hint by — a rejected submit must still be told to wait a while.
  ServiceConfig config = make_config(Backend::kNative, 1, 8);
  config.flush_deadline_ms = ServiceConfig{}.flush_deadline_ms;
  config.queue_bound = 4;
  std::latch building(1);
  std::latch release(1);
  std::atomic<bool> entered{false};
  DoseService service(config);
  service.register_plan(plan_name(0), [&] {
    if (!entered.exchange(true)) {
      building.count_down();
    }
    release.wait();
    return plan_matrix(0);
  });

  const std::vector<double> weights(kSpots, 1.0);
  std::vector<Ticket> accepted;
  accepted.push_back(service.submit(plan_name(0), weights));
  building.wait();  // the worker popped it and is blocked in the build
  for (std::size_t i = 0; i < config.queue_bound; ++i) {
    accepted.push_back(service.submit(plan_name(0), weights));
    EXPECT_TRUE(accepted.back().accepted);  // no ASSERT: release must run
  }
  Ticket bounced = service.submit(plan_name(0), weights);
  EXPECT_FALSE(bounced.accepted);
  DoseResult rejected = bounced.result.get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_GT(rejected.retry_after_ms, 0.0);

  release.count_down();
  service.drain();
  for (Ticket& ticket : accepted) {
    EXPECT_EQ(ticket.result.get().status, RequestStatus::kOk);
  }
}

TEST(ServiceFaults, DeadlineExpiresMidQueue) {
  // One worker, huge flush deadline, cap 4: a lone request can never launch
  // on its own, so its 5 ms queue deadline must fire (worker wakes on the
  // deadline tick via next_event_tick).
  ServiceConfig config = make_config(Backend::kNative, 1, 4);
  config.flush_deadline_ms = 3.6e6;
  DoseService service(config);
  register_plans(service, 1);

  SubmitOptions options;
  options.deadline_ms = 5.0;
  Ticket ticket =
      service.submit(plan_name(0), std::vector<double>(kSpots, 1.0), options);
  DoseResult result = ticket.result.get();  // must not deadlock
  EXPECT_EQ(result.status, RequestStatus::kDeadlineExpired);
  EXPECT_GE(result.latency_ms, 5.0);
  EXPECT_EQ(service.stats().expired, 1u);
  EXPECT_EQ(service.stats().queue_depth, 0u);
}

TEST(ServiceFaults, CancelAfterSubmit) {
  ServiceConfig config = make_config(Backend::kNative, 1, 4);
  config.flush_deadline_ms = 3.6e6;
  DoseService service(config);
  register_plans(service, 1);

  Ticket ticket = service.submit(plan_name(0), std::vector<double>(kSpots, 1.0));
  EXPECT_TRUE(service.cancel(ticket.id));
  DoseResult result = ticket.result.get();
  EXPECT_EQ(result.status, RequestStatus::kCancelled);
  // Idempotence and unknown ids.
  EXPECT_FALSE(service.cancel(ticket.id));
  EXPECT_FALSE(service.cancel(99999));
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().queue_depth, 0u);
}

TEST(ServiceFaults, CancelTooLateReturnsFalseAndResultArrives) {
  // Zero flush deadline: the request launches immediately, so cancel either
  // catches it in-queue (kCancelled) or arrives too late (false + kOk dose).
  // Either way the outcome is documented and the dose, if any, is right.
  ServiceConfig config = make_config(Backend::kNative, 2, 4);
  config.flush_deadline_ms = 0.0;
  DoseService service(config);
  register_plans(service, 1);

  const std::vector<double> weights(kSpots, 0.5);
  Ticket ticket = service.submit(plan_name(0), weights);
  const bool cancelled = service.cancel(ticket.id);
  DoseResult result = ticket.result.get();
  if (cancelled) {
    EXPECT_EQ(result.status, RequestStatus::kCancelled);
  } else {
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    std::vector<kernels::DoseEngine> refs =
        make_references(Backend::kNative, 1);
    expect_bitwise_equal(result.dose, refs[0].compute(weights));
  }
}

TEST(ServiceFaults, EvictionRacesInFlightBatch) {
  // Cache capacity 1 with two hot plans and two workers: every launch of one
  // plan evicts (or tries to evict) the other plan's engine while batches are
  // in flight.  Pinning must keep in-flight engines alive, and rebuilt
  // engines must produce bitwise-identical doses.
  ServiceConfig config = make_config(Backend::kNative, 2, 2);
  config.engine_cache_capacity = 1;
  config.flush_deadline_ms = 0.0;  // launch eagerly: maximize overlap
  DoseService service(config);
  register_plans(service, 2);

  const std::size_t rounds = stress_elevated() ? 120 : 30;
  Rng rng(0xca5eULL);
  std::vector<ClientRecord> records;
  records.reserve(2 * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < 2; ++p) {
      std::vector<double> weights =
          sparse::random_vector(rng, kSpots, 0.0, 2.0);
      Ticket ticket = service.submit(plan_name(p), weights);
      records.push_back(
          ClientRecord{p, std::move(weights), std::move(ticket.result)});
    }
  }
  service.drain();

  // Serialized alternation tail: one request in flight at a time, drained
  // between submits.  Whatever the concurrent phase left behind (even a
  // fully pinned overshoot where both engines got inserted while the other
  // was in flight), each acquire here finds the other plan's engine
  // unpinned, so the capacity-1 cache must evict it and rebuild on the next
  // alternation — churn is guaranteed for any worker count or scheduler.
  const std::size_t tail = 4;
  for (std::size_t t = 0; t < tail; ++t) {
    const std::size_t p = t % 2;
    std::vector<double> weights = sparse::random_vector(rng, kSpots, 0.0, 2.0);
    Ticket ticket = service.submit(plan_name(p), weights);
    records.push_back(
        ClientRecord{p, std::move(weights), std::move(ticket.result)});
    service.drain();
  }

  std::vector<kernels::DoseEngine> refs = make_references(Backend::kNative, 2);
  for (ClientRecord& record : records) {
    DoseResult result = record.result.get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    expect_bitwise_equal(result.dose,
                         refs[record.plan_index].compute(record.weights));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2 * rounds + tail);
  // Capacity 1 with two alternating plans has to churn.
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_GT(stats.cache.misses, 2u);
}

TEST(ServiceFaults, EvictionRacesInFlightDeltaBatch) {
  // Same churn as EvictionRacesInFlightBatch, but the traffic is
  // submit_delta: every launch must lazily rebuild the evicted engine's CSC
  // sidecar (EngineCache rebuilds are bit-identical, and the sidecar is a
  // pure function of the stored matrix), so delta doses stay bitwise equal
  // to a fresh sequential full compute of each request's new weights.
  //
  // One worker makes the churn deterministic: launches serialize and the
  // worker unpins its engine before completing a batch, so every cross-plan
  // acquire inserts while the other engine is unpinned and the capacity-1
  // cache must evict it.  (With concurrent workers both engines can be
  // inserted while the other is pinned; the cache then overshoots and never
  // sees another miss, leaving the eviction count to scheduler timing.)
  ServiceConfig config = make_config(Backend::kNative, 1, 2);
  config.engine_cache_capacity = 1;
  config.flush_deadline_ms = 0.0;  // launch eagerly
  DoseService service(config);
  register_plans(service, 2);

  std::vector<kernels::DoseEngine> refs = make_references(Backend::kNative, 2);
  std::vector<std::shared_ptr<const DeltaBase>> bases;
  for (std::size_t p = 0; p < 2; ++p) {
    auto base = std::make_shared<DeltaBase>();
    base->key = static_cast<std::uint32_t>(p);
    base->weights = std::vector<double>(kSpots, 1.0);
    base->dose = refs[p].compute(base->weights);
    bases.push_back(std::move(base));
  }

  const std::size_t rounds = stress_elevated() ? 120 : 30;
  Rng rng(0xde17aULL);
  std::vector<ClientRecord> records;
  records.reserve(2 * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < 2; ++p) {
      std::vector<double> weights =
          sparse::random_vector(rng, kSpots, 0.0, 2.0);
      Ticket ticket = service.submit_delta(plan_name(p), bases[p], weights);
      records.push_back(
          ClientRecord{p, std::move(weights), std::move(ticket.result)});
    }
    // Draining each round keeps the shape crisp: exactly two alternating
    // single-plan launches per round, each one a rebuild-after-evict
    // (sidecar included) of the engine the previous launch displaced.
    service.drain();
  }

  for (ClientRecord& record : records) {
    DoseResult result = record.result.get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    expect_bitwise_equal(result.dose,
                         refs[record.plan_index].compute(record.weights));
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2 * rounds);
  EXPECT_GT(stats.delta_batches, 0u);
  // Capacity 1 with two alternating plans has to churn.
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_GT(stats.cache.misses, 2u);
}

TEST(ServiceFaults, UnknownPlanFailsImmediately) {
  DoseService service(make_config(Backend::kNative, 1, 4));
  register_plans(service, 1);
  Ticket ticket =
      service.submit("no_such_plan", std::vector<double>(kSpots, 1.0));
  DoseResult result = ticket.result.get();
  EXPECT_EQ(result.status, RequestStatus::kFailed);
  EXPECT_NE(result.error.find("unknown plan"), std::string::npos);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServiceFaults, BadWeightLengthFailsAloneBatchmatesSucceed) {
  // cap 3 with a huge flush deadline: all three requests ride one launch;
  // the malformed one must fail individually without poisoning the batch.
  ServiceConfig config = make_config(Backend::kNative, 1, 3);
  config.flush_deadline_ms = 3.6e6;
  DoseService service(config);
  register_plans(service, 1);

  const std::vector<double> good(kSpots, 1.0);
  Ticket a = service.submit(plan_name(0), good);
  Ticket bad = service.submit(plan_name(0), std::vector<double>(7, 1.0));
  Ticket b = service.submit(plan_name(0), good);
  service.drain();

  DoseResult bad_result = bad.result.get();
  EXPECT_EQ(bad_result.status, RequestStatus::kFailed);
  EXPECT_NE(bad_result.error.find("weight vector"), std::string::npos);

  std::vector<kernels::DoseEngine> refs = make_references(Backend::kNative, 1);
  const std::vector<double> want = refs[0].compute(good);
  for (Ticket* ticket : {&a, &b}) {
    DoseResult result = ticket->result.get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    EXPECT_EQ(result.batch_size, 2u);  // the bad one dropped out pre-launch
    expect_bitwise_equal(result.dose, want);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

/// A rejected non-finite request: immediate kFailed whose error names the
/// first bad index.
void expect_non_finite_rejected(Ticket& ticket, std::size_t index,
                                const std::string& what) {
  EXPECT_FALSE(ticket.accepted) << what;
  const DoseResult result = ticket.result.get();
  EXPECT_EQ(result.status, RequestStatus::kFailed) << what;
  EXPECT_NE(result.error.find("non-finite"), std::string::npos)
      << what << ": " << result.error;
  EXPECT_NE(result.error.find("index " + std::to_string(index)),
            std::string::npos)
      << what << ": " << result.error;
}

TEST(ServiceFaults, NonFiniteWeightsFailImmediatelyForEveryTier) {
  // The fast tiers' derived bounds mean nothing once a weight is NaN or
  // ±Inf, so submit and submit_delta refuse them for every tier — bitwise,
  // fast and both delta modes — before anything is queued.
  DoseService service(make_config(Backend::kNative, 1, 4));
  register_plans(service, 1);
  std::vector<kernels::DoseEngine> refs = make_references(Backend::kNative, 1);
  const std::vector<double> good(kSpots, 1.0);
  auto base = std::make_shared<DeltaBase>();
  base->weights = good;
  base->dose = refs[0].compute(good);

  SubmitOptions fast;
  fast.tier = kernels::DoseEngine::Tier::kFast;
  DeltaOptions delta_fast;
  delta_fast.mode = kernels::DoseEngine::DeltaMode::kFast;
  std::uint64_t rejected = 0;
  for (const double bad : kNonFinite) {
    std::vector<double> w = good;
    w[17] = bad;
    w[40] = bad;  // only the first bad index is named
    const std::string label = "value " + std::to_string(bad);
    Ticket bitwise_t = service.submit(plan_name(0), w);
    expect_non_finite_rejected(bitwise_t, 17, label + " bitwise");
    Ticket fast_t = service.submit(plan_name(0), w, fast);
    expect_non_finite_rejected(fast_t, 17, label + " fast");
    Ticket delta_t = service.submit_delta(plan_name(0), base, w);
    expect_non_finite_rejected(delta_t, 17, label + " delta");
    Ticket delta_fast_t = service.submit_delta(plan_name(0), base, w,
                                               delta_fast);
    expect_non_finite_rejected(delta_fast_t, 17, label + " delta fast");
    // A non-finite base weight is refused too: the update would carry it.
    auto bad_base = std::make_shared<DeltaBase>(*base);
    bad_base->weights[3] = bad;
    Ticket bad_base_t = service.submit_delta(plan_name(0), bad_base, good);
    expect_non_finite_rejected(bad_base_t, 3, label + " delta base");
    rejected += 5;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, rejected);
  EXPECT_EQ(stats.batches, 0u);  // nothing reached a launch
}

TEST(ServiceFaults, NegativeZeroAndSubnormalWeightsAreAccepted) {
  // Finite is the whole rule: -0.0 and subnormals are ordinary weights, and
  // the bitwise tier still matches a sequential compute bit for bit.
  DoseService service(make_config(Backend::kNative, 1, 4));
  register_plans(service, 1);
  std::vector<kernels::DoseEngine> refs = make_references(Backend::kNative, 1);
  std::vector<double> w(kSpots, 1.0);
  w[0] = -0.0;
  w[5] = std::numeric_limits<double>::denorm_min();
  w[9] = -std::numeric_limits<double>::min() / 8.0;
  ASSERT_EQ(std::fpclassify(w[9]), FP_SUBNORMAL);
  Ticket full = service.submit(plan_name(0), w);
  auto base = std::make_shared<DeltaBase>();
  base->weights = std::vector<double>(kSpots, 1.0);
  base->dose = refs[0].compute(base->weights);
  Ticket delta = service.submit_delta(plan_name(0), base, w);
  service.drain();
  const std::vector<double> want = refs[0].compute(w);
  for (Ticket* ticket : {&full, &delta}) {
    EXPECT_TRUE(ticket->accepted);
    DoseResult result = ticket->result.get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    expect_bitwise_equal(result.dose, want);
  }
}

TEST(ServiceFaults, ShardedServiceRejectsNonFiniteWeights) {
  // The shard's refusal is plan-level (every shard would repeat it), so the
  // router surfaces it without spilling — for routed and sliced plans alike.
  ShardedServiceConfig config;
  config.shards = 2;
  config.replication = 2;
  config.shard = make_config(Backend::kNative, 1, 4);
  ShardedDoseService service(config);
  service.register_plan("whole", [] { return plan_matrix(0); });
  service.register_plan_sliced("sliced", [] { return plan_matrix(1); }, 2);
  for (const double bad : kNonFinite) {
    std::vector<double> w(kSpots, 1.0);
    w[kSpots - 1] = bad;
    const std::string label = "value " + std::to_string(bad);
    Ticket routed = service.submit("whole", w);
    expect_non_finite_rejected(routed, kSpots - 1, label + " routed");
    Ticket sliced = service.submit("sliced", w);
    expect_non_finite_rejected(sliced, kSpots - 1, label + " sliced");
  }
  EXPECT_EQ(service.stats().failed_immediate, 2 * std::size(kNonFinite));
}

TEST(ServiceFaults, DestructorDrainsOutstandingRequests) {
  // A service destroyed with queued work must resolve every future (the
  // destructor drains) — nobody blocks forever on a dropped promise.
  std::vector<Ticket> tickets;
  {
    ServiceConfig config = make_config(Backend::kNative, 2, 4);
    config.flush_deadline_ms = 3.6e6;  // only the destructor's drain flushes
    DoseService service(config);
    register_plans(service, 1);
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(
          service.submit(plan_name(0), std::vector<double>(kSpots, 1.0)));
    }
  }
  for (Ticket& ticket : tickets) {
    EXPECT_EQ(ticket.result.get().status, RequestStatus::kOk);
  }
}

TEST(ServiceThreadcheck, DoesNotPerturb) {
  // §II-D with the analyzer fully on: recording AND seeded schedule
  // perturbation must be invisible in the bits — every served dose stays
  // bitwise equal to a fresh sequential compute, and the instrumented
  // serving stack itself must analyze clean.
  const bool env_was_enabled = threadcheck::enabled();
  threadcheck::reset();
  threadcheck::CheckConfig check;
  check.schedule_seed = 0xC0FFEEULL;
  threadcheck::enable(check);

  constexpr std::size_t kPlans = 2;
  std::vector<kernels::DoseEngine> refs =
      make_references(Backend::kNative, kPlans);
  {
    DoseService service(make_config(Backend::kNative, 2, 4));
    register_plans(service, kPlans);
    Rng rng(0x9e7b5eedULL);
    std::vector<std::pair<std::size_t, std::vector<double>>> sent;
    std::vector<Ticket> tickets;
    for (int i = 0; i < 24; ++i) {
      const std::size_t p = i % kPlans;
      std::vector<double> weights(kSpots);
      for (double& w : weights) {
        w = rng.uniform(0.0, 2.0);
      }
      tickets.push_back(service.submit(plan_name(p), weights));
      sent.emplace_back(p, std::move(weights));
    }
    service.drain();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      DoseResult result = tickets[i].result.get();
      ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
      expect_bitwise_equal(result.dose,
                           refs[sent[i].first].compute(sent[i].second));
    }
  }

  const threadcheck::Report report = threadcheck::analyze();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.perturbations, 0u)
      << "the seed must actually exercise the perturbation hook";

  // Hand the session back the way the environment set it up.
  threadcheck::disable();
  threadcheck::reset();
  if (env_was_enabled) {
    threadcheck::CheckConfig env_config;
    env_config.schedule_seed = threadcheck::env_schedule_seed();
    threadcheck::enable(env_config);
  }
}

}  // namespace
}  // namespace pd::service
