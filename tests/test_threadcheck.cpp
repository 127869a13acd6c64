// threadcheck fixture battery (docs/threadcheck.md), mirroring
// test_simcheck.cpp's design: a set of deliberately buggy micro-services,
// each carrying exactly one seeded concurrency bug, where the analyzer must
// flag exactly that bug's check class and nothing else; clean twins of each
// fixture prove the passes don't cry wolf; and config/cap/env/perturbation
// plumbing is pinned.
//
// The analysis is a deterministic function of the recorded event stream, so
// every fixture here is reliable: a race is flagged because the *events*
// admit no happens-before ordering, not because the scheduler happened to
// interleave the bug this run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/threadcheck.hpp"
#include "gpusim/device.hpp"
#include "gpusim/pool.hpp"
#include "kernels/dose_engine.hpp"
#include "service/sharded_service.hpp"
#include "sparse/parallel_spmv.hpp"
#include "sparse/random.hpp"
#include "sparse/reference.hpp"

namespace pd {
namespace {

using threadcheck::CheckConfig;
using threadcheck::FindingKind;
using threadcheck::Report;

/// Run `body` in a fresh recording session and analyze it.  reset() first:
/// the suite may start with env-driven recording already live
/// (PROTONDOSE_THREADCHECK=1), and fixtures must not see its events.
Report run_session(CheckConfig config, const std::function<void()>& body) {
  threadcheck::reset();
  threadcheck::enable(config);
  body();
  threadcheck::disable();
  return threadcheck::analyze();
}

void expect_only(const Report& report, FindingKind kind, std::uint64_t n) {
  EXPECT_EQ(report.count(kind), n) << report.summary();
  EXPECT_EQ(report.findings.size(), n) << report.summary();
  EXPECT_EQ(report.suppressed, 0u) << report.summary();
}

/// Run `first` then `second` on two *coexisting* threads, sequenced by an
/// uninstrumented atomic handshake.  The accesses never physically collide
/// and the release/acquire edge keeps TSan quiet, so racy fixtures can ride
/// in the TSan CI job next to the real serving stack — while the analyzer,
/// whose only happens-before edges are pd::Mutex release/acquire pairs,
/// still flags the missing ordering.  (Plain join-between does not work: a
/// joined thread's id is routinely reused by the next thread, which would
/// collapse both bodies onto one recorded thread and lose the finding.)
void sequenced_threads(const std::function<void()>& first,
                       const std::function<void()>& second) {
  std::atomic<bool> ready{false};
  std::thread a([&] {
    first();
    ready.store(true, std::memory_order_release);
  });
  std::thread b([&] {
    while (!ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    second();
  });
  a.join();
  b.join();
}

// ---------------------------------------------------------------------------
// race pass
// ---------------------------------------------------------------------------

TEST(ThreadcheckRace, FlagsWriteWriteRace) {
  // BUG: two threads increment a shared counter with no lock.  The
  // sequenced_threads handshake keeps the increments from physically
  // colliding, so the fixture is clean under TSan — but the analyzer's only
  // happens-before edges are mutex release/acquire pairs, never atomics or
  // thread fork/join, so the unordered accesses are flagged all the same.
  // Every racy fixture in this file uses this shape.
  SharedState<int> counter{"fixture.racy_counter"};
  const Report report = run_session({}, [&] {
    sequenced_threads(
        [&] {
          for (int i = 0; i < 4; ++i) {
            ++counter.write();
          }
        },
        [&] {
          for (int i = 0; i < 4; ++i) {
            ++counter.write();
          }
        });
  });
  expect_only(report, FindingKind::kDataRace, 1);
  EXPECT_EQ(report.findings[0].object, "fixture.racy_counter");
  EXPECT_NE(report.findings[0].detail.find("write/write"), std::string::npos)
      << report.findings[0].detail;
}

TEST(ThreadcheckRace, FlagsReadWriteRace) {
  // BUG: a reader polls a value a writer updates with no synchronization.
  // The handshake keeps TSan quiet; the analyzer flags the missing
  // happens-before edge regardless.
  SharedState<double> value{"fixture.racy_value"};
  const Report report = run_session({}, [&] {
    sequenced_threads(
        [&] {
          for (int i = 0; i < 4; ++i) {
            value.write() = static_cast<double>(i);
          }
        },
        [&] {
          double sink = 0.0;
          for (int i = 0; i < 4; ++i) {
            sink += value.read();
          }
          (void)sink;
        });
  });
  expect_only(report, FindingKind::kDataRace, 1);
  EXPECT_NE(report.findings[0].detail.find("read/write"), std::string::npos)
      << report.findings[0].detail;
}

TEST(ThreadcheckRace, LockedAccessesAreClean) {
  // Clean twin: the same increments under a mutex — the release/acquire
  // edges order every pair of accesses.
  SharedState<int> counter{"fixture.locked_counter"};
  Mutex mu{"fixture.locked_counter.mu"};
  const Report report = run_session({}, [&] {
    auto work = [&] {
      for (int i = 0; i < 4; ++i) {
        std::lock_guard<Mutex> lock(mu);
        ++counter.write();
      }
    };
    std::thread a(work);
    std::thread b(work);
    a.join();
    b.join();
  });
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(counter.unchecked(), 8);
}

TEST(ThreadcheckRace, DisjointPartitionIsClean) {
  // Clean twin of the partition bug below: parallel_spmv's contract — each
  // worker owns a disjoint output range, so no locks are needed at all.
  SharedRange rows{"fixture.partition"};
  const Report report = run_session({}, [&] {
    std::thread a([&] { rows.write(0, 50); });
    std::thread b([&] { rows.write(50, 100); });
    a.join();
    b.join();
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckRace, FlagsOverlappingPartition) {
  // BUG: a partitioning error hands two workers overlapping row ranges.
  // The overlap is flagged from the ranges alone — even a run where the
  // duplicated rows were written in a benign order is a seeded failure.
  SharedRange rows{"fixture.bad_partition"};
  const Report report = run_session({}, [&] {
    std::thread a([&] { rows.write(0, 60); });
    std::thread b([&] { rows.write(50, 100); });
    a.join();
    b.join();
  });
  expect_only(report, FindingKind::kDataRace, 1);
}

TEST(ThreadcheckRace, PassCanBeDisabled) {
  SharedState<int> counter{"fixture.racy_counter.norace"};
  CheckConfig config;
  config.race = false;
  const Report report = run_session(config, [&] {
    sequenced_threads([&] { ++counter.write(); }, [&] { ++counter.write(); });
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// lockorder pass
// ---------------------------------------------------------------------------

TEST(ThreadcheckLockOrder, FlagsAbBaInversion) {
  // BUG: one code path locks A then B, another B then A.  The threads run
  // sequentially here (join between), so this run could never deadlock —
  // the cycle in the order graph is flagged anyway, which is the point.
  Mutex a{"fixture.mu_a"};
  Mutex b{"fixture.mu_b"};
  const Report report = run_session({}, [&] {
    std::thread t1([&] {
      std::scoped_lock lock(a, b);
    });
    t1.join();
    std::thread t2([&] {
      std::lock_guard<Mutex> first(b);
      std::lock_guard<Mutex> second(a);
    });
    t2.join();
  });
  expect_only(report, FindingKind::kLockInversion, 1);
  EXPECT_NE(report.findings[0].detail.find("cycle"), std::string::npos);
}

TEST(ThreadcheckLockOrder, ConsistentNestingIsClean) {
  // Clean twin: both paths take A before B.
  Mutex a{"fixture.nested_a"};
  Mutex b{"fixture.nested_b"};
  const Report report = run_session({}, [&] {
    auto work = [&] {
      std::lock_guard<Mutex> first(a);
      std::lock_guard<Mutex> second(b);
    };
    std::thread t1(work);
    t1.join();
    std::thread t2(work);
    t2.join();
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckLockOrder, PassCanBeDisabled) {
  Mutex a{"fixture.mu_a.nolockorder"};
  Mutex b{"fixture.mu_b.nolockorder"};
  CheckConfig config;
  config.lockorder = false;
  const Report report = run_session(config, [&] {
    {
      std::scoped_lock lock(a, b);
    }
    std::lock_guard<Mutex> first(b);
    std::lock_guard<Mutex> second(a);
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// condvar pass
// ---------------------------------------------------------------------------

TEST(ThreadcheckCondVar, FlagsUnpredicatedWait) {
  // BUG: a bare untimed wait() — a spurious or stale wakeup proceeds on an
  // unverified condition.  The notifier loops until the waiter confirms, so
  // the fixture terminates under any wakeup behavior.
  Mutex mu{"fixture.wait.mu"};
  CondVar cv{"fixture.wait.cv"};
  bool woken = false;
  const Report report = run_session({}, [&] {
    std::thread waiter([&] {
      std::unique_lock<Mutex> lock(mu);
      cv.wait(lock);  // the seeded bug
      woken = true;
    });
    for (;;) {
      {
        std::lock_guard<Mutex> lock(mu);
        if (woken) {
          break;
        }
      }
      cv.notify_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    waiter.join();
  });
  expect_only(report, FindingKind::kUnpredicatedWait, 1);
  EXPECT_EQ(report.findings[0].object, "fixture.wait.cv");
}

TEST(ThreadcheckCondVar, PredicatedAndAttestedWaitsAreClean) {
  // Clean twins: the predicate overload, the caller-attested re-check-loop
  // form, and a timed wait (a poll by construction) — none are linted.
  Mutex mu{"fixture.goodwait.mu"};
  CondVar cv{"fixture.goodwait.cv"};
  bool ready = false;
  const Report report = run_session({}, [&] {
    std::thread waiter([&] {
      std::unique_lock<Mutex> lock(mu);
      cv.wait(lock, [&] { return ready; });
      while (!ready) {
        cv.wait_unpredicated(lock);
      }
      cv.wait_until(lock,
                    std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(1));
    });
    {
      std::lock_guard<Mutex> lock(mu);
      ready = true;
    }
    cv.notify_all();
    waiter.join();
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckCondVar, FlagsNotifyWithoutWaiters) {
  // BUG: notifying a condvar no one ever waits on — the classic
  // wrong-condvar lost wakeup.  A Waiters::kOptional twin (a completion
  // broadcast whose waiters are legitimately optional) is exempt.
  CondVar lonely{"fixture.lonely.cv"};
  CondVar optional{"fixture.optional.cv", CondVar::Waiters::kOptional};
  const Report report = run_session({}, [&] {
    lonely.notify_one();
    optional.notify_all();
  });
  expect_only(report, FindingKind::kNotifyWithoutWaiters, 1);
  EXPECT_EQ(report.findings[0].object, "fixture.lonely.cv");
}

TEST(ThreadcheckCondVar, PassCanBeDisabled) {
  CondVar lonely{"fixture.lonely.cv.nocondvar"};
  CheckConfig config;
  config.condvar = false;
  const Report report = run_session(config, [&] { lonely.notify_one(); });
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// latency pass
// ---------------------------------------------------------------------------

kernels::DoseEngine make_small_engine() {
  Rng rng(0x7ea5eedULL);
  sparse::CsrF64 matrix = sparse::random_csr(
      rng, 60, 20, 6.0, sparse::RandomStructure::kSkewed);
  return kernels::DoseEngine(
      std::move(matrix), gpusim::make_a100(),
      kernels::DoseEngine::Mode::kHalfDouble, kernels::kDefaultVectorTpb,
      kernels::SpmvFamily::kVector, kernels::DoseEngine::Backend::kNative);
}

TEST(ThreadcheckLatency, FlagsLockHeldAcrossCompute) {
  // BUG: serving code computing a dose while holding a lock — the whole
  // stack serializes on a multi-millisecond kernel at paper scale.
  kernels::DoseEngine engine = make_small_engine();
  const std::vector<double> weights(20, 1.0);
  Mutex mu{"fixture.latency.mu"};
  const Report report = run_session({}, [&] {
    std::lock_guard<Mutex> lock(mu);
    engine.compute(weights);
  });
  expect_only(report, FindingKind::kLockHeldAcrossCompute, 1);
  EXPECT_EQ(report.findings[0].object, "fixture.latency.mu");
  EXPECT_NE(report.findings[0].detail.find("DoseEngine::compute"),
            std::string::npos)
      << report.findings[0].detail;
}

TEST(ThreadcheckLatency, UnlockedComputeIsClean) {
  // Clean twin: the serving stack's actual discipline — drop the lock,
  // compute, relock to publish.
  kernels::DoseEngine engine = make_small_engine();
  const std::vector<double> weights(20, 1.0);
  Mutex mu{"fixture.latency.clean.mu"};
  const Report report = run_session({}, [&] {
    {
      std::lock_guard<Mutex> lock(mu);
    }
    engine.compute(weights);
    engine.compute_batch(std::vector<double>(40, 0.5), 2);
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckLatency, PassCanBeDisabled) {
  kernels::DoseEngine engine = make_small_engine();
  const std::vector<double> weights(20, 1.0);
  Mutex mu{"fixture.latency.nolatency.mu"};
  CheckConfig config;
  config.latency = false;
  const Report report = run_session(config, [&] {
    std::lock_guard<Mutex> lock(mu);
    engine.compute(weights);
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// Instrumented production components run clean
// ---------------------------------------------------------------------------

TEST(ThreadcheckStack, ThreadPoolRunsClean) {
  // The gpusim phase-1 pool under full instrumentation: the generation
  // handshake must order every batch-descriptor access, across batches.
  const Report report = run_session({}, [&] {
    gpusim::ThreadPool pool(3);
    std::atomic<long> sum{0};
    for (int round = 0; round < 5; ++round) {
      pool.parallel_for(64, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
    }
    EXPECT_EQ(sum.load(), 5 * (64 * 63 / 2));
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckStack, ThreadPoolOutlivesBackToBackSessions) {
  // Pools that outlive many short sessions, each session running one
  // parallel_for under schedule perturbation: every event a batch causes —
  // the done notify included — must land in that batch's session.  The
  // sessions alternate between two pools, so a notify that strays into the
  // next session meets no wait on its condvar there and is flagged.
  gpusim::ThreadPool pools[2] = {gpusim::ThreadPool(3),
                                 gpusim::ThreadPool(3)};
  CheckConfig config;
  config.schedule_seed = 0x9001ULL;
  for (int session = 0; session < 200; ++session) {
    std::atomic<long> sum{0};
    const Report report = run_session(config, [&] {
      pools[session % 2].parallel_for(16, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
    });
    ASSERT_EQ(sum.load(), 16 * 15 / 2);
    ASSERT_TRUE(report.clean()) << "session " << session << ": "
                                << report.summary();
  }
}

TEST(ThreadcheckStack, ParallelSpmvRunsClean) {
  // The nnz-balanced row partition needs no locks: disjoint writes plus the
  // join edge.  The recorded ranges must prove exactly that.
  Rng rng(0x5eedULL);
  const sparse::CsrF64 A = sparse::random_csr(
      rng, 200, 80, 8.0, sparse::RandomStructure::kSkewed);
  const std::vector<double> x(80, 1.0);
  std::vector<double> y(200, 0.0);
  const Report report = run_session(
      {}, [&] { sparse::parallel_spmv(A, x, y, 4); });
  EXPECT_TRUE(report.clean()) << report.summary();

  std::vector<double> want(200, 0.0);
  sparse::reference_spmv(A, x, want);
  EXPECT_EQ(y, want);
}

TEST(ThreadcheckStack, ShardedServiceRunsClean) {
  // The full sharded serving tier under instrumentation: router lock, shard
  // locks, engine-cache locks, worker condvars, and concurrent clients.
  // Clean means no race, no lock-order cycle (router -> shard only), no
  // condvar lint, and no lock held across compute.
  const Report report = run_session({}, [&] {
    service::ShardedServiceConfig config;
    config.shards = 2;
    config.replication = 2;
    config.shard.workers = 2;
    config.shard.batch_cap = 4;
    config.shard.flush_deadline_ms = 0.5;
    config.shard.engine_cache_capacity = 2;
    config.shard.engine.device = gpusim::make_a100();
    config.shard.engine.backend = kernels::DoseEngine::Backend::kNative;
    service::ShardedDoseService sharded(config);
    Rng rng(0x7a5eedULL);
    const sparse::CsrF64 matrix = sparse::random_csr(
        rng, 200, 60, 8.0, sparse::RandomStructure::kSkewed);
    sharded.register_plan("whole", [matrix] { return matrix; });
    sharded.register_plan_sliced("sliced", [matrix] { return matrix; }, 2);

    std::vector<service::Ticket> tickets;
    std::vector<std::thread> clients;
    std::mutex tickets_mu;  // test-local, deliberately uninstrumented
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&sharded, &tickets, &tickets_mu, c] {
        for (int i = 0; i < 8; ++i) {
          service::SubmitOptions options;
          options.priority = i % 2 == 0
                                 ? service::RequestPriority::kInteractive
                                 : service::RequestPriority::kBulk;
          service::Ticket t = sharded.submit(
              (c + i) % 2 == 0 ? "whole" : "sliced",
              std::vector<double>(60, 1.0), options);
          std::lock_guard<std::mutex> lock(tickets_mu);
          tickets.push_back(std::move(t));
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    sharded.drain();
    for (service::Ticket& t : tickets) {
      EXPECT_EQ(t.result.get().status, service::RequestStatus::kOk);
    }
  });
  EXPECT_TRUE(report.clean()) << report.summary();
}

// ---------------------------------------------------------------------------
// Caps, determinism, env plumbing, perturbation
// ---------------------------------------------------------------------------

TEST(ThreadcheckCaps, FindingCapCountsSuppressed) {
  SharedState<int> first{"fixture.cap_a"};
  SharedState<int> second{"fixture.cap_b"};
  CheckConfig config;
  config.max_findings = 1;
  const Report report = run_session(config, [&] {
    auto work = [&] {
      ++first.write();
      ++second.write();
    };
    sequenced_threads(work, work);
  });
  EXPECT_EQ(report.findings.size(), 1u) << report.summary();
  EXPECT_EQ(report.suppressed, 1u) << report.summary();
  EXPECT_FALSE(report.clean());
}

TEST(ThreadcheckCaps, EventCapCountsDropped) {
  Mutex mu{"fixture.eventcap.mu"};
  CheckConfig config;
  config.max_events = 6;
  const Report report = run_session(config, [&] {
    for (int i = 0; i < 50; ++i) {
      std::lock_guard<Mutex> lock(mu);
    }
  });
  EXPECT_EQ(report.events, 6u);
  EXPECT_EQ(report.events_dropped, 94u);  // 50 lock/unlock pairs minus 6
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckReport, AnalyzeIsDeterministicAndNonDestructive) {
  SharedState<int> counter{"fixture.repeat"};
  threadcheck::reset();
  threadcheck::enable({});
  sequenced_threads([&] { ++counter.write(); }, [&] { ++counter.write(); });
  threadcheck::disable();
  const Report first = threadcheck::analyze();
  const Report second = threadcheck::analyze();
  EXPECT_EQ(first.summary(), second.summary());
  EXPECT_EQ(first.findings.size(), 1u);
  EXPECT_EQ(first.events, second.events);
}

TEST(ThreadcheckEnv, ParsesActivationAndSeed) {
  const char* prev_on = std::getenv("PROTONDOSE_THREADCHECK");
  const std::string saved_on = prev_on == nullptr ? "" : prev_on;
  const char* prev_seed = std::getenv("PROTONDOSE_THREADCHECK_SEED");
  const std::string saved_seed = prev_seed == nullptr ? "" : prev_seed;

  for (const char* truthy : {"1", "true", "on", "yes"}) {
    setenv("PROTONDOSE_THREADCHECK", truthy, 1);
    EXPECT_TRUE(threadcheck::env_enabled()) << truthy;
  }
  for (const char* falsy : {"0", "off", "", "2"}) {
    setenv("PROTONDOSE_THREADCHECK", falsy, 1);
    EXPECT_FALSE(threadcheck::env_enabled()) << falsy;
  }
  unsetenv("PROTONDOSE_THREADCHECK");
  EXPECT_FALSE(threadcheck::env_enabled());

  setenv("PROTONDOSE_THREADCHECK_SEED", "42", 1);
  EXPECT_EQ(threadcheck::env_schedule_seed(), 42u);
  unsetenv("PROTONDOSE_THREADCHECK_SEED");
  EXPECT_EQ(threadcheck::env_schedule_seed(), 0u);

  if (prev_on != nullptr) {
    setenv("PROTONDOSE_THREADCHECK", saved_on.c_str(), 1);
  }
  if (prev_seed != nullptr) {
    setenv("PROTONDOSE_THREADCHECK_SEED", saved_seed.c_str(), 1);
  }
}

TEST(ThreadcheckPerturb, SeededRunPerturbsDeterministically) {
  // The yield/sleep decisions are a pure function of (seed, thread, op
  // count): a seeded single-threaded run must perturb (the decisions fire)
  // yet compute the exact same result — the OS has nothing to reorder.
  Mutex mu{"fixture.perturb.mu"};
  int counter = 0;
  CheckConfig config;
  config.schedule_seed = 0x5eedULL;
  const Report report = run_session(config, [&] {
    for (int i = 0; i < 2000; ++i) {
      std::lock_guard<Mutex> lock(mu);
      ++counter;
    }
  });
  EXPECT_EQ(counter, 2000);
  EXPECT_GT(report.perturbations, 0u);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ThreadcheckPerturb, ZeroSeedNeverPerturbs) {
  Mutex mu{"fixture.noperturb.mu"};
  const Report report = run_session({}, [&] {
    for (int i = 0; i < 2000; ++i) {
      std::lock_guard<Mutex> lock(mu);
    }
  });
  EXPECT_EQ(report.perturbations, 0u);
}

TEST(ThreadcheckReport, KindNamesAndSummary) {
  EXPECT_STREQ(threadcheck::finding_kind_name(FindingKind::kDataRace),
               "data-race");
  EXPECT_STREQ(threadcheck::finding_kind_name(FindingKind::kLockInversion),
               "lock-inversion");
  EXPECT_STREQ(
      threadcheck::finding_kind_name(FindingKind::kUnpredicatedWait),
      "unpredicated-wait");
  EXPECT_STREQ(
      threadcheck::finding_kind_name(FindingKind::kNotifyWithoutWaiters),
      "notify-without-waiters");
  EXPECT_STREQ(
      threadcheck::finding_kind_name(FindingKind::kLockHeldAcrossCompute),
      "lock-held-across-compute");

  SharedState<int> counter{"fixture.summary"};
  const Report report = run_session({}, [&] {
    sequenced_threads([&] { ++counter.write(); }, [&] { ++counter.write(); });
  });
  EXPECT_NE(report.summary().find("data-race"), std::string::npos)
      << report.summary();
  EXPECT_NE(report.summary().find("fixture.summary"), std::string::npos);
}

}  // namespace
}  // namespace pd
