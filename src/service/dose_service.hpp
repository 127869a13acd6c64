#pragma once
// DoseService — concurrent dose serving with adaptive request batching.
//
// The paper's kernel exists to sit inside optimizer loops that fire thousands
// of independent `dose = D · w` requests (§II).  DoseService turns that into
// a many-client service: callers submit(plan, weights) and get a
// future<DoseResult>; a fixed worker pool executes launches over a bounded
// LRU EngineCache; per-request deadlines, cancellation, and queue-depth
// backpressure keep the queue bounded under overload.  Dispatch is
// work-conserving: a free worker launches a non-busy plan's head at once,
// and a BatchQueue coalesces the requests that queued for one plan while its
// previous launch ran (or while every worker was busy) into one
// DoseEngine::compute_batch.  ServiceConfig::flush_deadline_ms opts into
// holding partial batches for batch-mates instead.
//
// Reproducibility contract (§II-D): every request's dose is bitwise
// identical to a sequential DoseEngine::compute of its weights on the same
// matrix — independent of batching width, scheduling order, worker count,
// backend, and cache eviction.  This follows from three enforced properties:
// compute_batch column j is bitwise compute(w_j) (tests/test_native_backend);
// one plan never has two in-flight batches (BatchQueue busy mark), so
// per-plan execution is serial; and rebuilt engines are bit-identical to
// evicted ones (EngineCache header).  tests/test_service.cpp hammers the
// whole stack against fresh sequential engines to pin the contract.
//
// Requests may opt into the engine's fast tier (docs/fast_tier.md) via
// SubmitOptions::tier: those doses are tolerance-grade, not bitwise, and
// ride in tier-uniform batches (BatchQueue::exec_key) whose tier and format
// are passed to compute_batch as a per-call ExecSpec.  The shared engine is
// never reconfigured, so default-tier traffic keeps the bitwise contract
// above untouched.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/threadcheck.hpp"
#include "kernels/dose_engine.hpp"
#include "service/batch_queue.hpp"
#include "service/engine_cache.hpp"
#include "service/stats.hpp"

namespace pd::service {

enum class RequestStatus {
  kOk,               ///< dose holds the result.
  kRejected,         ///< Queue at bound — retry after retry_after_ms.
  kCancelled,        ///< cancel(id) removed it before launch.
  kDeadlineExpired,  ///< Deadline passed while queued.
  kFailed,           ///< Unknown plan, bad weights, engine build failure.
};

const char* to_string(RequestStatus status);

/// Scheduling class of a request (docs/sharding.md): interactive replans
/// outrank the bulk optimizer fleet in BatchQueue plan selection and in the
/// sharded tier's admission control.  Per-plan FIFO order and dose bits are
/// priority-independent — priority only reorders *which plan* launches next.
enum class RequestPriority : std::uint8_t {
  kInteractive = 0,
  kBulk = 1,
};

const char* to_string(RequestPriority priority);

struct DoseResult {
  RequestStatus status = RequestStatus::kFailed;
  std::vector<double> dose;     ///< kOk only.
  std::string error;            ///< kFailed detail.
  double latency_ms = 0.0;      ///< submit -> resolution.
  std::size_t batch_size = 0;   ///< Launch width the request rode in (kOk).
  double retry_after_ms = 0.0;  ///< kRejected hint.
};

struct ServiceConfig {
  unsigned workers = 2;         ///< Worker threads (>= 1).
  std::size_t batch_cap = 8;    ///< Max requests per compute_batch launch.
  std::size_t queue_bound = 256;  ///< Backpressure threshold.
  /// Opt-in hold: a partial batch waits for batch-mates until its head is
  /// this old.  0 (default) launches a non-busy plan's head at once.
  double flush_deadline_ms = 0.0;
  double default_deadline_ms = 0.0;  ///< Per-request default; 0 = none.
  std::size_t engine_cache_capacity = 4;
  EngineParams engine;          ///< How cached engines are constructed.
};

/// Handle returned by submit: the future plus the id cancel() takes.
/// `accepted` is true iff the request was queued; when false the future is
/// already resolved (kRejected / kFailed) — the sharded router reads this to
/// retry a rejected submit on a replica shard without blocking on the future.
struct Ticket {
  std::uint64_t id = 0;
  bool accepted = false;
  std::future<DoseResult> result;
};

/// Shared base state for incremental (submit_delta) requests
/// (docs/delta_engine.md): a dose vector previously computed for `weights`
/// on the plan, plus a small caller-chosen key identifying the base.
/// Requests sharing a key coalesce into one launch (BatchQueue exec_key);
/// each request still updates against its own base copy, so the key is a
/// batching hint, not a correctness requirement.
struct DeltaBase {
  std::uint32_t key = 0;  ///< Caller's base identity, 30 bits used.
  std::vector<double> weights;  ///< Weights the base dose was computed for.
  std::vector<double> dose;     ///< Bitwise-tier dose for those weights.
};

struct DeltaOptions {
  /// Queue-wait deadline in ms; same semantics as SubmitOptions::deadline_ms.
  double deadline_ms = -1.0;
  /// Accuracy contract for the update (docs/delta_engine.md).  kBitwise
  /// keeps the service's reproducibility contract: the result is bitwise
  /// identical to a full submit of the new weights.
  kernels::DoseEngine::DeltaMode mode =
      kernels::DoseEngine::DeltaMode::kBitwise;
  /// Scheduling class (see RequestPriority); bits and per-plan order are
  /// unaffected.
  RequestPriority priority = RequestPriority::kInteractive;
};

struct SubmitOptions {
  /// Queue-wait deadline in ms; < 0 uses ServiceConfig::default_deadline_ms,
  /// 0 disables.  Applies while queued — once a request enters a launch it
  /// always completes.
  double deadline_ms = -1.0;
  /// Accuracy tier for this request (docs/fast_tier.md).  The default keeps
  /// the bitwise reproducibility contract; Tier::kFast trades it for
  /// tolerance-grade dose computed on compressed storage.
  kernels::DoseEngine::Tier tier = kernels::DoseEngine::Tier::kBitwise;
  /// Compressed container for Tier::kFast requests (ignored when bitwise).
  kernels::DoseEngine::FastFormat fast_format =
      kernels::DoseEngine::FastFormat::kRsFormat;
  /// Scheduling class (see RequestPriority); bits and per-plan order are
  /// unaffected.
  RequestPriority priority = RequestPriority::kInteractive;
};

class DoseService {
 public:
  explicit DoseService(ServiceConfig config);
  DoseService(const DoseService&) = delete;
  DoseService& operator=(const DoseService&) = delete;
  /// Drains (flushes partial batches, completes every accepted request),
  /// then joins the workers.
  ~DoseService();

  /// Register a plan before submitting against it.  The source must be
  /// deterministic (see EngineCache) and is re-invoked after cache eviction.
  void register_plan(const std::string& plan, MatrixSource source);

  /// Enqueue one dose request.  Never blocks on compute: over-bound queues
  /// reject immediately (status kRejected + retry_after_ms), unknown plans
  /// fail immediately, and so does any NaN or ±Inf weight, for every tier.
  /// Weight-length validation happens at launch (it needs the engine) and
  /// resolves kFailed without disturbing batch-mates.
  Ticket submit(const std::string& plan, std::vector<double> weights,
                const SubmitOptions& options = {});

  /// Enqueue one incremental dose request: the result is `base->dose`
  /// updated from `base->weights` to `new_weights` (docs/delta_engine.md),
  /// touching only what the weight change reaches.  Requests sharing a
  /// base key coalesce into one launch (a dedicated BatchQueue exec key per
  /// (key, mode), so delta launches never mix with full computes);
  /// deadlines, cancel, backpressure, and drain behave exactly as submit.
  /// A null `base` or a non-finite new or base weight fails immediately;
  /// base/weight length mismatches resolve kFailed at launch without
  /// disturbing batch-mates.
  Ticket submit_delta(const std::string& plan,
                      std::shared_ptr<const DeltaBase> base,
                      std::vector<double> new_weights,
                      const DeltaOptions& options = {});

  /// Remove a *queued* request.  False once it entered a launch (the result
  /// will still arrive), expired, or was never accepted.
  bool cancel(std::uint64_t id);

  /// Flush partial batches and block until every accepted request resolved.
  void drain();

  ServiceStats stats() const;

  /// Requests queued right now — the sharded router's load signal for
  /// least-loaded replica choice and bulk admission (cheap: one lock, no
  /// compute).
  std::size_t queue_depth() const;

  /// The current retry-after backoff hint (the backlog's clearing time the
  /// rejected path reports, never below one launch — see retry_after_hint),
  /// exposed so the sharded tier's admission control can propagate the
  /// saturated shard's own estimate.
  double retry_after_estimate() const;

  /// Age (µs) of the oldest launchable head in this service's queue, or
  /// nullopt when nothing is launchable.  Ages — unlike raw ticks — are
  /// comparable across services with different construction times, which is
  /// what makes this the cross-shard fairness observable
  /// (BatchQueue::oldest_ready_head_tick).
  std::optional<std::uint64_t> oldest_ready_head_age_us() const;

  /// The plan's cached fast-tier TunedConfig (EngineParams::autotune), or
  /// null when the plan was never tuned.  See EngineCache::tuned_config.
  std::shared_ptr<const kernels::TunedConfig> tuned_config(
      const std::string& plan) const {
    return cache_.tuned_config(plan);
  }

  const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    std::promise<DoseResult> promise;
    std::vector<double> weights;
    std::chrono::steady_clock::time_point submitted;
    kernels::DoseEngine::Tier tier = kernels::DoseEngine::Tier::kBitwise;
    kernels::DoseEngine::FastFormat fast_format =
        kernels::DoseEngine::FastFormat::kRsFormat;
    /// Non-null marks a submit_delta request (exec_key-uniform batches keep
    /// delta and full launches apart, so one flag speaks for a whole batch).
    std::shared_ptr<const DeltaBase> delta_base;
    kernels::DoseEngine::DeltaMode delta_mode =
        kernels::DoseEngine::DeltaMode::kBitwise;
  };

  std::uint64_t tick_now() const;
  double elapsed_ms(std::chrono::steady_clock::time_point since) const;
  void worker_loop();
  /// Pop-side of one launch; called with `lock` held, unlocks around the
  /// engine acquire + compute, relocks to publish stats and the busy mark.
  void execute_batch(std::unique_lock<pd::Mutex>& lock,
                     std::vector<QueuedRequest> batch);
  void resolve_expired(std::uint64_t now);
  double retry_after_hint() const;

  ServiceConfig config_;
  EngineCache cache_;
  std::chrono::steady_clock::time_point start_;

  // Instrumented primitives (common/threadcheck.hpp): under
  // PROTONDOSE_THREADCHECK=1 every lock/unlock/wait/notify is recorded for
  // the race / lock-order / condvar / latency passes; disabled they are the
  // std types plus one null test.  Both condvars declare Waiters::kOptional:
  // a degenerate service lifetime (construct, reject, destruct) can finish
  // before any worker reaches its first wait or anyone calls drain(), and
  // notifying then is correct — the lint would misread it as a lost wakeup.
  mutable pd::Mutex mu_{"DoseService.mu"};
  /// Workers: new work / busy cleared.
  pd::CondVar work_cv_{"DoseService.work_cv",
                       pd::CondVar::Waiters::kOptional};
  /// drain(): queue + in-flight empty.
  pd::CondVar drain_cv_{"DoseService.drain_cv",
                        pd::CondVar::Waiters::kOptional};
  BatchQueue queue_;
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  unsigned in_flight_ = 0;
  bool accepting_ = true;
  bool draining_ = false;
  bool stop_ = false;

  // Counters (under mu_).  Latencies of recent kOk completions feed the
  // p50/p99 snapshot; bounded ring so a long-lived service cannot grow it.
  std::uint64_t submitted_ = 0, completed_ = 0, rejected_ = 0, cancelled_ = 0,
                expired_ = 0, failed_ = 0, batches_ = 0, fast_batches_ = 0,
                delta_batches_ = 0;
  std::vector<std::uint64_t> batch_size_counts_;
  std::size_t max_queue_depth_ = 0;
  std::vector<double> latencies_ms_;
  std::size_t latency_next_ = 0;
  double mean_launch_ms_ = 0.0;  ///< EWMA, feeds the retry-after hint.

  std::vector<std::thread> workers_;
};

}  // namespace pd::service
