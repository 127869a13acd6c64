#pragma once
// ShardedDoseService — a consistent-hash router above N DoseService shards
// (docs/sharding.md).
//
// One DoseService serves from one engine pool; the sharded tier multiplies
// that by N while keeping the submit/future API and, critically, the §II-D
// contract: every kOk dose — whole-plan or column-slice — is bitwise
// identical to a sequential DoseEngine::compute of the same weights on the
// full plan matrix.  Whole-plan requests inherit the contract from whichever
// shard serves them; sliced requests inherit it from the row-block partition
// (sparse/partition.hpp): y = D·x splits by dose-grid rows with no
// inter-shard reduction, so the merge is an ordered concatenation of slice
// doses — there is nothing to reassociate (same argument as
// bench/ablation_multigpu.cpp, after Tian et al.'s multi-GPU column split).
//
// Scheduling: plans place onto shards by consistent hashing with
// `replication` replicas (ShardRouter); among active replicas the
// least-loaded accepts, a rejected submit spills to the next replica, and a
// drained/stopped shard degrades to rerouting along the ring walk instead of
// failing requests.  Request priorities (interactive replan > bulk
// optimizer fleet) ride through to each shard's BatchQueue plan selection,
// and bulk submits face admission control: once the least-loaded candidate's
// queue passes bulk_admit_fraction of its bound, bulk is rejected with the
// shard's own retry-after EWMA so interactive headroom survives overload.
//
// The router spawns no threads of its own — all concurrency lives inside
// the shards, slice gathers run deferred on the caller's get(), and the
// router's single pd::Mutex (common/threadcheck.hpp) brackets only routing
// state, never compute.  Lock order is strictly router -> shard; shards
// never call back into the router.

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/threadcheck.hpp"
#include "service/dose_service.hpp"
#include "service/shard_router.hpp"

namespace pd::service {

struct ShardedServiceConfig {
  std::size_t shards = 2;
  /// Replica-set size per plan (ShardRouterConfig::replication).
  std::size_t replication = 1;
  /// Ring points per shard (ShardRouterConfig::vnodes).
  std::size_t vnodes = 64;
  /// Bulk admission control: reject RequestPriority::kBulk submits when the
  /// least-loaded candidate shard's queue depth has reached this fraction of
  /// its queue_bound, reserving the headroom for interactive traffic.
  double bulk_admit_fraction = 0.75;
  /// Sliced-request bookkeeping window: cancel() mappings retained for the
  /// most recent N sliced submits (older sliced requests are almost surely
  /// resolved; cancelling one past the window returns false — "too late").
  std::size_t slice_window = 4096;
  /// Per-shard DoseService configuration (workers, caps, engine params...).
  ServiceConfig shard;
};

/// Router-level counters plus per-shard snapshots.  Like ServiceStats this
/// is diagnostic only — nothing feeds back into routing decisions.
struct ShardedServiceStats {
  std::uint64_t submitted = 0;        ///< submit + submit_delta calls.
  std::uint64_t accepted = 0;         ///< Queued on some shard.
  std::uint64_t rejected = 0;         ///< Resolved kRejected at the router.
  std::uint64_t admission_rejected = 0;  ///< ...of which bulk admission.
  std::uint64_t failed_immediate = 0;  ///< Resolved kFailed at submit time.
  std::uint64_t rerouted = 0;         ///< Served outside the replica set.
  std::uint64_t replica_spills = 0;   ///< Not the first-choice candidate.
  std::uint64_t sliced_submits = 0;   ///< Sliced-plan submits attempted.
  std::uint64_t cancels_routed = 0;   ///< cancel() calls forwarded.
  std::vector<std::uint64_t> routed_per_shard;  ///< Accepted, by shard.
  std::vector<ShardHealth> health;
  /// Age (µs) of each shard's oldest launchable head (-1 = none): the
  /// cross-shard fairness observable.  Every consumer is oldest-head-fair
  /// (BatchQueue::oldest_ready_head_tick) and a launchable head waits only
  /// for a free worker, so under steady load no shard's head ages far past
  /// the others'.
  std::vector<double> oldest_head_age_us;
  std::vector<ServiceStats> shards;
};

class ShardedDoseService {
 public:
  explicit ShardedDoseService(ShardedServiceConfig config);
  ShardedDoseService(const ShardedDoseService&) = delete;
  ShardedDoseService& operator=(const ShardedDoseService&) = delete;
  /// Shard destructors drain: every accepted request resolves first.
  ~ShardedDoseService() = default;

  /// Register a whole plan.  The source registers on *every* shard so
  /// health-driven rerouting never meets an unknown plan; only the replica
  /// set actually builds engines under normal routing, so the cost of the
  /// extra registrations is a closure copy, not a matrix.
  void register_plan(const std::string& plan, MatrixSource source);

  /// Register a plan in column-slice mode: the matrix is split into
  /// `slices` contiguous nnz-balanced row blocks (sparse/partition.hpp, the
  /// ablation_multigpu partition) and slice i registers as its own sub-plan
  /// "<plan>#slice<i>/<slices>" routed like any other plan.  A submit
  /// against `plan` then fans out one request per slice and merges the
  /// partial doses in fixed slice order — bitwise identical to single-engine
  /// compute of the full matrix.  Calls source() once, at registration, to
  /// compute the partition.  Requires the vector kernel family (per-row
  /// reduction independence is what makes row blocks bitwise-safe).
  void register_plan_sliced(const std::string& plan, MatrixSource source,
                            std::size_t slices);

  /// Route one dose request (docs/service.md semantics).  Sliced plans fan
  /// out per slice; if any slice is refused the whole request resolves with
  /// that refusal and the accepted slices are cancelled — a sliced result is
  /// never a partial dose.
  Ticket submit(const std::string& plan, std::vector<double> weights,
                const SubmitOptions& options = {});

  /// Route one incremental request (docs/delta_engine.md).  Whole plans
  /// only: sliced plans fail immediately (a delta base holds a full dose,
  /// which no single slice shard can update).
  Ticket submit_delta(const std::string& plan,
                      std::shared_ptr<const DeltaBase> base,
                      std::vector<double> new_weights,
                      const DeltaOptions& options = {});

  /// Remove a queued request.  Whole-plan ids forward to the owning shard.
  /// For a sliced request, every still-queued slice is cancelled; true when
  /// at least one was (the merged result then resolves kCancelled).
  bool cancel(std::uint64_t id);

  /// Drain every shard: flush partial batches, resolve every accepted
  /// request.  Health states are unchanged.
  void drain();

  /// Quiesce one shard: mark it kDraining (new submits reroute immediately),
  /// drain its queue and in-flight batches, then mark it kStopped.  Blocks
  /// until the shard is idle; no accepted request is lost.
  void drain_shard(std::size_t shard);

  /// Return a drained/stopped shard to routing.
  void resume_shard(std::size_t shard);

  ShardHealth shard_health(std::size_t shard) const;

  std::size_t shards() const { return shards_.size(); }
  const ShardedServiceConfig& config() const { return config_; }

  /// The live router (placement inspection for tests and tooling).  Health
  /// mutates under the service lock; treat concurrent reads as advisory.
  const ShardRouter& router() const { return router_; }

  ShardedServiceStats stats() const;

 private:
  struct SlicedPlan {
    std::vector<std::string> sub_plans;      ///< Slice order = merge order.
    std::vector<std::uint64_t> boundaries;   ///< Row partition (diagnostic).
  };
  struct SliceTicket {
    std::size_t shard = 0;
    std::uint64_t inner_id = 0;
  };
  /// Outcome of one routed shard submit attempt.
  struct Routed {
    bool accepted = false;
    std::size_t shard = 0;
    Ticket ticket;          ///< accepted: live inner ticket.
    DoseResult immediate;   ///< !accepted: the already-resolved result.
  };

  template <typename SubmitFn>
  Routed route_submit_locked(const std::string& plan, RequestPriority priority,
                             SubmitFn&& fn);
  Ticket submit_sliced_locked(const SlicedPlan& sliced,
                              const std::vector<double>& weights,
                              const SubmitOptions& options);
  static Ticket resolved_ticket(std::uint64_t id, DoseResult result);
  static std::uint64_t encode_id(std::size_t shard, std::uint64_t inner_id);

  ShardedServiceConfig config_;
  std::vector<std::unique_ptr<DoseService>> shards_;

  // Routing state.  mu_ brackets the router, the sliced-plan table, and the
  // counters; shard calls made under it (submit, cancel, queue_depth) are
  // queue operations, never compute — the lock order is router -> shard with
  // no reverse edge, and drain_shard waits on a shard only after releasing
  // mu_.
  mutable pd::Mutex mu_{"ShardedDoseService.mu"};
  ShardRouter router_;
  std::map<std::string, SlicedPlan> sliced_;
  std::set<std::string> plans_;
  std::map<std::uint64_t, std::vector<SliceTicket>> slice_tickets_;
  std::deque<std::uint64_t> slice_ticket_order_;
  std::uint64_t next_slice_seq_ = 1;

  // Counters (under mu_).
  std::uint64_t submitted_ = 0, accepted_ = 0, rejected_ = 0,
                admission_rejected_ = 0, failed_immediate_ = 0, rerouted_ = 0,
                replica_spills_ = 0, sliced_submits_ = 0, cancels_routed_ = 0;
  std::vector<std::uint64_t> routed_per_shard_;
};

}  // namespace pd::service
