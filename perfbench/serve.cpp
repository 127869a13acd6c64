// serve-fleet: the serving stack measured from outside.  The
// benchmark times its own submit calls and the resolution of each future,
// reads the counters ShardedDoseService::stats() returns per shard, and
// checks every served dose after the window against a fresh sequential
// DoseEngine.

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "kernels/tuner.hpp"
#include "service/dose_service.hpp"
#include "service/shard_router.hpp"
#include "service/sharded_service.hpp"

namespace perfbench {
namespace {

using E = pd::kernels::DoseEngine;
using pd::service::DoseResult;
using pd::service::RequestStatus;
using pd::service::ServiceStats;
using pd::service::Ticket;

/// serve-fleet: Poisson arrivals over the six Table I beams.
constexpr double kFleetRate = 60.0;  ///< req/s; why not 2/3 of capacity: README
constexpr double kFleetZipf = 1.1;
constexpr double kFleetFastShare = 0.15;
constexpr double kFleetDeltaShare = 0.15;
constexpr std::size_t kFleetPool = 8;     ///< full-request weights per plan
constexpr std::size_t kFleetDeltas = 8;   ///< delta weight sets per plan
constexpr std::size_t kFleetShards = 2;
/// One worker per shard: with two, the service's four workers plus the
/// client threads outnumber the host's vCPUs, and latency moved with
/// whatever else the host ran.
constexpr unsigned kFleetWorkersPerShard = 1;
constexpr std::size_t kFleetCachePerShard = 3;  ///< each shard's plan share
constexpr double kFleetSloMs = 50.0;  ///< about 5x the median latency
/// The replan optimizer's own step between dose requests (its gradient and
/// line search); without it the session alone keeps its plan busy.
constexpr auto kReplanThink = std::chrono::milliseconds(50);
constexpr std::size_t kReplanPlan = 5;  ///< popularity rank 5 of 0..5
/// A generator this late on 1 send in 100 no longer offers the schedule's load.
constexpr double kMaxGeneratorLagMs = 25.0;

enum Kind : std::uint32_t { kBitwise = 0, kFast = 1, kDeltaBitwise = 2, kDeltaFast = 3 };

const char* kind_name(std::uint32_t k) {
  static const char* names[] = {"bitwise", "fast", "delta_bitwise", "delta_fast"};
  return names[k];
}

std::uint64_t key_of(std::size_t plan, std::uint32_t kind, std::size_t index) {
  return (static_cast<std::uint64_t>(plan) << 32) | (static_cast<std::uint64_t>(kind) << 16) |
         index;
}
std::size_t key_plan(std::uint64_t key) { return key >> 32; }
std::uint32_t key_kind(std::uint64_t key) { return (key >> 16) & 0xffff; }
std::size_t key_index(std::uint64_t key) { return key & 0xffff; }

std::string request_args(std::uint64_t id, const std::string& plan, std::uint32_t kind,
                         const char* status = nullptr) {
  std::ostringstream os;
  os << "\"id\":" << id << ",\"plan\":\"" << plan << "\",\"kind\":\"" << kind_name(kind)
     << "\",\"tier\":\"" << (kind == kFast || kind == kDeltaFast ? "fast" : "bitwise") << "\"";
  if (status != nullptr) os << ",\"status\":\"" << status << "\"";
  return os.str();
}

/// A MatrixSource that copies the plan's matrix and accounts its time.
pd::service::MatrixSource timed_source(const pd::sparse::CsrF64& matrix,
                                       std::atomic<std::int64_t>& ns, Tracer& tracer,
                                       const std::string& plan) {
  return [&matrix, &ns, &tracer, plan] {
    const auto t0 = Clock::now();
    pd::sparse::CsrF64 copy(matrix);
    const auto t1 = Clock::now();
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    tracer.span("matrix_source", "engine_cache", t0, t1, "\"plan\":\"" + plan + "\"");
    return copy;
  };
}

/// Service counters over the window (after minus before).
struct Counters {
  double batches = 0, fast_batches = 0, delta_batches = 0, rejected = 0,
         expired = 0, failed = 0, hits = 0, misses = 0, evictions = 0, tunes = 0,
         batch_requests = 0, queue_depth_max = 0;
  void add(const ServiceStats& s, double sign) {
    batches += sign * s.batches;
    fast_batches += sign * s.fast_batches;
    delta_batches += sign * s.delta_batches;
    rejected += sign * s.rejected;
    expired += sign * s.expired;
    failed += sign * s.failed;
    hits += sign * s.cache.hits;
    misses += sign * s.cache.misses;
    evictions += sign * s.cache.evictions;
    tunes += sign * s.cache.tunes;
    for (std::size_t k = 0; k < s.batch_size_counts.size(); ++k) {
      batch_requests += sign * static_cast<double>(s.batch_size_counts[k] * (k + 1));
    }
    if (sign > 0) queue_depth_max = std::max(queue_depth_max, double(s.max_queue_depth));
  }
  void report(Metrics& m) const {
    m["service.batch_width_mean"] = {batches > 0 ? batch_requests / batches : 0.0, "requests"};
    m["service.batches"] = {batches, "count"};
    m["service.fast_batches"] = {fast_batches, "count"};
    m["service.delta_batches"] = {delta_batches, "count"};
    m["service.queue_depth_max"] = {queue_depth_max, "requests"};
    m["service.rejected"] = {rejected, "count"};
    m["service.expired"] = {expired, "count"};
    m["service.failed"] = {failed, "count"};
    m["engine_cache.hits"] = {hits, "count"};
    m["engine_cache.misses"] = {misses, "count"};
    m["engine_cache.evictions"] = {evictions, "count"};
    m["engine_cache.hit_frac"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction"};
    m["engine_cache.tunes"] = {tunes, "count"};
  }
};

/// What both serve workloads tally per request.
struct Tally {
  std::vector<double> latency_ms;  ///< kOk only, from due (closed loop: sent)
  std::vector<double> submit_us;
  std::vector<double> plan_s;
  std::uint64_t attempted = 0, ok = 0, within_slo = 0;
  Clock::time_point last_done{};

  void resolved(const DoseResult& r, double latency, double slo_ms, Clock::time_point done) {
    ++attempted;
    last_done = std::max(last_done, done);
    if (r.status != RequestStatus::kOk) return;
    ++ok;
    latency_ms.push_back(latency);
    if (latency <= slo_ms) ++within_slo;
  }
  void merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    plan_s.insert(plan_s.end(), o.plan_s.begin(), o.plan_s.end());
    attempted += o.attempted;
    ok += o.ok;
    within_slo += o.within_slo;
    last_done = std::max(last_done, o.last_done);
  }
};

/// `timed` holds the requests the latency metrics describe, `t` every
/// request of the window.
void report_common(RunResult& r, const Tally& timed, const Tally& t,
                   const std::vector<double>& setups, Clock::time_point start,
                   double source_ms) {
  const double window_s = s_between(start, t.last_done);
  r.attempted = t.attempted;
  r.failed = t.attempted - t.ok;
  r.e2e["dose_per_s"] = {window_s > 0 ? static_cast<double>(t.ok) / window_s : 0.0, "1/s"};
  r.e2e["latency_p50_ms"] = {percentile(timed.latency_ms, 50), "ms"};
  r.layer["latency_p99_ms"] = {percentile(timed.latency_ms, 99), "ms"};
  r.e2e["slo_frac"] = {timed.attempted > 0
                           ? static_cast<double>(timed.within_slo) / timed.attempted
                           : 0.0,
                       "fraction"};
  r.e2e["plan_s"] = {median(t.plan_s), "s"};
  r.e2e["setup_s"] = {median(setups), "s"};
  r.e2e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  r.layer["fail_frac"] = {t.attempted > 0 ? static_cast<double>(r.failed) / t.attempted : 0.0,
                          "fraction"};
  r.layer["latency_samples"] = {static_cast<double>(timed.latency_ms.size()), "count"};
  r.layer["service.submit_us_p50"] = {percentile(t.submit_us, 50), "us"};
  r.layer["service.submit_us_p99"] = {percentile(t.submit_us, 99), "us"};
  r.layer["engine_cache.source_ms"] = {source_ms, "ms"};
  mark_bypassed(r.layer, {"opt."});
  if (timed.latency_ms.size() < kMinLatencySamples) {
    r.errors.push_back("only " + std::to_string(timed.latency_ms.size()) +
                       " latency samples; p99 needs " + std::to_string(kMinLatencySamples));
  }
  if (t.ok == 0 || t.plan_s.empty()) r.errors.push_back("no plan completed in the window");
}

/// One plan's check inputs: weights by key index.
struct PlanCheck {
  const pd::sparse::CsrF64* matrix = nullptr;
  const std::vector<std::vector<double>>* full = nullptr;    ///< kBitwise / kFast
  const std::vector<std::vector<double>>* deltas = nullptr;  ///< delta new weights
  const std::vector<double>* base_w = nullptr;
  std::vector<double> base_dose;
};

/// Every recorded dose against a fresh sequential engine: bitwise kinds
/// bit-identical, fast kinds within the derived bounds.
void check_ledger(const DoseLedger& ledger, const std::vector<PlanCheck>& plans,
                  std::vector<std::string>& errors) {
  if (ledger.overflow() > 0) {
    errors.push_back(std::to_string(ledger.overflow()) +
                     " doses dropped: more distinct results per input than the ledger keeps");
  }
  const auto& variants = ledger.variants();
  std::size_t current = SIZE_MAX;
  std::unique_ptr<E> oracle;
  pd::sparse::CsrF64 wide;
  E::FastFormat format = E::FastFormat::kRsFormat;
  for (const auto& [key, doses] : variants) {
    const std::size_t p = key_plan(key);
    const PlanCheck& pc = plans[p];
    if (p != current) {
      current = p;
      oracle = std::make_unique<E>(make_engine(pd::sparse::CsrF64(*pc.matrix), 1));
      wide = oracle->stored_matrix_as_double();
      pd::kernels::TuneOptions tune;
      tune.trials = 0;
      format = pd::kernels::autotune_fast_tier(*oracle, tune).format;
    }
    const std::uint32_t kind = key_kind(key);
    const bool delta = kind == kDeltaBitwise || kind == kDeltaFast;
    const std::vector<double>& w = delta ? (*pc.deltas)[key_index(key)] : (*pc.full)[key_index(key)];
    const std::vector<double> ref = oracle->compute(w);
    std::vector<double> bound;
    if (kind == kFast) bound = fast_bound(wide, w, format);
    if (kind == kDeltaFast) bound = delta_fast_bound(wide, *pc.base_w, w, pc.base_dose);
    for (const auto& dose : doses) {
      std::string why;
      if (kind == kBitwise || kind == kDeltaBitwise) {
        if (!same_bits(dose, ref)) why = "not bit-identical to sequential compute";
      } else {
        why = check_within(dose, ref, bound);
      }
      if (!why.empty()) {
        errors.push_back("plan " + std::to_string(p) + " " + kind_name(kind) + " #" +
                         std::to_string(key_index(key)) + ": " + why);
      }
    }
  }
}

/// True once the ticket's future holds its result.
bool ready(Ticket& t) {
  return t.result.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

// --- serve-fleet -------------------------------------------------------------

RunResult run_serve_fleet(const Options& opt, Tracer& tracer) {
  const std::vector<Plan> plans = load_beams({0, 1, 2, 3, 4, 5}, opt.work_dir + "/inputs");
  const std::size_t n = plans.size();

  pd::service::ShardedServiceConfig cfg;
  cfg.shards = kFleetShards;
  cfg.replication = 1;
  cfg.shard.workers = kFleetWorkersPerShard;
  cfg.shard.batch_cap = 8;
  cfg.shard.engine_cache_capacity = kFleetCachePerShard;
  cfg.shard.engine.device = pd::gpusim::make_a100();
  cfg.shard.engine.backend = E::Backend::kNative;
  cfg.shard.engine.native_threads = 1;
  cfg.shard.engine.autotune = true;
  cfg.shard.engine.tune_options.trials = 0;  // byte model: same format every run

  // Plan names whose first-choice shard alternates with popularity rank, so
  // each shard owns three plans, as many as its cache holds.
  std::vector<std::string> names;
  {
    pd::service::ShardRouterConfig rc;
    rc.shards = cfg.shards;
    rc.replication = cfg.replication;
    rc.vnodes = cfg.vnodes;
    const pd::service::ShardRouter router(rc);
    for (std::size_t p = 0; p < n; ++p) {
      std::string base = plans[p].name;
      std::replace(base.begin(), base.end(), ' ', '-');
      for (int k = 0;; ++k) {
        std::string name = base + "." + std::to_string(k);
        if (router.placement(name).front() == p % cfg.shards) {
          names.push_back(std::move(name));
          break;
        }
      }
    }
  }

  // Inputs from the seed: weights, delta sets, and the request schedule.
  Stream rng(opt.seed);
  std::vector<std::vector<std::vector<double>>> full(n), deltas(n);
  std::vector<std::vector<double>> base_w(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint64_t cols = plans[p].matrix.num_cols;
    for (std::size_t i = 0; i < kFleetPool; ++i) full[p].push_back(random_weights(rng, cols));
    base_w[p] = random_weights(rng, cols);
    for (std::size_t i = 0; i < kFleetDeltas; ++i) {
      deltas[p].push_back(perturb_weights(rng, base_w[p], kChangedFrac));
    }
  }
  struct Spec {
    double due_s;
    std::size_t plan;
    std::uint32_t kind;
    std::size_t index;
  };
  std::vector<Spec> schedule;
  {
    const auto zipf = zipf_cdf(n, kFleetZipf);
    for (const double due : poisson_schedule(rng, kFleetRate, opt.seconds)) {
      Spec s{due, draw_rank(zipf, rng.uniform()), kBitwise, 0};
      const double u = rng.uniform();
      if (u < kFleetDeltaShare) {
        s.kind = u < kFleetDeltaShare / 2 ? kDeltaBitwise : kDeltaFast;
        s.index = rng.index(kFleetDeltas);
      } else {
        s.kind = u < kFleetDeltaShare + kFleetFastShare ? kFast : kBitwise;
        s.index = rng.index(kFleetPool);
      }
      schedule.push_back(s);
    }
  }

  // One request of the fleet mix: its weights, then the submit call.
  const auto input = [&](std::size_t p, std::uint32_t kind, std::size_t index) {
    return kind == kDeltaBitwise || kind == kDeltaFast ? deltas[p][index] : full[p][index];
  };
  const auto send = [&](pd::service::ShardedDoseService& svc,
                        const std::vector<std::shared_ptr<const pd::service::DeltaBase>>& bases,
                        std::size_t p, std::uint32_t kind, std::vector<double> w) {
    if (kind == kDeltaBitwise || kind == kDeltaFast) {
      pd::service::DeltaOptions o;
      o.mode = kind == kDeltaFast ? E::DeltaMode::kFast : E::DeltaMode::kBitwise;
      return svc.submit_delta(names[p], bases[p], std::move(w), o);
    }
    pd::service::SubmitOptions o;
    if (kind == kFast) {
      o.tier = E::Tier::kFast;
      o.fast_format = E::FastFormat::kAuto;
    }
    return svc.submit(names[p], std::move(w), o);
  };

  const auto window = [&](Tracer& tr) {
    RunResult r;
    DoseLedger ledger;
    std::atomic<std::int64_t> source_ns{0};
    std::vector<double> setups;
    std::vector<std::shared_ptr<const pd::service::DeltaBase>> bases(n);
    std::unique_ptr<pd::service::ShardedDoseService> svc;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
      svc.reset();
      const auto t0 = Clock::now();
      svc = std::make_unique<pd::service::ShardedDoseService>(cfg);
      for (std::size_t p = 0; p < n; ++p) {
        svc->register_plan(names[p], timed_source(plans[p].matrix, source_ns, tr, names[p]));
      }
      std::vector<Ticket> warm;
      for (std::size_t p = 0; p < n; ++p) warm.push_back(svc->submit(names[p], base_w[p]));
      for (std::size_t p = 0; p < n; ++p) {
        DoseResult res = warm[p].result.get();
        if (res.status != RequestStatus::kOk) {
          r.errors.push_back("warm-up dose failed on " + names[p] + ": " + res.error);
          return r;
        }
        auto base = std::make_shared<pd::service::DeltaBase>();
        base->key = static_cast<std::uint32_t>(p);
        base->weights = base_w[p];
        base->dose = std::move(res.dose);
        bases[p] = std::move(base);
      }
      // The fast tier and the delta paths build their own state on first
      // use; that is set-up too, not the first timed request's latency.
      warm.clear();
      for (std::size_t p = 0; p < n; ++p) {
        for (const std::uint32_t kind : {kFast, kDeltaBitwise, kDeltaFast}) {
          warm.push_back(send(*svc, bases, p, kind, input(p, kind, 0)));
        }
      }
      for (std::size_t i = 0; i < warm.size(); ++i) {
        DoseResult res = warm[i].result.get();
        const std::size_t p = i / 3;
        const std::uint32_t kind = kFast + static_cast<std::uint32_t>(i % 3);
        if (res.status != RequestStatus::kOk) {
          r.errors.push_back(std::string("warm-up ") + kind_name(kind) + " dose failed on " +
                             names[p] + ": " + res.error);
          return r;
        }
        ledger.record(key_of(p, kind, 0), std::move(res.dose));
      }
      const auto t1 = Clock::now();
      tr.span("setup", "service", t0, t1);
      setups.push_back(s_between(t0, t1));
    }
    source_ns = 0;
    const pd::service::ShardedServiceStats before = svc->stats();

    struct Pending {
      Ticket ticket;
      Clock::time_point due;
      std::uint64_t key;
    };
    std::mutex mu;
    std::vector<Pending> incoming;
    std::atomic<bool> generator_done{false};
    Tally open, replan;
    std::vector<double> lag_ms, gen_submit_us;

    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(opt.seconds));

    // Collector: stamps each future as it resolves, oldest-due first.
    std::string thread_error;  // first exception from either client thread
    const auto guarded = [&](auto body) {
      return [&, body] {
        try {
          body();
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          if (thread_error.empty()) thread_error = e.what();
        }
      };
    };
    std::thread collector(guarded([&] {
      std::vector<Pending> out;
      std::vector<std::pair<std::uint64_t, std::vector<double>>> arrived;
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(mu);
          for (Pending& p : incoming) out.push_back(std::move(p));
          incoming.clear();
        }
        if (out.empty()) {
          if (generator_done.load()) {
            std::lock_guard<std::mutex> lock(mu);
            if (incoming.empty()) break;
            continue;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        out.front().ticket.result.wait_for(std::chrono::microseconds(200));
        for (Pending& p : out) {
          if (!p.ticket.result.valid() || !ready(p.ticket)) continue;
          const auto done = Clock::now();
          DoseResult res = p.ticket.result.get();
          open.resolved(res, due_latency_ms(p.due, done), kFleetSloMs, done);
          if (tr.enabled()) {
            tr.span("request", "service", p.due, done,
                    request_args(p.ticket.id, names[key_plan(p.key)], key_kind(p.key),
                                 to_string(res.status)));
          }
          if (res.status == RequestStatus::kOk) arrived.emplace_back(p.key, std::move(res.dose));
        }
        out.erase(std::remove_if(out.begin(), out.end(),
                                 [](const Pending& p) { return !p.ticket.result.valid(); }),
                  out.end());
        for (auto& [key, dose] : arrived) ledger.record(key, std::move(dose));
        arrived.clear();
      }
    }));

    // Replan session: one closed-loop optimizer on the least popular plan,
    // so it adds its own patient rather than queueing on the hottest; its
    // 40-request plans, pauses included, give plan_s under fleet load.
    std::thread replanner(guarded([&] {
      std::this_thread::sleep_until(start);
      std::size_t sent = 0;
      while (Clock::now() < end) {
        const auto plan_start = Clock::now();
        unsigned it = 0;
        for (; it < kPlanIterations; ++it) {
          const std::size_t index = sent++ % kFleetPool;
          std::vector<double> w = full[kReplanPlan][index];
          const auto t0 = Clock::now();
          Ticket t = svc->submit(names[kReplanPlan], std::move(w));
          const auto t1 = Clock::now();
          replan.submit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
          DoseResult res = t.result.get();
          const auto done = Clock::now();
          replan.resolved(res, ms_between(t0, done), kFleetSloMs, done);
          if (tr.enabled()) {
            tr.span("request", "replan", t0, done,
                    request_args(t.id, names[kReplanPlan], kBitwise, to_string(res.status)));
          }
          if (res.status == RequestStatus::kOk) {
            ledger.record(key_of(kReplanPlan, kBitwise, index), std::move(res.dose));
          }
          if (done >= end) break;
          std::this_thread::sleep_for(kReplanThink);
        }
        if (it == kPlanIterations) replan.plan_s.push_back(s_between(plan_start, Clock::now()));
      }
    }));

    // Generator (this thread): sends each request at its due time.  Its lag
    // is how late it woke past the due time or the return of the previous
    // submit, whichever is later: time spent blocked inside submit belongs
    // to the service and is charged to latency through the due time.
    Clock::time_point prev_return = start;
    try {
      for (const Spec& s : schedule) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(s.due_s));
        std::vector<double> w = input(s.plan, s.kind, s.index);
        std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        Ticket t = send(*svc, bases, s.plan, s.kind, std::move(w));
        const auto t1 = Clock::now();
        lag_ms.push_back(ms_between(std::max(due, prev_return), t0));
        prev_return = t1;
        gen_submit_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (tr.enabled()) {
          tr.span("submit", "service", t0, t1, request_args(t.id, names[s.plan], s.kind));
        }
        std::lock_guard<std::mutex> lock(mu);
        incoming.push_back({std::move(t), due, key_of(s.plan, s.kind, s.index)});
      }
    } catch (const std::exception& e) {
      r.errors.push_back(std::string("generator: ") + e.what());
    }
    generator_done = true;
    replanner.join();
    collector.join();
    if (!thread_error.empty()) r.errors.push_back(thread_error);
    svc->drain();

    const pd::service::ShardedServiceStats after = svc->stats();
    Counters c;
    for (const auto& s : after.shards) c.add(s, 1.0);
    for (const auto& s : before.shards) c.add(s, -1.0);
    c.report(r.layer);
    // Latency and slo_frac describe the open loop; the replan session adds
    // its doses, its failures and plan_s.
    Tally all = open;
    all.merge(replan);
    all.submit_us.insert(all.submit_us.end(), gen_submit_us.begin(), gen_submit_us.end());
    report_common(r, open, all, setups, start, static_cast<double>(source_ns.load()) / 1e6);
    double routed_max = 0, routed_sum = 0;
    for (std::size_t s = 0; s < after.routed_per_shard.size(); ++s) {
      const double routed = static_cast<double>(after.routed_per_shard[s] - before.routed_per_shard[s]);
      routed_max = std::max(routed_max, routed);
      routed_sum += routed;
    }
    const double routed_mean = routed_sum / static_cast<double>(after.routed_per_shard.size());
    r.layer["shard.routed_max_over_mean"] = {routed_mean > 0 ? routed_max / routed_mean : 0.0, "ratio"};
    r.layer["shard.replica_spills"] = {double(after.replica_spills - before.replica_spills), "count"};
    r.layer["shard.rerouted"] = {double(after.rerouted - before.rerouted), "count"};
    r.layer["shard.admission_rejected"] = {
        double(after.admission_rejected - before.admission_rejected), "count"};
    const double lag_p99 = percentile(lag_ms, 99);
    r.layer["gen.lag_p99_ms"] = {lag_p99, "ms"};
    r.layer["gen.sent"] = {static_cast<double>(schedule.size()), "count"};
    if (lag_p99 > kMaxGeneratorLagMs) {
      std::ostringstream os;
      os << "generator ran late: lag p99 " << lag_p99 << " ms > " << kMaxGeneratorLagMs << " ms";
      r.errors.push_back(os.str());
    }
    svc.reset();
    std::vector<PlanCheck> checks;
    for (std::size_t p = 0; p < n; ++p) {
      checks.push_back({&plans[p].matrix, &full[p], &deltas[p], &base_w[p], bases[p]->dose});
    }
    check_ledger(ledger, checks, r.errors);
    return r;
  };
  const auto probes = [&](Tracer& tr) {
    std::vector<const pd::sparse::CsrF64*> matrices;
    for (const Plan& p : plans) matrices.push_back(&p.matrix);
    return probe_kernels(matrices, {}, 1, kChangedFrac, opt.seed, tr);
  };
  return measure(opt, tracer, window, probes);
}

}  // namespace perfbench
