// plan-robust: the paper's clinical loop.  Worst-case RobustPlanOptimizer
// on Liver 1 with the nominal scenario and four ±3 mm setup shifts, a fixed
// iteration count and library-default engines; no service involved.  Each
// repetition constructs a fresh optimizer (its constructor is the set-up)
// and runs optimize() once, so every repetition pays the same lazy
// transpose builds a real plan does.

#include <bit>
#include <sstream>

#include "bench.hpp"
#include "cases/cases.hpp"
#include "gpusim/device.hpp"
#include "opt/robust.hpp"
#include "sparse/reference.hpp"

namespace perfbench {
namespace {

constexpr double kPlanSloMs = 15000.0;
/// Native threads of the optimizer's engines: half of a 4-vCPU host, so a
/// neighbour taking one vCPU does not stall every parallel product.  In
/// single runs beside one competing busy thread, optimize() took about 30%
/// longer at the library default of all hardware threads, and no longer at
/// two threads.
constexpr unsigned kPlanThreads = 2;
/// Optimizations a run makes at least, past --seconds if need be.
/// latency_p99_ms over so few is their slowest, not a tail estimate; this
/// workload is exempt from kMinLatencySamples.
constexpr std::size_t kMinPlanSamples = 5;

/// The optimizer's trajectory on the fixed case: a run whose optimize()
/// disagrees in any of these changed what the optimizer computes.
constexpr unsigned kExpectedIterations = kPlanIterations;
constexpr std::uint64_t kExpectedSpmv = 505;
constexpr std::uint64_t kExpectedObjectiveBits = 0x40a940c91609cf2dull;

}  // namespace

RunResult run_plan_robust(const Options& opt, Tracer& tracer) {
  const std::vector<pd::sparse::CsrF64> scenarios =
      load_liver1_scenarios(opt.work_dir + "/inputs");
  const auto def = pd::cases::liver_case(kScale);
  const auto phantom = pd::cases::build_phantom(def);
  std::vector<double> probe(scenarios[0].num_rows);
  pd::sparse::reference_spmv(scenarios[0], std::vector<double>(scenarios[0].num_cols, 1.0),
                             probe);
  const double max_dose = *std::max_element(probe.begin(), probe.end());
  const auto goals =
      pd::opt::DoseObjective::standard_goals(phantom, 0.5 * max_dose, 0.2 * max_dose);
  pd::opt::RobustConfig cfg;
  cfg.mode = pd::opt::RobustMode::kWorstCase;
  cfg.max_iterations = kPlanIterations;
  cfg.native_threads = kPlanThreads;

  const auto window = [&](Tracer& tr) {
    RunResult r;
    std::vector<double> setup_s, plan_s, latency_ms, setup_seconds, lazy_s;
    std::uint64_t within_slo = 0;
    pd::opt::RobustResult last;
    const auto start = Clock::now();
    do {
      std::vector<pd::sparse::CsrF64> copies = scenarios;  // matrices in memory
      ++r.attempted;
      try {
        const auto t0 = Clock::now();
        pd::opt::RobustPlanOptimizer optimizer(std::move(copies), goals,
                                               pd::gpusim::make_a100(), cfg);
        const auto t1 = Clock::now();
        last = optimizer.optimize();
        const auto t2 = Clock::now();
        tr.span("optimizer_ctor", "opt", t0, t1);
        tr.span("optimize", "opt", t1, t2);
        setup_s.push_back(s_between(t0, t1));
        plan_s.push_back(s_between(t1, t2));
        latency_ms.push_back(ms_between(t0, t2));
        within_slo += latency_ms.back() <= kPlanSloMs ? 1 : 0;
        setup_seconds.push_back(last.setup_seconds);
        lazy_s.push_back(last.setup_seconds - setup_s.back());
      } catch (const std::exception& e) {
        ++r.failed;
        r.errors.push_back(std::string("optimizer failed: ") + e.what());
        return r;
      }
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(last.objective_history.back());
      if (last.iterations != kExpectedIterations || last.spmv_count != kExpectedSpmv ||
          bits != kExpectedObjectiveBits) {
        std::ostringstream os;
        os << "optimizer trajectory changed: iterations " << last.iterations << " (want "
           << kExpectedIterations << "), spmv_count " << last.spmv_count << " (want "
           << kExpectedSpmv << "), objective bits 0x" << std::hex << bits << " (want 0x"
           << kExpectedObjectiveBits << ")";
        r.errors.push_back(os.str());
      }
    } while (s_between(start, Clock::now()) < opt.seconds || plan_s.size() < kMinPlanSamples);

    // spmv_count is fixed (checked above), so dose_per_s is a function of
    // plan_s, and the latencies are constructor plus optimize() times: none
    // of them is a signal independent of plan_s and setup_s.
    r.e2e["dose_per_s"] = {static_cast<double>(kExpectedSpmv) / median(plan_s), "1/s"};
    r.e2e["latency_p50_ms"] = {percentile(latency_ms, 50), "ms"};
    r.layer["latency_p99_ms"] = {percentile(latency_ms, 99), "ms"};
    r.e2e["slo_frac"] = {static_cast<double>(within_slo) / static_cast<double>(r.attempted),
                         "fraction"};
    r.e2e["plan_s"] = {median(plan_s), "s"};
    r.e2e["setup_s"] = {median(setup_s), "s"};
    r.e2e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};

    Metrics& m = r.layer;
    m["fail_frac"] = {static_cast<double>(r.failed) / static_cast<double>(r.attempted), "fraction"};
    m["latency_samples"] = {static_cast<double>(latency_ms.size()), "count"};
    m["opt.iterations"] = {static_cast<double>(last.iterations), "count"};
    m["opt.spmv_count"] = {static_cast<double>(last.spmv_count), "count"};
    m["opt.setup_seconds"] = {median(setup_seconds), "s"};
    m["opt.lazy_build_s"] = {median(lazy_s), "s"};
    m["opt.iter_ms"] = {1000.0 * median(plan_s) / std::max(1u, last.iterations), "ms"};
    mark_bypassed(m, {"service.", "engine_cache.", "shard.", "gen."});
    return r;
  };
  const auto probes = [&](Tracer& tr) {
    return probe_kernels({&scenarios[0]}, scenarios, cfg.native_threads, kChangedFrac, opt.seed, tr);
  };
  // One unmeasured optimization first: the process's first one also pays
  // for growing the heap, which no later plan of a running planner does.
  pd::opt::RobustPlanOptimizer(std::vector<pd::sparse::CsrF64>(scenarios), goals,
                               pd::gpusim::make_a100(), cfg)
      .optimize();
  return measure(opt, tracer, window, probes);
}

}  // namespace perfbench
