#pragma once
// Shared pieces of the perfbench binary: options, metric records, the span
// tracer, host facts, input production and the dose checks.  Everything
// here calls the library only through its installed public headers.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/dose_engine.hpp"
#include "measure.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// Fixed workload parameters.  Later changes claim gains against these, so
/// they are constants, not options.
inline constexpr double kScale = 1.0;           ///< cases:: scale of every input.
inline constexpr unsigned kSetupReps = 5;       ///< set-ups per run; setup_s is their median.
inline constexpr unsigned kPlanIterations = 40; ///< requests (fleet replan) or iterations per plan.
inline constexpr std::size_t kMinLatencySamples = 1000;  ///< p99 needs >= 10 beyond it.
inline constexpr double kChangedFrac = 0.01;    ///< spots a delta request changes.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build";  ///< input cache and traces.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// Everything one measured window of one workload produced.
struct RunResult {
  Metrics e2e;    ///< end-to-end metrics (names in BENCHMARK.json).
  Metrics layer;  ///< per-layer metrics gathered in the same window.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks; non-empty = no numbers.
};

/// In-memory span recorder written out as Chrome trace-event JSON.  When
/// disabled every call site costs one branch; spans are recorded only
/// around the benchmark's own calls into the library.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  /// `args` is a JSON object body without braces, e.g. "\"id\":3".
  void span(const char* name, const char* cat, Clock::time_point start,
            Clock::time_point end, std::string args = {});
  void write(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    double ts_us;
    double dur_us;
    unsigned tid;
    std::string args;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<std::size_t, unsigned> tids_;
};

/// A served plan: a Table I beam and its name.
struct Plan {
  std::string name;
  pd::sparse::CsrF64 matrix;
};

/// Table I beams by index (0..3 liver, 4..5 prostate) at kScale, generated
/// once and cached under `cache_dir`.
std::vector<Plan> load_beams(const std::vector<std::size_t>& indices,
                             const std::string& cache_dir);

/// Liver 1 nominal plus four ±3 mm setup shifts (x and z), cached likewise.
std::vector<pd::sparse::CsrF64> load_liver1_scenarios(const std::string& cache_dir);

/// Spot weights in [0.5, 2): what an optimizer iterate looks like.
std::vector<double> random_weights(Stream& rng, std::uint64_t n);

/// `base` with round(frac * n) distinct spots redrawn.
std::vector<double> perturb_weights(Stream& rng, const std::vector<double>& base,
                                    double frac);

/// The engine every service in this benchmark builds: native backend,
/// half/double, vector family — the library's serving default.
pd::kernels::DoseEngine make_engine(pd::sparse::CsrF64 matrix, unsigned threads);

/// Served doses by input key.  Keeps one copy of each distinct bit pattern
/// seen for a key (compared with memcmp as results arrive), so every served
/// dose can be checked after the window against a fresh oracle.
class DoseLedger {
 public:
  static constexpr std::size_t kMaxVariants = 8;
  void record(std::uint64_t key, std::vector<double> dose);
  /// Call once every recording thread has finished.
  const std::map<std::uint64_t, std::vector<std::vector<double>>>& variants() const {
    return variants_;
  }
  /// Results dropped because a key already held kMaxVariants patterns.
  std::uint64_t overflow() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::vector<std::vector<double>>> variants_;
  std::uint64_t overflow_ = 0;
};

/// Per-row |fast - bitwise| bound of docs/fast_tier.md, recomputed here from
/// the stored matrix `wide` (half values widened to double).
std::vector<double> fast_bound(const pd::sparse::CsrF64& wide,
                               const std::vector<double>& x,
                               pd::kernels::DoseEngine::FastFormat format);

/// Per-row |delta_fast - full(w_new)| bound of docs/delta_engine.md.
std::vector<double> delta_fast_bound(const pd::sparse::CsrF64& wide,
                                     const std::vector<double>& w,
                                     const std::vector<double>& w_new,
                                     const std::vector<double>& base);

/// Empty when every |got - ref| <= bound, else a description of the worst row.
std::string check_within(const std::vector<double>& got,
                         const std::vector<double>& ref,
                         const std::vector<double>& bound);

bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// Start a new peak-RSS interval (each measured window is its own).
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss (or process start), MiB.
double peak_rss_mib();

/// Host facts and the streaming-read ceiling (measured, after the workload).
struct Host {
  std::string cpu;
  unsigned nproc = 0;
  std::string isa;
  std::string compiler;
  std::string build_type;
  std::uint64_t llc_bytes = 0;
  std::uint64_t array_bytes = 0;
  double read_gbps_1t = 0.0;
  double read_gbps_all = 0.0;
  double ceiling_gbps() const { return std::max(read_gbps_1t, read_gbps_all); }
  std::string json() const;
};

Host describe_host();
/// Multi-accumulator read loop over an array of at least 4x the LLC, one
/// thread and all threads, best of three passes each.
void measure_read_ceiling(Host& host);

/// Why this build must not produce numbers (checked or non-release), or "".
std::string build_refusal();

/// Kernel probe phase (traced runs): calls DoseEngine directly on the
/// workload's plans at `threads`; `scenarios` non-empty adds the robust
/// stack probes.  GB/s figures use computed bytes; roof fractions are filled
/// in by finish_roofline once the ceiling is known.
Metrics probe_kernels(const std::vector<const pd::sparse::CsrF64*>& plans,
                      const std::vector<pd::sparse::CsrF64>& scenarios,
                      unsigned threads, double changed_frac,
                      std::uint64_t seed, Tracer& tracer);
void finish_roofline(Metrics& layer, double ceiling_gbps);

/// Each workload loads its inputs once, then hands `measure` one callable
/// for a measured window and one for the kernel probes.
RunResult run_serve_fleet(const Options& opt, Tracer& tracer);
RunResult run_plan_robust(const Options& opt, Tracer& tracer);

/// True for end-to-end metrics where a larger value is better.
bool higher_is_better(const std::string& e2e_name);

/// An untraced window; for a traced run, a second window under `tracer`
/// (whose per-layer metrics are kept), the probes, and the
/// traced-minus-untraced difference of every end-to-end metric as
/// trace.overhead_<name>, signed so that a positive value is a cost.
template <typename Window, typename Probes>
RunResult measure(const Options& opt, Tracer& tracer, Window&& window,
                  Probes&& probes) {
  Tracer off(false);
  reset_peak_rss();
  RunResult base = window(off);
  if (!opt.trace || !base.errors.empty()) return base;
  reset_peak_rss();
  RunResult traced = window(tracer);
  for (const auto& [name, m] : base.e2e) {
    const double cost = traced.e2e[name].value - m.value;
    traced.layer["trace.overhead_" + name] = {higher_is_better(name) ? -cost : cost,
                                              m.unit};
  }
  for (auto& [name, m] : probes(tracer)) traced.layer[name] = m;
  traced.attempted += base.attempted;
  traced.failed += base.failed;
  traced.errors.insert(traced.errors.end(), base.errors.begin(),
                       base.errors.end());
  return traced;
}

/// Report 0 for every per-layer metric under the given name prefixes: the
/// layers this workload never calls.
void mark_bypassed(Metrics& layer, std::initializer_list<const char*> prefixes);

/// Names and units of what a run reports: every end-to-end metric for an
/// untraced run, every per-layer one for a traced run (0 where the workload
/// bypasses the layer).
const std::vector<std::pair<std::string, std::string>>& e2e_metric_names();
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

}  // namespace perfbench
