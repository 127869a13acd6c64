#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cpuid.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "cases/cases.hpp"
#include "common/threadcheck.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simcheck.hpp"
#include "sparse/io.hpp"
#include "sparse/stats.hpp"

namespace perfbench {

// --- tracer -----------------------------------------------------------------

void Tracer::span(const char* name, const char* cat, Clock::time_point start,
                  Clock::time_point end, std::string args) {
  if (!enabled_) return;
  const std::size_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = tids_.emplace(thread, tids_.size() + 1);
  events_.push_back({name, cat,
                     std::chrono::duration<double, std::micro>(start - origin_).count(),
                     std::chrono::duration<double, std::micro>(end - start).count(),
                     it->second, std::move(args)});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
       << std::fixed << std::setprecision(3) << e.ts_us << ",\"dur\":" << e.dur_us
       << ",\"args\":{" << e.args << "}}" << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

// --- inputs -----------------------------------------------------------------

namespace {

std::string slug(std::string s) {
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

/// Read `path`, or produce the matrix and cache it (written to a temporary
/// first, so an interrupted run never leaves a truncated file behind).
template <typename Produce>
pd::sparse::CsrF64 cached(const std::filesystem::path& path, Produce&& produce) {
  if (std::filesystem::exists(path)) return pd::sparse::read_binary_file(path.string());
  std::filesystem::create_directories(path.parent_path());
  pd::sparse::CsrF64 m = produce();
  const std::filesystem::path tmp = path.string() + ".tmp";
  pd::sparse::write_binary_file(tmp.string(), m);
  std::filesystem::rename(tmp, path);
  return m;
}

}  // namespace

std::vector<Plan> load_beams(const std::vector<std::size_t>& indices,
                             const std::string& cache_dir) {
  const auto& table = pd::sparse::paper_table1();
  std::vector<Plan> plans;
  for (const std::size_t i : indices) {
    const bool liver = i < 4;
    const std::size_t beam = liver ? i : i - 4;
    const std::filesystem::path path =
        std::filesystem::path(cache_dir) / (slug(table[i].name) + ".pdsm");
    plans.push_back({table[i].name, cached(path, [&] {
                       const auto def = liver ? pd::cases::liver_case(kScale)
                                              : pd::cases::prostate_case(kScale);
                       const auto phantom = pd::cases::build_phantom(def);
                       return pd::cases::generate_beam(def, phantom, beam).matrix;
                     })});
  }
  return plans;
}

std::vector<pd::sparse::CsrF64> load_liver1_scenarios(const std::string& cache_dir) {
  const std::filesystem::path dir(cache_dir);
  const auto path = [&](std::size_t k) {
    return dir / ("Liver_1_scenario" + std::to_string(k) + ".pdsm");
  };
  constexpr std::size_t kScenarios = 5;
  bool all = true;
  for (std::size_t k = 0; k < kScenarios; ++k) all = all && std::filesystem::exists(path(k));
  if (!all) {
    const auto def = pd::cases::liver_case(kScale);
    const auto phantom = pd::cases::build_phantom(def);
    const auto generated = pd::cases::generate_setup_scenarios(
        def, phantom, 0,
        {{3.0, 0.0, 0.0}, {-3.0, 0.0, 0.0}, {0.0, 0.0, 3.0}, {0.0, 0.0, -3.0}});
    for (std::size_t k = 0; k < kScenarios; ++k) {
      cached(path(k), [&] { return generated[k]; });
    }
  }
  std::vector<pd::sparse::CsrF64> out;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    out.push_back(pd::sparse::read_binary_file(path(k).string()));
  }
  return out;
}

std::vector<double> random_weights(Stream& rng, std::uint64_t n) {
  std::vector<double> w(n);
  for (double& x : w) x = rng.uniform(0.5, 2.0);
  return w;
}

std::vector<double> perturb_weights(Stream& rng, const std::vector<double>& base,
                                    double frac) {
  std::vector<double> w = base;
  const auto n = static_cast<std::uint64_t>(
      std::llround(frac * static_cast<double>(base.size())));
  std::vector<bool> changed(base.size(), false);
  for (std::uint64_t done = 0; done < n;) {
    const std::uint64_t j = rng.index(base.size());
    if (changed[j]) continue;
    changed[j] = true;
    ++done;
    do {
      w[j] = rng.uniform(0.5, 2.0);
    } while (w[j] == base[j]);
  }
  return w;
}

pd::kernels::DoseEngine make_engine(pd::sparse::CsrF64 matrix, unsigned threads) {
  using E = pd::kernels::DoseEngine;
  E engine(std::move(matrix), pd::gpusim::make_a100(), E::Mode::kHalfDouble,
           pd::kernels::kDefaultVectorTpb, pd::kernels::SpmvFamily::kVector,
           E::Backend::kNative);
  engine.set_native_threads(threads);
  return engine;
}

// --- dose checks -------------------------------------------------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void DoseLedger::record(std::uint64_t key, std::vector<double> dose) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& seen = variants_[key];
  for (const auto& v : seen) {
    if (same_bits(v, dose)) return;
  }
  if (seen.size() >= kMaxVariants) {
    ++overflow_;
    return;
  }
  seen.push_back(std::move(dose));
}

std::uint64_t DoseLedger::overflow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflow_;
}

namespace {
constexpr double kUlp53 = 0x1.0p-53;  // kHalfDouble accumulates in double
constexpr double kUlp24 = 0x1.0p-24;  // float SELL storage
}  // namespace

std::vector<double> fast_bound(const pd::sparse::CsrF64& wide,
                               const std::vector<double>& x,
                               pd::kernels::DoseEngine::FastFormat format) {
  using F = pd::kernels::DoseEngine::FastFormat;
  // Quantized containers (rsformat, quantized SELL): per-column
  // scale = col_max/65535, half a step of error, widened to 0.51 because
  // the scale is stored as float.  Float SELL: 2^-24 relative.
  const bool quantized = format == F::kRsFormat || format == F::kSellCsQ;
  std::vector<double> col_err(wide.num_cols, 0.0);
  if (quantized) {
    for (std::size_t k = 0; k < wide.values.size(); ++k) {
      double& e = col_err[wide.col_idx[k]];
      e = std::max(e, std::fabs(wide.values[k]));
    }
    for (double& e : col_err) e = 0.51 * e / 65535.0;
  }
  std::vector<double> bound(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double storage = 0.0, magnitude = 0.0;
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      const double ax = std::fabs(x[wide.col_idx[k]]);
      const double av = std::fabs(wide.values[k]);
      storage += (quantized ? col_err[wide.col_idx[k]] : kUlp24 * av) * ax;
      magnitude += av * ax;
    }
    bound[r] = storage +
               4.0 * static_cast<double>(wide.row_nnz(r)) * kUlp53 * magnitude;
  }
  return bound;
}

std::vector<double> delta_fast_bound(const pd::sparse::CsrF64& wide,
                                     const std::vector<double>& w,
                                     const std::vector<double>& w_new,
                                     const std::vector<double>& base) {
  std::vector<double> bound(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double s_base = 0.0, s_new = 0.0, t_delta = 0.0;
    std::uint64_t m = 0;
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      const std::uint32_t c = wide.col_idx[k];
      const double av = std::fabs(wide.values[k]);
      s_base += av * std::fabs(w[c]);
      s_new += av * std::fabs(w_new[c]);
      if (std::bit_cast<std::uint64_t>(w[c]) != std::bit_cast<std::uint64_t>(w_new[c])) {
        t_delta += av * std::fabs(w_new[c] - w[c]);
        ++m;
      }
    }
    bound[r] = 4.0 * static_cast<double>(wide.row_nnz(r)) * kUlp53 * (s_base + s_new) +
               4.0 * static_cast<double>(m + 1) * kUlp53 * (std::fabs(base[r]) + t_delta);
  }
  return bound;
}

std::string check_within(const std::vector<double>& got,
                         const std::vector<double>& ref,
                         const std::vector<double>& bound) {
  if (got.size() != ref.size()) return "length " + std::to_string(got.size()) +
                                       " != " + std::to_string(ref.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (!(std::fabs(got[r] - ref[r]) <= bound[r])) {
      std::ostringstream os;
      os << "row " << r << ": |" << got[r] << " - " << ref[r] << "| > " << bound[r];
      return os.str();
    }
  }
  return {};
}

// --- host -------------------------------------------------------------------

void reset_peak_rss() {
  // Hand freed heap back first, so an earlier window's leftovers do not
  // count; then (Linux) writing 5 to clear_refs resets VmHWM to the RSS.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string cpu_brand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string isa_flags() {
  std::string s;
  const auto add = [&](const char* name, bool on) {
    if (!on) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  __builtin_cpu_init();
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("f16c", __builtin_cpu_supports("f16c"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
  add("avx512dq", __builtin_cpu_supports("avx512dq"));
  add("avx512cd", __builtin_cpu_supports("avx512cd"));
  add("avx512fp16", __builtin_cpu_supports("avx512fp16"));
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Host describe_host() {
  Host h;
  h.cpu = cpu_brand();
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.isa = isa_flags();
#ifdef __clang__
  h.compiler = std::string("clang ") + __VERSION__;
#else
  h.compiler = std::string("gcc ") + __VERSION__;
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  h.llc_bytes = llc > 0 ? static_cast<std::uint64_t>(llc) : 0;
  return h;
}

std::string Host::json() const {
  std::ostringstream os;
  os << std::setprecision(6) << "{\"cpu\":\"" << json_escape(cpu) << "\",\"nproc\":" << nproc
     << ",\"isa\":\"" << isa << "\",\"compiler\":\"" << json_escape(compiler)
     << "\",\"build_type\":\"" << build_type << "\",\"simcheck\":"
     << (pd::gpusim::simcheck_env_enabled() ? "true" : "false")
     << ",\"threadcheck\":" << (pd::threadcheck::env_enabled() ? "true" : "false")
     << ",\"llc_bytes\":" << llc_bytes << ",\"read_array_bytes\":" << array_bytes
     << ",\"read_gbps_1_thread\":" << read_gbps_1t
     << ",\"read_gbps_all_threads\":" << read_gbps_all
     << ",\"read_ceiling_gbps\":" << ceiling_gbps() << "}";
  return os.str();
}

void measure_read_ceiling(Host& host) {
  constexpr std::uint64_t kFallbackLlc = 256ull << 20;
  const std::uint64_t llc = host.llc_bytes > 0 ? host.llc_bytes : kFallbackLlc;
  const std::size_t words = static_cast<std::size_t>(4 * llc / sizeof(std::uint64_t));
  host.array_bytes = words * sizeof(std::uint64_t);
  std::vector<std::uint64_t> a(words);
  for (std::size_t i = 0; i < words; ++i) a[i] = i;

  std::atomic<std::uint64_t> sink{0};  // the sums' only use: keeps the loop live
  const auto pass = [&](unsigned threads) {
    std::vector<std::thread> pool;
    const auto t0 = Clock::now();
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = words * t / threads, hi = words * (t + 1) / threads;
        std::uint64_t s[8] = {};
        std::size_t i = lo;
        for (; i + 8 <= hi; i += 8) {
          for (int j = 0; j < 8; ++j) s[j] += a[i + j];
        }
        for (; i < hi; ++i) s[0] += a[i];
        std::uint64_t total = 0;
        for (const std::uint64_t x : s) total += x;
        sink += total;
      });
    }
    for (auto& th : pool) th.join();
    return static_cast<double>(host.array_bytes) / s_between(t0, Clock::now()) / 1e9;
  };
  for (int rep = 0; rep < 3; ++rep) {
    host.read_gbps_1t = std::max(host.read_gbps_1t, pass(1));
    host.read_gbps_all = std::max(host.read_gbps_all, pass(host.nproc));
  }
}

std::string build_refusal() {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type ") + PERFBENCH_BUILD_TYPE + " is not Release";
  }
  if (std::string(PERFBENCH_LIB_CONFIGS) != "RELEASE") {
    return std::string("library configurations ") + PERFBENCH_LIB_CONFIGS +
           " are not RELEASE";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (pd::gpusim::simcheck_env_enabled()) return "PROTONDOSE_SIMCHECK is set";
  if (pd::threadcheck::env_enabled()) return "PROTONDOSE_THREADCHECK is set";
  return {};
}

// --- metric catalogue --------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& e2e_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"dose_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"slo_frac", "fraction"},
      {"plan_s", "s"},       {"setup_s", "s"},         {"peak_rss_mib", "MiB"},
  };
  return names;
}

void mark_bypassed(Metrics& layer, std::initializer_list<const char*> prefixes) {
  for (const auto& [name, unit] : layer_metric_names()) {
    for (const char* prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) layer[name] = {0.0, unit};
    }
  }
}

bool higher_is_better(const std::string& e2e_name) {
  return e2e_name == "dose_per_s" || e2e_name == "slo_frac";
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"fail_frac", "fraction"},
        {"latency_samples", "count"},
        {"latency_p99_ms", "ms"},
        {"host.read_ceiling_gbps", "GB/s"},
        {"kernels.bitwise_ms", "ms"},
        {"kernels.bitwise_bytes", "B"},
        {"kernels.bitwise_gbps", "GB/s"},
        {"kernels.bitwise_roof_frac", "fraction"},
        {"kernels.batch8_ms_per_dose", "ms"},
    };
    for (const char* f : {"rsformat", "sellcs", "sellcsq"}) {
      const std::string p = std::string("kernels.fast_") + f;
      n.push_back({p + "_ms", "ms"});
      n.push_back({p + "_gbps", "GB/s"});
      n.push_back({p + "_roof_frac", "fraction"});
    }
    for (const auto& m : std::vector<std::pair<std::string, std::string>>{
             {"kernels.delta_bitwise_ms", "ms"},
             {"kernels.delta_fast_ms", "ms"},
             {"kernels.engine_build_ms", "ms"},
             {"kernels.fast_build_ms", "ms"},
             {"kernels.sidecar_build_ms", "ms"},
             {"kernels.tune_ms", "ms"},
             {"kernels.robust_forward_ms", "ms"},
             {"kernels.robust_transpose_ms", "ms"},
             {"sparse.transpose_ms", "ms"},
             {"service.submit_us_p50", "us"},
             {"service.submit_us_p99", "us"},
             {"service.batch_width_mean", "requests"},
             {"service.batches", "count"},
             {"service.fast_batches", "count"},
             {"service.delta_batches", "count"},
             {"service.queue_depth_max", "requests"},
             {"service.rejected", "count"},
             {"service.expired", "count"},
             {"service.failed", "count"},
             {"engine_cache.hits", "count"},
             {"engine_cache.misses", "count"},
             {"engine_cache.evictions", "count"},
             {"engine_cache.hit_frac", "fraction"},
             {"engine_cache.tunes", "count"},
             {"engine_cache.source_ms", "ms"},
             {"shard.routed_max_over_mean", "ratio"},
             {"shard.replica_spills", "count"},
             {"shard.rerouted", "count"},
             {"shard.admission_rejected", "count"},
             {"opt.iterations", "count"},
             {"opt.spmv_count", "count"},
             {"opt.setup_seconds", "s"},
             {"opt.lazy_build_s", "s"},
             {"opt.iter_ms", "ms"},
             {"gen.lag_p99_ms", "ms"},
             {"gen.sent", "count"},
         }) {
      n.push_back(m);
    }
    for (const auto& [name, unit] : e2e_metric_names()) {
      n.push_back({"trace.overhead_" + name, unit});
    }
    return n;
  }();
  return names;
}

}  // namespace perfbench
