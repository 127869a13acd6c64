#pragma once
// Measurement arithmetic of the benchmark: percentiles, the open-loop
// arrival schedule, due-time latency and the popularity law.  It depends on
// nothing from the library, so the inputs a seed produces stay the same
// whatever the library's own random streams do, and test_measure.cpp can
// check it in isolation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double s_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank percentile, p in [0, 100]: the smallest sample with at
/// least p% of the samples at or below it.  0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Seeded uniform stream with a fixed, implementation-independent mapping
/// from seed to values.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : gen_(seed) {}
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n), n > 0.
  std::uint64_t index(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::mt19937_64 gen_;
};

/// Due times (seconds after the window opens) of a Poisson arrival process
/// with `rate` arrivals per second, cut at `seconds`.
inline std::vector<double> poisson_schedule(Stream& rng, double rate,
                                            double seconds) {
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// Open-loop request latency: from when the request was due, not from when
/// the generator got round to sending it, so a stall anywhere is charged to
/// every request scheduled behind it.
inline double due_latency_ms(Clock::time_point due, Clock::time_point done) {
  return ms_between(due, done);
}

/// Zipf popularity over ranks 0..n-1 with exponent s, as a cumulative table
/// for draw_rank.
inline std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

inline std::size_t draw_rank(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(cdf.size() - 1,
                               static_cast<std::size_t>(it - cdf.begin()));
}

}  // namespace perfbench
