// Self-test of the benchmark's measurement arithmetic (measure.hpp): the
// percentile definition, the Poisson arrival schedule and the due-time
// latency that charges a stall to the requests behind it.  run.py runs it
// after every build, before any measurement.

#include <gtest/gtest.h>

#include <numeric>

#include "measure.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, IgnoresInputOrder) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(median(v), 3.0);
  EXPECT_EQ(percentile(v, 80), 4.0);
  EXPECT_EQ(percentile(v, 81), 5.0);
}

TEST(Percentile, P99NeedsTheTail) {
  // 1000 samples: p99 is the 990th smallest, so ten samples lie beyond it.
  std::vector<double> v(1000, 1.0);
  for (std::size_t i = 990; i < 1000; ++i) v[i] = 100.0;
  EXPECT_EQ(percentile(v, 99), 1.0);
  v[989] = 50.0;
  EXPECT_EQ(percentile(v, 99), 50.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  Stream a(42), b(42), c(43);
  const auto sa = poisson_schedule(a, 200.0, 5.0);
  EXPECT_EQ(sa, poisson_schedule(b, 200.0, 5.0));
  EXPECT_NE(sa, poisson_schedule(c, 200.0, 5.0));
}

TEST(PoissonSchedule, SortedInsideTheWindowAtTheRate) {
  Stream rng(7);
  const double rate = 500.0, seconds = 40.0;
  const auto due = poisson_schedule(rng, rate, seconds);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GT(due.front(), 0.0);
  EXPECT_LT(due.back(), seconds);
  // Count ~ Poisson(20000): sd ~141, so 5% is > 7 sd.
  EXPECT_NEAR(static_cast<double>(due.size()), rate * seconds,
              0.05 * rate * seconds);
  // Exponential gaps: mean 1/rate, coefficient of variation ~1.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < due.size(); ++i) gaps.push_back(due[i] - due[i - 1]);
  const double mean = std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                      static_cast<double>(gaps.size());
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 1.0 / rate, 0.05 / rate);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(DueLatency, StallIsChargedToRequestsBehindIt) {
  // Four requests due 1 ms apart; the server stalls and answers all of them
  // at t = 10 ms.  Timed from the send (which a late generator delays too)
  // the stall would look like a few ms; timed from the due time every
  // request carries the wait it was made to suffer.
  const Clock::time_point t0{};
  const auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  const Clock::time_point done = at(10.0);
  std::vector<double> lat;
  for (const double due_ms : {0.0, 1.0, 2.0, 3.0}) {
    lat.push_back(due_latency_ms(at(due_ms), done));
  }
  EXPECT_NEAR(lat[0], 10.0, 1e-6);
  EXPECT_NEAR(lat[3], 7.0, 1e-6);
  EXPECT_NEAR(percentile(lat, 50), 8.0, 1e-6);  // nearest rank: 2nd of 4
}

TEST(Zipf, RanksFollowTheLaw) {
  const auto cdf = zipf_cdf(6, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  Stream rng(3);
  std::vector<int> hits(6, 0);
  for (int i = 0; i < 60000; ++i) ++hits[draw_rank(cdf, rng.uniform())];
  // p(rank k) ∝ 1/(k+1): rank 0 twice rank 1, three times rank 2.
  EXPECT_NEAR(static_cast<double>(hits[0]) / hits[1], 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(hits[0]) / hits[2], 3.0, 0.15);
  EXPECT_EQ(draw_rank(cdf, 0.0), 0u);
  EXPECT_EQ(draw_rank(cdf, 0.999999), 5u);
}

}  // namespace
}  // namespace perfbench
