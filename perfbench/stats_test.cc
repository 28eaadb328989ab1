#include "stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  // Python: statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
  // = [1.75, 2.5, 3.25].
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.50), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
}

TEST(QuantileTest, MissesSortLastAndOnlyReachTheTail) {
  std::vector<double> v(99, 1.0);
  v.push_back(kInf);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.98), 1.0);
  // Rank 98.01 interpolates toward the miss, so the p99 is a miss.
  EXPECT_TRUE(std::isinf(Quantile(v, 0.99)));
}

TEST(SampleRuleTest, TenSamplesBeyondTheQuantile) {
  EXPECT_EQ(SamplesForQuantile(0.5), 20u);
  EXPECT_EQ(SamplesForQuantile(0.9), 100u);
  EXPECT_EQ(SamplesForQuantile(0.95), 200u);
  EXPECT_EQ(SamplesForQuantile(0.99), 1000u);
}

Rung MakeRung(double rate, double decide_latency_s, double predict_latency_s,
              size_t n, double drain_s) {
  Rung rung;
  rung.rate_per_s = rate;
  rung.decide_s.assign(n, decide_latency_s);
  rung.predict_s.assign(n, predict_latency_s);
  rung.drain_s = drain_s;
  return rung;
}

TEST(LadderTest, PicksTheHighestRateThatMeetsTheLimit) {
  const double limit = 0.010;
  const std::vector<Rung> rungs = {
      MakeRung(1000, 0.001, 0.002, 1000, 0.001),
      MakeRung(2000, 0.002, 0.008, 1000, 0.002),
      MakeRung(4000, 0.003, 0.050, 1000, 0.300),  // predict blows the limit
  };
  EXPECT_DOUBLE_EQ(MaxRateAtLimit(rungs, limit, 0.99), 2000.0);
  EXPECT_DOUBLE_EQ(MaxRateAtLimit({rungs[2]}, limit, 0.99), 0.0);
}

TEST(LadderTest, AFailedRequestCountsAsAMiss) {
  Rung rung = MakeRung(1000, 0.001, 0.001, 1000, 0.001);
  ASSERT_TRUE(RungMeetsLimit(rung, 0.010, 0.99));
  // Twenty failed decide requests (rejected, expired or errored) out of
  // 1020 put the p99 on a miss even though every served reply was fast.
  for (int i = 0; i < 20; ++i) rung.decide_s.push_back(kInf);
  EXPECT_FALSE(RungMeetsLimit(rung, 0.010, 0.99));
  EXPECT_DOUBLE_EQ(MaxRateAtLimit({rung}, 0.010, 0.99), 0.0);
}

TEST(LadderTest, AGrowingBacklogFailsTheRung) {
  const Rung rung = MakeRung(1000, 0.001, 0.001, 1000, /*drain_s=*/0.5);
  EXPECT_FALSE(RungMeetsLimit(rung, 0.010, 0.99));
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const std::vector<Arrival> a = PoissonSchedule(42, 5000.0, 1.0, 0.2);
  const std::vector<Arrival> b = PoissonSchedule(42, 5000.0, 1.0, 0.2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].predict, b[i].predict);
  }
  const std::vector<Arrival> c = PoissonSchedule(43, 5000.0, 1.0, 0.2);
  EXPECT_NE(a.front().due_s, c.front().due_s);
}

TEST(PoissonScheduleTest, RateAndMixMatchTheRequest) {
  const std::vector<Arrival> a = PoissonSchedule(7, 10000.0, 2.0, 0.25);
  // 20000 expected arrivals; Poisson sd ~141.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 700.0);
  size_t predicts = 0;
  double prev = 0.0;
  for (const Arrival& arrival : a) {
    EXPECT_GT(arrival.due_s, prev);
    EXPECT_LT(arrival.due_s, 2.0);
    prev = arrival.due_s;
    predicts += arrival.predict ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(predicts) / a.size(), 0.25, 0.02);
}

}  // namespace
}  // namespace perfbench
