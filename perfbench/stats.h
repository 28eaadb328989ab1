// Statistics and load-generation helpers of the benchmark: quantiles and
// the sample-count rule behind every reported percentile, the latency-limit
// search over the serve workload's fixed rate ladder, and the seeded Poisson
// arrival schedule. Pure functions, unit-tested in stats_test.cc.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks of the sorted sample — the rule of numpy's default and of Python's
/// statistics.quantiles(method="inclusive"). 0 for an empty sample. +inf
/// entries sort last, so a quantile that reaches them is +inf.
double Quantile(std::vector<double> values, double q);

/// Samples a quantile needs so that at least ten samples lie beyond it:
/// p50 needs 20, p99 needs 1000. A run that reports a p99 from fewer
/// samples fails its checks.
size_t SamplesForQuantile(double q);

/// One fixed rate of the serve ladder, as measured.
struct Rung {
  double rate_per_s = 0.0;
  /// Latencies per request class, timed from each request's due time. A
  /// request that was rejected, expired or failed is recorded as +inf, so
  /// it misses any latency limit.
  std::vector<double> decide_s;
  std::vector<double> predict_s;
  /// From the last scheduled send until the last reply: a service that
  /// keeps up drains within the latency limit, one whose backlog grew
  /// does not.
  double drain_s = 0.0;
};

/// True when both classes meet `limit_s` at `q` (failed requests miss) and
/// the backlog did not grow (drain_s <= limit_s). A class with no requests
/// meets the limit trivially.
bool RungMeetsLimit(const Rung& rung, double limit_s, double q);

/// Highest ladder rate whose rung meets the limit; 0 when none does.
double MaxRateAtLimit(const std::vector<Rung>& rungs, double limit_s,
                      double q);

/// One open-loop arrival: when it is due (seconds from the schedule start)
/// and which class it is.
struct Arrival {
  double due_s = 0.0;
  bool predict = false;
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s); each arrival is a
/// predict request with probability `predict_share`. A pure function of its
/// arguments: the same seed gives the same schedule.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, double predict_share);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
