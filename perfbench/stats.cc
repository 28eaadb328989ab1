#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];  // a miss is in the range
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t SamplesForQuantile(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

bool RungMeetsLimit(const Rung& rung, double limit_s, double q) {
  for (const std::vector<double>* cls : {&rung.decide_s, &rung.predict_s}) {
    if (!cls->empty() && Quantile(*cls, q) > limit_s) {
      return false;
    }
  }
  return rung.drain_s <= limit_s;
}

double MaxRateAtLimit(const std::vector<Rung>& rungs, double limit_s,
                      double q) {
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (RungMeetsLimit(rung, limit_s, q)) {
      best = std::max(best, rung.rate_per_s);
    }
  }
  return best;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double duration_s, double predict_share) {
  head::Rng rng(seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / rate_per_s;
    if (t >= duration_s) break;
    arrivals.push_back({t, rng.Uniform(0.0, 1.0) < predict_share});
  }
  return arrivals;
}

}  // namespace perfbench
