// Shared pieces of the benchmark's workloads: options, the result record
// every workload fills, the run stamp, clocks and memory probes, the seeded
// HEAD model, and the seeded dense-traffic scene stream that drive runs on
// and serve builds its inputs from.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/head_agent.h"
#include "core/head_config.h"
#include "decision/idm_lc.h"
#include "perception/lst_gat.h"
#include "rl/pdqn_agent.h"
#include "sim/simulation.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run measured and checked. Metrics are keyed by name; run.py
/// selects the end-to-end or the per-layer set for the final JSON line.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output checks that did not hold, one line each.
  std::vector<std::string> check_failures;
  /// Context printed with the result (thread counts, ISA, sizes, ...).
  std::map<std::string, std::string> stamp;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& what) { check_failures.push_back(what); }
};

/// Steady-clock seconds.
double NowS();

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// Median of `values` (copied); 0 when empty.
double Median(const std::vector<double>& values);

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Runs `setup` `times` times, returns the median wall time in seconds.
/// Set-up is repeated so a single slow page-in does not set setup_s.
template <typename Fn>
double MedianSetupSeconds(int times, Fn&& setup) {
  std::vector<double> durations;
  for (int i = 0; i < times; ++i) {
    const double t0 = NowS();
    setup();
    durations.push_back(NowS() - t0);
  }
  return Median(durations);
}

/// Stamps nproc, the pool size the workload runs with, the active kernel
/// ISA, fast_math and the plan mode.
void StampRun(int pool_threads, Result* result);

/// HEAD configured for the dense-traffic road, with LST-GAT and BP-DQN
/// weights drawn from `seed` (no training: the timings do not depend on
/// what the weights learned).
struct HeadModels {
  head::core::HeadConfig config;
  std::shared_ptr<head::perception::LstGat> predictor;
  std::shared_ptr<head::rl::PdqnAgent> agent;
};
HeadModels MakeHeadModels(const head::sim::SimConfig& sim, uint64_t seed);

/// The scenario every scene comes from.
head::sim::SimConfig DriveScenario();

/// A simulation observed through the ego's sensor. Advanced with the IDM-LC
/// baseline's maneuver, the sequence of scenes is a function of the seed
/// alone. Episodes that end restart with the next seed of the stream.
class SceneStream {
 public:
  SceneStream(const head::sim::SimConfig& sim, uint64_t seed);

  /// The current view (sensor::Observe on the current global snapshot).
  const head::decision::EgoView& view() const { return view_; }
  /// The maneuver the baseline applies for the current view.
  head::Maneuver BaselineManeuver();
  /// Applies `maneuver`, observes the next scene. Returns true when the
  /// episode ended and a new one started.
  bool Advance(const head::Maneuver& maneuver);
  /// Same as Advance, timing the simulation step and the observation.
  bool AdvanceTimed(const head::Maneuver& maneuver, double* step_s,
                    double* observe_s);

 private:
  void Observe();

  head::sim::SimConfig config_;
  head::sensor::SensorConfig sensor_;
  uint64_t seed_;
  uint64_t episode_ = 0;
  std::unique_ptr<head::sim::Simulation> sim_;
  head::decision::IdmLcPolicy baseline_;
  head::decision::EgoView view_;
};

/// The workloads (drive.cc, serve.cc, train.cc).
Result RunDrive(const Options& options);
Result RunServe(const Options& options);
Result RunTrain(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
