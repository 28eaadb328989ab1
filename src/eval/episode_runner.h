// Runs a decision::Policy through test episodes in the simulator, feeding it
// only sensor observations, and gathers the Table I/II metrics from the
// simulator's ground truth — the one policy/sim episode loop, which also
// records per-step traces and flight-recorder dumps.
#ifndef HEAD_EVAL_EPISODE_RUNNER_H_
#define HEAD_EVAL_EPISODE_RUNNER_H_

#include "decision/policy.h"
#include "eval/metrics.h"
#include "eval/trace.h"
#include "sensor/sensor_model.h"
#include "sim/simulation.h"

namespace head::eval {

struct RunnerConfig {
  sim::SimConfig sim;
  sensor::SensorConfig sensor;
  int episodes = 20;
  uint64_t seed_base = 1000;
  /// A conventional vehicle qualifies as "follower" for AvgDT-C once it is
  /// within this many meters behind the ego.
  double follower_window_m = 100.0;
  /// Followers need at least this many on-road steps for a stable DT-C.
  int min_follower_steps = 20;
  /// Scenario name stamped into flight-recorder episode contexts so a dump
  /// can be replayed (sim::ScenarioByName key; "" = custom config, not
  /// replayable by name). Only used while obs::RecordingEnabled().
  std::string scenario_name;
};

/// Runs one episode from `seed` and returns its record. `episode_index` is
/// recorded in flight-recorder dumps (display only; replay uses the seed).
/// When `trace` is set it receives every step (ego state, maneuver, Eq. 28
/// reward terms, neighborhood) for CSV export and rendering.
EpisodeRecord RunEpisode(decision::Policy& policy, const RunnerConfig& config,
                         uint64_t seed, int episode_index = 0,
                         EpisodeTrace* trace = nullptr);

/// Runs config.episodes episodes (seed_base + k) and aggregates.
AggregateMetrics RunPolicy(decision::Policy& policy,
                           const RunnerConfig& config);

}  // namespace head::eval

#endif  // HEAD_EVAL_EPISODE_RUNNER_H_
