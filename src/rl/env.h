// The reinforcement-learning environment: wires the traffic simulation, the
// sensor model, the enhanced perception module and the hybrid reward into
// the PAMDP loop of Sec. IV. Ablation switches reproduce the HEAD variants
// of Table II.
#ifndef HEAD_RL_ENV_H_
#define HEAD_RL_ENV_H_

#include "perception/phantom.h"
#include "perception/predictor.h"
#include "rl/pamdp.h"
#include "rl/reward.h"
#include "sensor/sensor_model.h"
#include "sim/simulation.h"

namespace head::rl {

struct EnvConfig {
  sim::SimConfig sim;
  sensor::SensorConfig sensor;
  perception::FeatureScale scale;
  RewardConfig reward;
  int history_z = 5;           ///< z historical steps (paper Sec. V-A)
  bool use_pvc = true;         ///< phantom construction (off = w/o-PVC)
  bool use_prediction = true;  ///< feed f̂^{t+1} (off = w/o-LST-GAT)
};

/// The enhanced-perception chain of Fig. 1: history push → phantom
/// construction → spatio-temporal graph → LST-GAT prediction → s⁺. Owned by
/// both DrivingEnv (training) and core::HeadAgent (inference), so the state
/// an agent is trained on is built by the same code it is deployed with.
class PerceptionChain {
 public:
  /// `predictor` supplies f̂^{t+1}; null means no prediction (the future
  /// block carries the current states — the w/o-LST-GAT ablation).
  PerceptionChain(const RoadConfig& road, double sensor_range_m,
                  const perception::FeatureScale& scale, int history_z,
                  bool use_pvc, const perception::StatePredictor* predictor);

  /// Forgets the history (episode start).
  void Clear() { history_.Clear(); }

  /// Pushes the newest sensor frame and builds s⁺ at that step.
  AugmentedState Perceive(perception::ObservationFrame frame);

  /// The graph built by the last Perceive().
  const perception::StGraph& graph() const { return graph_; }

 private:
  RoadConfig road_;
  double sensor_range_m_;
  perception::FeatureScale scale_;
  bool use_pvc_;
  const perception::StatePredictor* predictor_;
  perception::HistoryBuffer history_;
  perception::StGraph graph_;
};

class DrivingEnv {
 public:
  /// `predictor` supplies f̂^{t+1}; may be null when use_prediction is false.
  DrivingEnv(const EnvConfig& config,
             const perception::StatePredictor* predictor, uint64_t seed);

  /// Starts a fresh episode and returns s⁺ at t=0.
  AugmentedState Reset(uint64_t seed);

  struct StepOutcome {
    AugmentedState next_state;
    RewardTerms reward;
    bool done = false;
    sim::EpisodeStatus status = sim::EpisodeStatus::kRunning;
  };

  /// Applies the ego maneuver, advances Δt and computes the hybrid reward.
  StepOutcome Step(const Maneuver& maneuver);

  const sim::Simulation& simulation() const { return sim_; }
  const EnvConfig& config() const { return config_; }
  double prev_accel() const { return prev_accel_; }

 private:
  /// Observes through the sensor and runs the perception chain.
  AugmentedState Perceive();

  EnvConfig config_;
  sim::Simulation sim_;
  PerceptionChain perception_;
  RewardFunction reward_fn_;
  /// The conventional vehicle behind the ego now: Eq. 30's C_5 at t, whose
  /// slowdown across the next step is the impact term.
  std::optional<sim::VehicleSnapshot> rear_;
  double prev_accel_ = 0.0;
};

}  // namespace head::rl

#endif  // HEAD_RL_ENV_H_
