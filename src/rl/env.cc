#include "rl/env.h"

#include "common/check.h"
#include "obs/recorder.h"
#include "obs/span.h"

namespace head::rl {

PerceptionChain::PerceptionChain(const RoadConfig& road, double sensor_range_m,
                                 const perception::FeatureScale& scale,
                                 int history_z, bool use_pvc,
                                 const perception::StatePredictor* predictor)
    : road_(road),
      sensor_range_m_(sensor_range_m),
      scale_(scale),
      use_pvc_(use_pvc),
      predictor_(predictor),
      history_(history_z) {}

AugmentedState PerceptionChain::Perceive(perception::ObservationFrame frame) {
  history_.Push(std::move(frame));
  perception::CompletedScene scene;
  {
    HEAD_SPAN("perception.phantom");
    scene = perception::ConstructPhantoms(history_, road_, sensor_range_m_,
                                          use_pvc_);
  }
  {
    HEAD_SPAN("perception.graph");
    graph_ = perception::BuildStGraph(scene, road_, scale_);
  }
  perception::Prediction prediction{};
  if (predictor_ != nullptr) {
    prediction = predictor_->Predict(graph_);  // spans itself
  }
  HEAD_SPAN("perception.augment");
  return BuildAugmentedState(graph_, prediction, road_, scale_,
                             predictor_ != nullptr);
}

DrivingEnv::DrivingEnv(const EnvConfig& config,
                       const perception::StatePredictor* predictor,
                       uint64_t seed)
    : config_(config),
      sim_(config.sim, seed),
      perception_(config.sim.road, config.sensor.range_m, config.scale,
                  config.history_z, config.use_pvc,
                  config.use_prediction ? predictor : nullptr),
      reward_fn_(config.reward, config.sim.road),
      rear_(RearVehicle(sim_)) {
  if (config_.use_prediction) {
    HEAD_CHECK_MSG(predictor != nullptr,
                   "use_prediction requires a state predictor");
  }
}

AugmentedState DrivingEnv::Perceive() {
  HEAD_SPAN("env.perceive");
  perception::ObservationFrame frame;
  frame.ego = sim_.ego_state();
  frame.observed = sensor::Observe(sim_.GlobalSnapshot(), sim_.ego_state(),
                                   config_.sensor, config_.sim.road);
  return perception_.Perceive(std::move(frame));
}

AugmentedState DrivingEnv::Reset(uint64_t seed) {
  sim_.Reset(seed);
  rear_ = RearVehicle(sim_);
  perception_.Clear();
  prev_accel_ = 0.0;
  return Perceive();
}

DrivingEnv::StepOutcome DrivingEnv::Step(const Maneuver& maneuver) {
  HEAD_SPAN("env.step");  // profiler root for rollout attribution
  HEAD_CHECK(sim_.status() == sim::EpisodeStatus::kRunning);
  const sim::EpisodeStatus status = sim_.Step(maneuver);

  StepOutcome out;
  out.status = status;
  out.done = status != sim::EpisodeStatus::kRunning;
  out.reward = reward_fn_.Compute(
      ObserveTransition(sim_, &rear_, maneuver.accel_mps2, prev_accel_));

  // Flight recorder: the scratch now holds this step's full story
  // (perception from the pre-step Perceive, the agent's decision internals,
  // the applied maneuver + ego outcome from sim_.Step, the reward
  // decomposition above) — commit it before the trailing Perceive starts
  // filling the next step's scratch.
  if (obs::RecordingEnabled()) obs::CommitStepRecord();

  prev_accel_ = maneuver.accel_mps2;
  out.next_state = Perceive();
  return out;
}

}  // namespace head::rl
