// HeadAgent — the public inference-time API of the framework. Owns the
// enhanced-perception pipeline (history buffer → phantom construction →
// spatial-temporal graph → LST-GAT prediction) and a trained maneuver-
// decision agent, and exposes them as a decision::Policy: sensor view in,
// maneuver out, once per Δt (Fig. 1).
//
// The same wrapper also hosts any rl::PamdpAgent (P-DQN, P-DDPG, DRL-SC, …)
// so every learned method runs through an identical evaluation path.
#ifndef HEAD_CORE_HEAD_AGENT_H_
#define HEAD_CORE_HEAD_AGENT_H_

#include <memory>
#include <string>

#include "core/head_config.h"
#include "decision/policy.h"

namespace head::core {

class HeadAgent : public decision::Policy {
 public:
  /// `predictor` may be shared with other agents (it is only read); it may
  /// be null when the variant disables LST-GAT. `agent` must be trained (or
  /// trainable through the rl::DrivingEnv path) and is owned.
  HeadAgent(const HeadConfig& config,
            std::shared_ptr<const perception::StatePredictor> predictor,
            std::shared_ptr<rl::PamdpAgent> agent);

  std::string name() const override;
  void OnEpisodeStart() override;
  Maneuver Decide(const decision::EgoView& view) override;
  const rl::RewardConfig* reward_config() const override { return &reward_; }

  /// The augmented state the agent saw at the last Decide() call.
  const rl::AugmentedState& last_state() const { return last_state_; }
  const perception::StGraph& last_graph() const {
    return perception_.graph();
  }
  rl::PamdpAgent& agent() { return *agent_; }
  const HeadConfig& config() const { return config_; }

  /// Builds s⁺ from a sensor view without acting (used by tools/tests).
  rl::AugmentedState Perceive(const decision::EgoView& view);

 private:
  HeadConfig config_;
  rl::RewardConfig reward_;  ///< config_.TrainingReward()
  std::shared_ptr<const perception::StatePredictor> predictor_;
  std::shared_ptr<rl::PamdpAgent> agent_;
  rl::PerceptionChain perception_;
  rl::AugmentedState last_state_;
  Rng act_rng_;
};

}  // namespace head::core

#endif  // HEAD_CORE_HEAD_AGENT_H_
