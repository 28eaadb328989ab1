// Top-level configuration of the HEAD framework: environment, perception,
// decision and reward settings plus the ablation switches of Table II.
#ifndef HEAD_CORE_HEAD_CONFIG_H_
#define HEAD_CORE_HEAD_CONFIG_H_

#include "perception/lst_gat.h"
#include "rl/env.h"
#include "rl/pdqn_agent.h"

namespace head::core {

/// Which components are active — the HEAD variants of Table II.
struct HeadVariant {
  bool use_pvc = true;         ///< phantom vehicle construction
  bool use_lst_gat = true;     ///< predicted future states in s⁺
  bool use_bp_dqn = true;      ///< branched nets (false ⇒ vanilla P-DQN)
  bool use_impact_reward = true;

  static HeadVariant Full() { return {}; }
  static HeadVariant WithoutPvc() { return {false, true, true, true}; }
  static HeadVariant WithoutLstGat() { return {true, false, true, true}; }
  static HeadVariant WithoutBpDqn() { return {true, true, false, true}; }
  static HeadVariant WithoutImpact() { return {true, true, true, false}; }

  const char* Name() const;
};

struct HeadConfig {
  RoadConfig road;
  sensor::SensorConfig sensor;          ///< R = 100 m by default
  perception::FeatureScale scale;
  perception::LstGatConfig lst_gat;
  rl::PdqnConfig pdqn;
  rl::RewardConfig reward;
  int history_z = 5;
  HeadVariant variant;

  /// The reward the agent trains under: `reward` with the variant's impact
  /// switch applied.
  rl::RewardConfig TrainingReward() const;

  /// Environment config consistent with this HEAD configuration.
  rl::EnvConfig MakeEnvConfig(const sim::SimConfig& sim) const;
};

}  // namespace head::core

#endif  // HEAD_CORE_HEAD_CONFIG_H_
