#include "core/head_config.h"

namespace head::core {

const char* HeadVariant::Name() const {
  if (use_pvc && use_lst_gat && use_bp_dqn && use_impact_reward) {
    return "HEAD";
  }
  if (!use_pvc) return "HEAD-w/o-PVC";
  if (!use_lst_gat) return "HEAD-w/o-LST-GAT";
  if (!use_bp_dqn) return "HEAD-w/o-BP-DQN";
  return "HEAD-w/o-IMP";
}

rl::RewardConfig HeadConfig::TrainingReward() const {
  rl::RewardConfig training = reward;
  training.use_impact = variant.use_impact_reward;
  return training;
}

rl::EnvConfig HeadConfig::MakeEnvConfig(const sim::SimConfig& sim) const {
  rl::EnvConfig env;
  env.sim = sim;
  env.sim.road = road;
  env.sensor = sensor;
  env.scale = scale;
  env.reward = TrainingReward();
  env.history_z = history_z;
  env.use_pvc = variant.use_pvc;
  env.use_prediction = variant.use_lst_gat;
  return env;
}

}  // namespace head::core
