// Episode-based RL training/evaluation (the paper trains 4,000 episodes with
// a scheduled learning rate, soft target updates, and an ε-greedy
// exploration schedule). Every episode runs through parallel::RunAgentEpisode;
// training collects them in rounds over an EnvPool. Produces the reward
// statistics of Table V and the convergence/inference times of Table VI.
#ifndef HEAD_RL_TRAINER_H_
#define HEAD_RL_TRAINER_H_

#include <vector>

#include "obs/timeseries.h"
#include "parallel/env_pool.h"
#include "rl/env.h"
#include "rl/pamdp.h"

namespace head::rl {

struct RlTrainConfig {
  int episodes = 150;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  /// Fraction of episodes over which ε decays linearly.
  double epsilon_decay_fraction = 0.6;
  /// Learning-rate schedule: at each episode fraction, multiply all agent
  /// learning rates by `lr_decay_factor` (the paper's "scheduled" LR).
  std::vector<double> lr_decay_at_fractions = {0.5, 0.8};
  double lr_decay_factor = 0.3;
  uint64_t seed = 1;
  bool verbose = false;
  /// Stop an episode after this many steps even if the sim allows more.
  int max_steps_per_episode = 100000;
  /// Optional training-curve sink (not owned; must outlive the call). When
  /// set, every episode appends one row: mean step reward, epsilon, the
  /// Eq. 28 reward-term means, and the critic-loss mean over the episode's
  /// updates — export with TimeSeries::WriteCsvFile / WriteJsonFile.
  obs::TimeSeries* timeseries = nullptr;
};

struct RlTrainResult {
  std::vector<double> episode_rewards;  ///< mean per-step reward per episode
  std::vector<double> episode_elapsed_seconds;
  /// Wall-clock until the 20-episode trailing mean first reaches 95% of its
  /// best value — the TCT of Table VI.
  double convergence_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Per-step reward statistics over greedy evaluation episodes (Table V).
struct RewardStats {
  double min_reward = 0.0;
  double max_reward = 0.0;
  double avg_reward = 0.0;
  long steps = 0;
  int collisions = 0;
};

/// Collection-round training over K = envs.size() environments: each round
/// freezes the learner's parameters, collects K episodes concurrently across
/// the pool (per-episode SplitMix seed streams, parallel::RunAgentEpisode),
/// then drains the transitions in episode order and replays them through
/// Remember/Update — one learning step per transition. Results depend on K
/// (parameters advance once per round) but NOT on the thread count: for a
/// fixed K and seed, the episode-reward vector is bitwise identical whether
/// the pool runs 1 thread or 16. `agent.Act` must be safe to call
/// concurrently (pure forward pass — true of all agents in this repo).
RlTrainResult TrainAgent(PamdpAgent& agent, parallel::EnvPool& envs,
                         const RlTrainConfig& config);

/// Runs `episodes` greedy episodes and aggregates per-step rewards. Episodes
/// are truncated at `max_steps_per_episode` so a policy that never reaches a
/// terminal state cannot hang evaluation or the benches. Episode e resets
/// its env with SplitMix(seed_base, 2e) and draws action noise from
/// SplitMix(seed_base, 2e+1), so its outcome does not depend on which
/// worker or env instance runs it.
RewardStats EvaluateAgent(PamdpAgent& agent, DrivingEnv& env, int episodes,
                          uint64_t seed_base,
                          int max_steps_per_episode = 100000);

/// Same statistics as the single-env overload — bitwise identical for any
/// pool size and thread count — with episodes fanned out across the pool.
RewardStats EvaluateAgent(PamdpAgent& agent, parallel::EnvPool& envs,
                          int episodes, uint64_t seed_base,
                          int max_steps_per_episode = 100000);

}  // namespace head::rl

#endif  // HEAD_RL_TRAINER_H_
