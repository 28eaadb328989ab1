#include "rl/trainer.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace head::rl {

namespace {

/// Bipolar value-scale bounds for reward/loss-style histograms: rewards and
/// reward terms live roughly in [-3, 1]; bucket on [-4, 4] in 0.1 steps.
const std::vector<double>& RewardBounds() {
  return obs::CachedLinearBounds(-4.0, 4.0, 0.1);
}

/// Training telemetry. Resolved once per process (references into the
/// global registry stay valid forever).
struct TrainTelemetry {
  obs::Counter& episodes = obs::GetCounter("rl.episodes");
  obs::Gauge& epsilon = obs::GetGauge("rl.epsilon");
  obs::Histogram& reward = obs::GetHistogram("rl.episode_reward",
                                             RewardBounds());
  obs::Histogram& safety = obs::GetHistogram("rl.reward.safety",
                                             RewardBounds());
  obs::Histogram& efficiency = obs::GetHistogram("rl.reward.efficiency",
                                                 RewardBounds());
  obs::Histogram& comfort = obs::GetHistogram("rl.reward.comfort",
                                              RewardBounds());
  obs::Histogram& impact = obs::GetHistogram("rl.reward.impact",
                                             RewardBounds());

  static TrainTelemetry& Get() {
    static TrainTelemetry t;
    return t;
  }
};

void ObserveEpisodeTelemetry(TrainTelemetry& t, double reward_sum,
                             const RewardTerms& terms_sum, int steps) {
  const double inv_steps = 1.0 / std::max(steps, 1);
  t.reward.Observe(reward_sum * inv_steps);
  t.safety.Observe(terms_sum.safety * inv_steps);
  t.efficiency.Observe(terms_sum.efficiency * inv_steps);
  t.comfort.Observe(terms_sum.comfort * inv_steps);
  t.impact.Observe(terms_sum.impact * inv_steps);
}

/// Mean of a histogram's observations since the previous Sample() — delta-
/// windowing over the cumulative (count, sum), so the registry histogram is
/// left untouched for other consumers (no SnapshotAndReset).
class HistogramDeltaMean {
 public:
  explicit HistogramDeltaMean(obs::Histogram& h) : h_(h) {
    const obs::HistogramSnapshot s = h.Snapshot();
    prev_count_ = s.count;
    prev_sum_ = s.sum;
  }

  /// False when no new observations landed in the window.
  bool Sample(double* mean) {
    const obs::HistogramSnapshot s = h_.Snapshot();
    const int64_t delta_count = s.count - prev_count_;
    const double delta_sum = s.sum - prev_sum_;
    prev_count_ = s.count;
    prev_sum_ = s.sum;
    if (delta_count <= 0) return false;
    *mean = delta_sum / delta_count;
    return true;
  }

 private:
  obs::Histogram& h_;
  int64_t prev_count_;
  double prev_sum_;
};

/// The critic-loss histogram the agents publish to (bounds must match the
/// agent-side registration — first creation wins, same bounds either way).
obs::Histogram& CriticLossHistogram() {
  return obs::GetHistogram("rl.critic_loss",
                           obs::CachedExponentialBounds(1e-4, 2.0, 28));
}

/// One training-curve row: episode index, mean step reward, epsilon, the
/// Eq. 28 reward-term means, and (when available) the critic-loss window.
void AppendCurveRow(obs::TimeSeries* ts, double t, int episode,
                    double mean_reward, double epsilon,
                    const RewardTerms& terms_sum, int steps,
                    const double* critic_loss) {
  if (ts == nullptr) return;
  const double inv_steps = 1.0 / std::max(steps, 1);
  std::vector<std::pair<std::string, double>> row = {
      {"episode", static_cast<double>(episode)},
      {"reward", mean_reward},
      {"epsilon", epsilon},
      {"reward.safety", terms_sum.safety * inv_steps},
      {"reward.efficiency", terms_sum.efficiency * inv_steps},
      {"reward.comfort", terms_sum.comfort * inv_steps},
      {"reward.impact", terms_sum.impact * inv_steps},
  };
  if (critic_loss != nullptr) row.emplace_back("critic_loss", *critic_loss);
  ts->Append(t, row);
}

/// ε for episode `ep` under the linear decay schedule.
double EpsilonAt(const RlTrainConfig& config, int ep) {
  const double decay_episodes =
      std::max(1.0, config.epsilon_decay_fraction * config.episodes);
  const double frac = std::min(1.0, ep / decay_episodes);
  return config.epsilon_start +
         frac * (config.epsilon_end - config.epsilon_start);
}

/// Convergence time: first time the trailing-window mean reaches 95% of
/// the best trailing-window mean (rewards can be negative; normalize by
/// the observed range).
void ComputeConvergence(RlTrainResult& result, int episodes) {
  const int window = std::min<int>(20, episodes);
  std::vector<double> trailing;
  for (size_t e = window - 1; e < result.episode_rewards.size(); ++e) {
    double s = 0.0;
    for (int k = 0; k < window; ++k) s += result.episode_rewards[e - k];
    trailing.push_back(s / window);
  }
  const double best = *std::max_element(trailing.begin(), trailing.end());
  const double worst = *std::min_element(trailing.begin(), trailing.end());
  const double threshold = best - 0.05 * std::max(best - worst, 1e-9);
  result.convergence_seconds = result.total_seconds;
  for (size_t i = 0; i < trailing.size(); ++i) {
    if (trailing[i] >= threshold) {
      result.convergence_seconds =
          result.episode_elapsed_seconds[i + window - 1];
      break;
    }
  }
}

}  // namespace

RlTrainResult TrainAgent(PamdpAgent& agent, parallel::EnvPool& envs,
                         const RlTrainConfig& config) {
  HEAD_CHECK_GT(config.episodes, 0);
  const int k = envs.size();
  // The learner consumes its own stream; rollout noise comes from the
  // per-episode SplitMix streams inside the EnvPool, so learner and actors
  // never contend for one generator.
  Rng learner_rng(config.seed);
  RlTrainResult result;
  result.episode_rewards.reserve(config.episodes);
  result.episode_elapsed_seconds.reserve(config.episodes);
  const auto start = std::chrono::steady_clock::now();
  parallel::StripedTransitionBuffer buffer(k);
  TrainTelemetry& telemetry = TrainTelemetry::Get();
  HistogramDeltaMean critic_loss_window(CriticLossHistogram());

  size_t next_lr_decay = 0;
  for (int round_start = 0; round_start < config.episodes;
       round_start += k) {
    const int round = std::min(k, config.episodes - round_start);
    // Schedules advance at round granularity: parameters are frozen within
    // a round, so a decay point inside a round lands at the round boundary.
    // Deterministic for fixed K.
    if (next_lr_decay < config.lr_decay_at_fractions.size() &&
        round_start >= config.lr_decay_at_fractions[next_lr_decay] *
                           config.episodes) {
      agent.ScaleLearningRate(config.lr_decay_factor);
      ++next_lr_decay;
    }

    HEAD_SPAN("rl.train.round");
    parallel::RolloutOptions opts;
    opts.seed_base = config.seed;
    opts.max_steps_per_episode = config.max_steps_per_episode;
    opts.epsilons.resize(round);
    for (int j = 0; j < round; ++j) {
      opts.epsilons[j] = EpsilonAt(config, round_start + j);
    }
    opts.transitions = &buffer;
    const std::vector<parallel::EpisodeResult> episodes =
        envs.RunEpisodes(agent, round_start, round, opts);

    telemetry.episodes.Add(round);
    telemetry.epsilon.Set(opts.epsilons.back());
    for (const parallel::EpisodeResult& ep : episodes) {
      ObserveEpisodeTelemetry(telemetry, ep.reward_sum, ep.terms, ep.steps);
      result.episode_rewards.push_back(ep.reward_sum /
                                       std::max(ep.steps, 1));
    }

    // Learning phase: drain in episode order and replay — one Remember +
    // one Update per transition.
    for (auto& [index, steps] : buffer.DrainOrdered()) {
      (void)index;
      for (Transition& t : steps) {
        AgentAction action;
        action.behavior = t.behavior;
        action.params = std::move(t.params);
        action.maneuver.lane_change = BehaviorToLaneChange(t.behavior);
        agent.Remember(t.state, action, t.reward, t.next_state, t.terminal);
        agent.Update(learner_rng);
      }
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (int j = 0; j < round; ++j) {
      result.episode_elapsed_seconds.push_back(elapsed);
    }
    // Parameters advance once per round, so the round's critic-loss window
    // is shared by every episode row of the round.
    double critic_loss = 0.0;
    const bool have_loss = critic_loss_window.Sample(&critic_loss);
    for (int j = 0; j < round; ++j) {
      const parallel::EpisodeResult& ep = episodes[j];
      AppendCurveRow(config.timeseries, elapsed, round_start + j,
                     ep.reward_sum / std::max(ep.steps, 1),
                     opts.epsilons[j], ep.terms, ep.steps,
                     have_loss ? &critic_loss : nullptr);
    }
    if (config.verbose) {
      HEAD_LOG(Info) << agent.name() << " episodes " << round_start + round
                     << "/" << config.episodes << " (rounds of " << k
                     << ") mean step reward="
                     << result.episode_rewards.back()
                     << " eps=" << opts.epsilons.back();
    }
  }
  result.total_seconds = result.episode_elapsed_seconds.back();
  ComputeConvergence(result, config.episodes);
  return result;
}

namespace {

/// Aggregates per-episode summaries in episode order: per-step rewards are
/// summed within an episode first and episode sums are added in episode
/// order, so the single-env and pooled evaluators produce bitwise-identical
/// statistics.
RewardStats FoldEpisodes(const std::vector<parallel::EpisodeResult>& episodes) {
  RewardStats stats;
  stats.min_reward = std::numeric_limits<double>::infinity();
  stats.max_reward = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const parallel::EpisodeResult& ep : episodes) {
    stats.min_reward = std::min(stats.min_reward, ep.min_step_reward);
    stats.max_reward = std::max(stats.max_reward, ep.max_step_reward);
    sum += ep.reward_sum;
    stats.steps += ep.steps;
    if (ep.collision) ++stats.collisions;
  }
  stats.avg_reward = stats.steps > 0 ? sum / stats.steps : 0.0;
  return stats;
}

parallel::RolloutOptions GreedyOptions(uint64_t seed_base,
                                       int max_steps_per_episode) {
  HEAD_CHECK_GT(max_steps_per_episode, 0);
  parallel::RolloutOptions opts;
  opts.seed_base = seed_base;
  opts.max_steps_per_episode = max_steps_per_episode;
  return opts;
}

}  // namespace

RewardStats EvaluateAgent(PamdpAgent& agent, DrivingEnv& env, int episodes,
                          uint64_t seed_base, int max_steps_per_episode) {
  const parallel::RolloutOptions opts =
      GreedyOptions(seed_base, max_steps_per_episode);
  std::vector<parallel::EpisodeResult> results;
  for (int ep = 0; ep < episodes; ++ep) {
    results.push_back(parallel::RunAgentEpisode(agent, env, ep,
                                                /*epsilon=*/0.0, opts));
  }
  return FoldEpisodes(results);
}

RewardStats EvaluateAgent(PamdpAgent& agent, parallel::EnvPool& envs,
                          int episodes, uint64_t seed_base,
                          int max_steps_per_episode) {
  return FoldEpisodes(envs.RunEpisodes(
      agent, /*first_index=*/0, episodes,
      GreedyOptions(seed_base, max_steps_per_episode)));
}

}  // namespace head::rl
