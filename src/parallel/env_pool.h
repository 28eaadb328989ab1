// EnvPool: K independent DrivingEnv instances that run whole episodes
// concurrently on the thread pool, against a frozen policy, with per-episode
// SplitMix-derived RNG streams.
//
// Reproducibility contract: an episode's outcome is a pure function of
// (policy parameters, env config, episode index, seed_base) — the reset
// seed is SplitMix(seed_base, 2·index) and the action-noise stream is
// SplitMix(seed_base, 2·index + 1). Which env instance or worker thread
// runs the episode is irrelevant, so a rollout's per-episode results are
// identical for any thread count, and greedy evaluation is identical for
// any pool size K as well. Training rounds freeze the learner between
// collections (see rl::TrainAgent), so training is reproducible for a
// fixed K. RunAgentEpisode is the one agent/env episode loop; the pool only
// decides which env runs which episode.
//
// Transitions stream into a mutex-striped buffer (one stripe per env, so
// concurrent pushes rarely contend) and are drained in episode order, which
// keeps the learner's replay contents deterministic.
//
// Header-only on purpose: the parallel layer sits below head_rl in the link
// order (head_rl links head_parallel), so the env-facing code here is
// inline and its symbols live in whichever target uses it.
#ifndef HEAD_PARALLEL_ENV_POOL_H_
#define HEAD_PARALLEL_ENV_POOL_H_

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"
#include "rl/env.h"
#include "rl/replay_buffer.h"

namespace head::parallel {

/// Mutex-striped transition store for concurrent rollout collection.
/// Push(episode_index, t) locks only stripe episode_index % stripes;
/// DrainOrdered() returns everything grouped by episode in ascending
/// episode-index order (step order preserved within an episode), which is
/// the deterministic replay order the learner consumes.
class StripedTransitionBuffer {
 public:
  explicit StripedTransitionBuffer(int stripes)
      : stripes_(std::max(1, stripes)),
        shards_(static_cast<size_t>(stripes_)) {}

  void Push(int episode_index, rl::Transition t) {
    Shard& shard = shards_[static_cast<size_t>(episode_index) %
                           static_cast<size_t>(stripes_)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.episodes[episode_index].push_back(std::move(t));
  }

  /// Moves out all stored transitions as (episode_index, steps) groups in
  /// ascending episode order. Not safe concurrently with Push.
  std::vector<std::pair<int, std::vector<rl::Transition>>> DrainOrdered() {
    std::vector<std::pair<int, std::vector<rl::Transition>>> out;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto& [index, steps] : shard.episodes) {
        out.emplace_back(index, std::move(steps));
      }
      shard.episodes.clear();
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [index, steps] : shard.episodes) n += steps.size();
    }
    return n;
  }

  int stripes() const { return stripes_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<int, std::vector<rl::Transition>> episodes;
  };

  int stripes_;
  std::vector<Shard> shards_;  // never resized: Shard is not movable
};

/// Per-episode summary, independent of which env/worker ran it.
struct EpisodeResult {
  int index = 0;              ///< global episode index
  int steps = 0;
  double reward_sum = 0.0;    ///< Σ per-step total reward, in step order
  rl::RewardTerms terms;      ///< per-term sums (Eq. 28 decomposition)
  double min_step_reward = std::numeric_limits<double>::infinity();
  double max_step_reward = -std::numeric_limits<double>::infinity();
  bool collision = false;     ///< episode ended in a collision
};

struct RolloutOptions {
  uint64_t seed_base = 1;
  int max_steps_per_episode = 100000;
  /// Exploration rate per episode (indexed by episode offset within the
  /// run); empty means greedy (ε = 0) everywhere.
  std::vector<double> epsilons;
  /// When set, every transition is pushed here as (global episode index,
  /// transition) for ordered draining by the learner.
  StripedTransitionBuffer* transitions = nullptr;
  /// Scenario name stamped into flight-recorder episode contexts. Only
  /// used while obs::RecordingEnabled().
  std::string scenario_name;
};

/// The agent/env episode loop — the only one: pooled rollouts, training
/// collection and serial evaluation all run their episodes through it.
/// Resets `env` with SplitMix(seed_base, 2·index), draws action noise from
/// SplitMix(seed_base, 2·index + 1) and steps until the episode ends or
/// reaches opts.max_steps_per_episode. Forward passes run under
/// NoGradGuard — rollouts never build autograd graphs.
inline EpisodeResult RunAgentEpisode(rl::PamdpAgent& agent,
                                     rl::DrivingEnv& env, int global_index,
                                     double epsilon,
                                     const RolloutOptions& opts) {
  // The guard also covers worker threads, whose thread-local grad mode
  // starts enabled.
  const nn::NoGradGuard no_grad;
  EpisodeResult result;
  result.index = global_index;
  const uint64_t gi = static_cast<uint64_t>(global_index);
  // Flight recorder: rings are thread-local, so concurrent episodes never
  // share a scratch; the manifest records the episode's own reset seed.
  if (obs::RecordingEnabled()) {
    obs::EpisodeContext ctx;
    ctx.scenario = opts.scenario_name;
    ctx.policy = agent.name();
    ctx.seed = SplitMix(opts.seed_base, 2 * gi);
    ctx.episode_index = global_index;
    obs::BeginEpisode(ctx);
  }
  sim::EpisodeStatus status = sim::EpisodeStatus::kRunning;
  rl::AugmentedState state = env.Reset(SplitMix(opts.seed_base, 2 * gi));
  Rng rng(SplitMix(opts.seed_base, 2 * gi + 1));
  while (result.steps < opts.max_steps_per_episode) {
    const rl::AgentAction action = agent.Act(state, epsilon, rng);
    if (obs::RecordingEnabled()) {
      obs::ScratchRecord().rng_cursor = rng.draws();
    }
    const rl::DrivingEnv::StepOutcome outcome = env.Step(action.maneuver);
    const double r = outcome.reward.total;
    result.reward_sum += r;
    result.terms.safety += outcome.reward.safety;
    result.terms.efficiency += outcome.reward.efficiency;
    result.terms.comfort += outcome.reward.comfort;
    result.terms.impact += outcome.reward.impact;
    result.min_step_reward = std::min(result.min_step_reward, r);
    result.max_step_reward = std::max(result.max_step_reward, r);
    ++result.steps;
    if (opts.transitions != nullptr) {
      rl::Transition t;
      t.state = state;
      t.behavior = action.behavior;
      t.params = action.params;
      t.reward = r;
      t.next_state = outcome.next_state;
      t.terminal = outcome.done;
      opts.transitions->Push(global_index, std::move(t));
    }
    state = outcome.next_state;
    status = outcome.status;
    if (outcome.done) {
      result.collision = outcome.status == sim::EpisodeStatus::kCollision;
      break;
    }
  }
  if (obs::RecordingEnabled()) obs::EndEpisode(sim::ToEpisodeEnd(status));
  return result;
}

class EnvPool {
 public:
  /// Builds env `index` (0-based). Every env must be configured
  /// identically for the reproducibility contract to hold; the index is
  /// provided for instrumentation only.
  using EnvFactory = std::function<std::unique_ptr<rl::DrivingEnv>(int)>;
  using EpisodeResult = parallel::EpisodeResult;
  using RolloutOptions = parallel::RolloutOptions;

  /// `pool` defaults to ThreadPool::Global().
  EnvPool(int num_envs, const EnvFactory& factory, ThreadPool* pool = nullptr)
      : pool_(pool != nullptr ? pool : &ThreadPool::Global()) {
    HEAD_CHECK_GE(num_envs, 1);
    envs_.reserve(num_envs);
    for (int i = 0; i < num_envs; ++i) envs_.push_back(factory(i));
  }

  int size() const { return static_cast<int>(envs_.size()); }
  rl::DrivingEnv& env(int i) { return *envs_[i]; }
  ThreadPool& pool() { return *pool_; }

  /// Runs `count` episodes with global indices [first_index, first_index +
  /// count) against `agent` (whose parameters must stay frozen for the
  /// duration), fanning out across the pool. Episode offset j runs on env
  /// j % K; each env processes its episodes in ascending order. Returns
  /// per-episode results indexed by offset j.
  std::vector<EpisodeResult> RunEpisodes(rl::PamdpAgent& agent,
                                         int first_index, int count,
                                         const RolloutOptions& opts) {
    HEAD_CHECK_GE(count, 0);
    std::vector<EpisodeResult> results(count);
    if (count == 0) return results;
    static obs::Counter& episodes_counter =
        obs::GetCounter("parallel.envpool.episodes");
    static obs::Histogram& episode_latency =
        obs::LatencyHistogram("parallel.envpool.episode");
    const int k = size();
    // One task per env: env e serially runs episode offsets e, e+K, e+2K, …
    // Exclusive env ownership per task means no env-level locking, and the
    // per-episode seed streams make the assignment irrelevant to results.
    pool_->ParallelFor(0, std::min(k, count), 1, [&](int64_t e0, int64_t e1) {
      for (int64_t e = e0; e < e1; ++e) {
        rl::DrivingEnv& env = *envs_[e];
        for (int j = static_cast<int>(e); j < count; j += k) {
          const auto t0 = std::chrono::steady_clock::now();
          results[j] = RunAgentEpisode(
              agent, env, first_index + j,
              j < static_cast<int>(opts.epsilons.size()) ? opts.epsilons[j]
                                                         : 0.0,
              opts);
          episode_latency.Observe(std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count());
          episodes_counter.Add();
        }
      }
    });
    return results;
  }

 private:
  ThreadPool* pool_;
  std::vector<std::unique_ptr<rl::DrivingEnv>> envs_;
};

}  // namespace head::parallel

#endif  // HEAD_PARALLEL_ENV_POOL_H_
