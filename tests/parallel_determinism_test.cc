// End-to-end determinism of the parallel execution layer (the PR's core
// contract): for a fixed env-pool size K, training and evaluation results
// are bitwise identical whether the pool runs on 1 thread or 4, identical
// across repeated runs, and pooled evaluation matches the serial evaluator
// exactly for any K — including when every worker runs the same agent and
// predictor concurrently, each on its own thread-local tape.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "parallel/env_pool.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "rl/env.h"
#include "rl/pdqn_agent.h"
#include "rl/trainer.h"

namespace head {
namespace {

rl::EnvConfig SmallEnv() {
  rl::EnvConfig c;
  c.sim.road.length_m = 400.0;
  c.sim.spawn.back_margin_m = 120.0;
  c.sim.spawn.front_margin_m = 120.0;
  c.use_prediction = false;  // no predictor needed: fast and deterministic
  return c;
}

std::shared_ptr<rl::PdqnAgent> SmallAgent(uint64_t seed) {
  rl::PdqnConfig config;
  config.batch_size = 8;
  config.warmup_transitions = 20;
  config.update_every = 1;
  Rng rng(seed);
  return rl::MakePDqnAgent(config, rng);
}

rl::RlTrainConfig SmallTrain() {
  rl::RlTrainConfig config;
  config.episodes = 6;
  config.max_steps_per_episode = 40;
  config.seed = 5;
  return config;
}

parallel::EnvPool MakePool(int k, parallel::ThreadPool* pool) {
  return parallel::EnvPool(
      k, [](int) { return std::make_unique<rl::DrivingEnv>(SmallEnv(),
                                                           nullptr, 1); },
      pool);
}

/// Trains a fresh agent over a K-env pool on `threads` threads and returns
/// the per-episode reward vector.
std::vector<double> TrainRewards(int k, int threads) {
  parallel::ThreadPool pool(threads);
  parallel::EnvPool envs = MakePool(k, &pool);
  auto agent = SmallAgent(77);
  return rl::TrainAgent(*agent, envs, SmallTrain()).episode_rewards;
}

TEST(ParallelDeterminismTest, TrainingIdenticalAcrossThreadCounts) {
  // Fixed K = 3; 1 thread vs 4 threads must agree bitwise per episode.
  const std::vector<double> serial = TrainRewards(3, 1);
  const std::vector<double> threaded = TrainRewards(3, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "episode " << i;
  }
}

TEST(ParallelDeterminismTest, TrainingBitwiseStableAcrossRepeats) {
  const std::vector<double> first = TrainRewards(3, 4);
  const std::vector<double> second = TrainRewards(3, 4);
  EXPECT_EQ(first, second);
}

TEST(ParallelDeterminismTest, PooledEvaluationMatchesSerialForAnyK) {
  auto agent = SmallAgent(77);
  rl::DrivingEnv env(SmallEnv(), nullptr, 1);
  const rl::RewardStats serial =
      rl::EvaluateAgent(*agent, env, /*episodes=*/5, /*seed_base=*/99,
                        /*max_steps_per_episode=*/40);
  for (int k : {1, 2, 4}) {
    parallel::ThreadPool pool(4);
    parallel::EnvPool envs = MakePool(k, &pool);
    const rl::RewardStats pooled =
        rl::EvaluateAgent(*agent, envs, 5, 99, 40);
    EXPECT_EQ(pooled.avg_reward, serial.avg_reward) << "K=" << k;
    EXPECT_EQ(pooled.min_reward, serial.min_reward) << "K=" << k;
    EXPECT_EQ(pooled.max_reward, serial.max_reward) << "K=" << k;
    EXPECT_EQ(pooled.steps, serial.steps) << "K=" << k;
    EXPECT_EQ(pooled.collisions, serial.collisions) << "K=" << k;
  }
}

TEST(ParallelDeterminismTest, EpisodeResultsIndependentOfWorkerAssignment) {
  // The same 6 episodes collected through K=2 and K=3 pools must produce
  // the same per-episode summaries: outcomes depend only on the episode
  // index and seed_base, never on which env instance ran them.
  auto agent = SmallAgent(77);
  parallel::EnvPool::RolloutOptions opts;
  opts.seed_base = 55;
  opts.max_steps_per_episode = 40;
  parallel::ThreadPool pool(4);
  parallel::EnvPool two = MakePool(2, &pool);
  parallel::EnvPool three = MakePool(3, &pool);
  const auto a = two.RunEpisodes(*agent, 0, 6, opts);
  const auto b = three.RunEpisodes(*agent, 0, 6, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].steps, b[i].steps) << "episode " << i;
    EXPECT_EQ(a[i].reward_sum, b[i].reward_sum) << "episode " << i;
    EXPECT_EQ(a[i].collision, b[i].collision) << "episode " << i;
  }
}

/// Greedy episodes over K = 4 envs that share one BP-DQN agent and one
/// LST-GAT predictor, on a pool of `threads` threads.
std::vector<parallel::EnvPool::EpisodeResult> SharedModelRollouts(int threads) {
  perception::LstGatConfig net_config;
  net_config.d_phi1 = 8;
  net_config.d_phi3 = 8;
  net_config.d_lstm = 8;
  Rng init(13);
  const perception::LstGat predictor(net_config, init);
  rl::PdqnConfig config;
  config.hidden = 16;
  Rng rng(77);
  auto agent = rl::MakeBpDqnAgent(config, rng);
  rl::EnvConfig env_config = SmallEnv();
  env_config.use_prediction = true;
  parallel::ThreadPool pool(threads);
  parallel::EnvPool envs(
      4,
      [&](int) {
        return std::make_unique<rl::DrivingEnv>(env_config, &predictor, 1);
      },
      &pool);
  parallel::EnvPool::RolloutOptions opts;
  opts.seed_base = 55;
  opts.max_steps_per_episode = 40;
  return envs.RunEpisodes(*agent, 0, 8, opts);
}

TEST(ParallelDeterminismTest, SharedAgentAndPredictorRolloutsMatchSerial) {
  // Every greedy step runs Predict and both Act forwards on the workers at
  // once; the shared models are read-only, so 4 threads must reproduce the
  // 1-thread run bitwise (and race-free under TSan).
  const auto serial = SharedModelRollouts(1);
  const auto threaded = SharedModelRollouts(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].steps, threaded[i].steps) << "episode " << i;
    EXPECT_EQ(serial[i].reward_sum, threaded[i].reward_sum)
        << "episode " << i;
    EXPECT_EQ(serial[i].collision, threaded[i].collision) << "episode " << i;
  }
}

TEST(ParallelDeterminismTest, TrainingDependsOnKButStaysFinite) {
  // Different K means different round boundaries, so results may differ —
  // but each run must still produce one reward per episode.
  const std::vector<double> k1 = TrainRewards(1, 2);
  const std::vector<double> k3 = TrainRewards(3, 2);
  EXPECT_EQ(k1.size(), 6u);
  EXPECT_EQ(k3.size(), 6u);
}

}  // namespace
}  // namespace head
