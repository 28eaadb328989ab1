// End-to-end integration: the full perceive→predict→decide→simulate loop,
// the HeadAgent public API, variant configurations, and checkpointing.
#include <gtest/gtest.h>

#include <cstring>

#include "core/head_agent.h"
#include "data/real_dataset.h"
#include "eval/episode_runner.h"
#include "nn/serialize.h"
#include "perception/trainer.h"
#include "rl/trainer.h"

namespace head {
namespace {

core::HeadConfig SmallHeadConfig() {
  core::HeadConfig config;
  config.road.length_m = 300.0;
  config.pdqn.hidden = 16;
  config.pdqn.warmup_transitions = 50;
  config.pdqn.batch_size = 8;
  return config;
}

sim::SimConfig SmallSim(const RoadConfig& road) {
  sim::SimConfig sim;
  sim.road = road;
  sim.spawn.back_margin_m = 100.0;
  sim.spawn.front_margin_m = 100.0;
  return sim;
}

TEST(IntegrationTest, VariantNames) {
  EXPECT_STREQ(core::HeadVariant::Full().Name(), "HEAD");
  EXPECT_STREQ(core::HeadVariant::WithoutPvc().Name(), "HEAD-w/o-PVC");
  EXPECT_STREQ(core::HeadVariant::WithoutLstGat().Name(), "HEAD-w/o-LST-GAT");
  EXPECT_STREQ(core::HeadVariant::WithoutBpDqn().Name(), "HEAD-w/o-BP-DQN");
  EXPECT_STREQ(core::HeadVariant::WithoutImpact().Name(), "HEAD-w/o-IMP");
}

TEST(IntegrationTest, EnvConfigReflectsVariant) {
  core::HeadConfig config = SmallHeadConfig();
  config.variant = core::HeadVariant::WithoutImpact();
  const rl::EnvConfig env = config.MakeEnvConfig(SmallSim(config.road));
  EXPECT_FALSE(env.reward.use_impact);
  EXPECT_TRUE(env.use_pvc);
  config.variant = core::HeadVariant::WithoutPvc();
  EXPECT_FALSE(config.MakeEnvConfig(SmallSim(config.road)).use_pvc);
}

TEST(IntegrationTest, HeadAgentDrivesAnEpisode) {
  core::HeadConfig config = SmallHeadConfig();
  Rng rng(3);
  auto predictor = std::make_shared<perception::LstGat>(
      perception::LstGatConfig{.d_phi1 = 16, .d_phi3 = 16, .d_lstm = 16},
      rng);
  std::shared_ptr<rl::PamdpAgent> agent =
      rl::MakeBpDqnAgent(config.pdqn, rng);
  core::HeadAgent head(config, predictor, agent);

  eval::RunnerConfig runner;
  runner.sim = SmallSim(config.road);
  runner.episodes = 1;
  const eval::EpisodeRecord rec = eval::RunEpisode(head, runner, 123);
  EXPECT_GT(rec.driving_time_s, 0.0);
}

TEST(IntegrationTest, ShortTrainingImprovesReward) {
  core::HeadConfig config = SmallHeadConfig();
  Rng rng(5);
  std::shared_ptr<rl::PamdpAgent> agent =
      rl::MakeBpDqnAgent(config.pdqn, rng);
  rl::EnvConfig env_config = config.MakeEnvConfig(SmallSim(config.road));
  env_config.use_prediction = false;
  env_config.use_pvc = true;
  parallel::EnvPool envs(2, [&](int) {
    return std::make_unique<rl::DrivingEnv>(env_config, nullptr, 1);
  });
  rl::RlTrainConfig train;
  train.episodes = 25;
  const rl::RlTrainResult result = rl::TrainAgent(*agent, envs, train);
  ASSERT_EQ(result.episode_rewards.size(), 25u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_LE(result.convergence_seconds, result.total_seconds);
}

TEST(IntegrationTest, PerceptionPipelineTrainsOnGeneratedData) {
  data::RealDatasetConfig data_config = data::RealDatasetConfig::Default();
  data_config.episodes = 1;
  data_config.max_steps_per_episode = 60;
  const data::RealDataset dataset = data::GenerateRealDataset(data_config);
  ASSERT_GT(dataset.train.size(), 10u);

  Rng rng(7);
  perception::LstGat model(
      perception::LstGatConfig{.d_phi1 = 16, .d_phi3 = 16, .d_lstm = 16},
      rng);
  const double before =
      perception::EvaluatePredictor(model, dataset.test).mse;
  perception::PredictionTrainConfig train;
  train.epochs = 3;
  perception::TrainPredictor(model, dataset.train, train);
  const double after =
      perception::EvaluatePredictor(model, dataset.test).mse;
  EXPECT_LT(after, before);
}

TEST(IntegrationTest, AgentCheckpointRoundTripsThroughHeadAgent) {
  core::HeadConfig config = SmallHeadConfig();
  Rng rng(9);
  std::shared_ptr<rl::PdqnAgent> a = rl::MakeBpDqnAgent(config.pdqn, rng);
  std::shared_ptr<rl::PdqnAgent> b = rl::MakeBpDqnAgent(config.pdqn, rng);

  const std::string path = ::testing::TempDir() + "/bpdqn.bin";
  nn::SaveParamsToFile(a->x_net(), path);
  ASSERT_TRUE(nn::LoadParamsFromFile(b->x_net(), path));

  rl::AugmentedState s;
  Rng srng(11);
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1, 1, srng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1, 1, srng);
  EXPECT_EQ(a->ActionParams(s), b->ActionParams(s));
}

TEST(IntegrationTest, DeterministicEpisodeThroughWholeStack) {
  core::HeadConfig config = SmallHeadConfig();
  Rng rng1(13);
  Rng rng2(13);
  auto predictor1 = std::make_shared<perception::LstGat>(
      perception::LstGatConfig{.d_phi1 = 16, .d_phi3 = 16, .d_lstm = 16},
      rng1);
  auto predictor2 = std::make_shared<perception::LstGat>(
      perception::LstGatConfig{.d_phi1 = 16, .d_phi3 = 16, .d_lstm = 16},
      rng2);
  std::shared_ptr<rl::PamdpAgent> agent1 =
      rl::MakeBpDqnAgent(config.pdqn, rng1);
  std::shared_ptr<rl::PamdpAgent> agent2 =
      rl::MakeBpDqnAgent(config.pdqn, rng2);
  core::HeadAgent head1(config, predictor1, agent1);
  core::HeadAgent head2(config, predictor2, agent2);
  eval::RunnerConfig runner;
  runner.sim = SmallSim(config.road);
  const eval::EpisodeRecord r1 = eval::RunEpisode(head1, runner, 77);
  const eval::EpisodeRecord r2 = eval::RunEpisode(head2, runner, 77);
  EXPECT_DOUBLE_EQ(r1.driving_time_s, r2.driving_time_s);
  EXPECT_DOUBLE_EQ(r1.mean_v_mps, r2.mean_v_mps);
}

/// The i-th maneuver of a fixed script that brakes, accelerates and changes
/// lane both ways.
Maneuver ScriptedManeuver(size_t i) {
  static const Maneuver kScript[] = {
      {LaneChange::kKeep, 1.5},  {LaneChange::kKeep, 0.5},
      {LaneChange::kLeft, 0.0},  {LaneChange::kKeep, -2.0},
      {LaneChange::kKeep, 2.5},  {LaneChange::kRight, 1.0},
      {LaneChange::kKeep, -1.0}, {LaneChange::kKeep, 0.0},
  };
  return kScript[i % (sizeof(kScript) / sizeof(kScript[0]))];
}

/// Drives the script while recording the s⁺ a HeadAgent perceives from each
/// sensor view (the inference-time perception path).
class ScriptedPerceiver : public decision::Policy {
 public:
  explicit ScriptedPerceiver(core::HeadAgent& head) : head_(head) {}
  std::string name() const override { return "scripted"; }
  void OnEpisodeStart() override { head_.OnEpisodeStart(); }
  Maneuver Decide(const decision::EgoView& view) override {
    states.push_back(head_.Perceive(view));
    return ScriptedManeuver(states.size() - 1);
  }
  const rl::RewardConfig* reward_config() const override {
    return head_.reward_config();
  }
  std::vector<rl::AugmentedState> states;

 private:
  core::HeadAgent& head_;
};

bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST(IntegrationTest, TrainingAndInferenceSeeSameStatesAndRewards) {
  // One seed, one maneuver script, two loops: the training env
  // (DrivingEnv::Step) and the evaluation runner (eval::RunEpisode driving
  // a HeadAgent's perception). Both must see the same s⁺ and reward at
  // every step, bit for bit — also for HEAD-w/o-IMP, which trains without
  // the impact term.
  for (const core::HeadVariant& variant :
       {core::HeadVariant::Full(), core::HeadVariant::WithoutImpact()}) {
    SCOPED_TRACE(variant.Name());
    core::HeadConfig config = SmallHeadConfig();
    config.variant = variant;
    Rng rng(21);
    auto predictor = std::make_shared<perception::LstGat>(
        perception::LstGatConfig{.d_phi1 = 8, .d_phi3 = 8, .d_lstm = 8}, rng);
    core::HeadAgent head(config, predictor,
                         rl::MakeBpDqnAgent(config.pdqn, rng));
    sim::SimConfig sim = SmallSim(config.road);
    sim.max_steps = 80;
    constexpr uint64_t kSeed = 14;  // 34 steps, ending in a collision

    rl::DrivingEnv env(config.MakeEnvConfig(sim), predictor.get(), 1);
    std::vector<rl::AugmentedState> env_states = {env.Reset(kSeed)};
    std::vector<rl::RewardTerms> env_rewards;
    for (size_t i = 0;; ++i) {
      const rl::DrivingEnv::StepOutcome out = env.Step(ScriptedManeuver(i));
      env_rewards.push_back(out.reward);
      if (out.done) break;
      env_states.push_back(out.next_state);
    }

    ScriptedPerceiver policy(head);
    eval::RunnerConfig runner;
    runner.sim = sim;
    runner.sensor = config.sensor;
    eval::EpisodeTrace trace;
    eval::RunEpisode(policy, runner, kSeed, /*episode_index=*/0, &trace);

    ASSERT_GT(env_rewards.size(), 20u);
    ASSERT_EQ(trace.steps.size(), env_rewards.size());
    ASSERT_EQ(policy.states.size(), env_states.size());
    for (size_t i = 0; i < env_states.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(policy.states[i].h, env_states[i].h))
          << "step " << i;
      EXPECT_TRUE(BitwiseEqual(policy.states[i].f, env_states[i].f))
          << "step " << i;
      EXPECT_EQ(std::memcmp(&trace.steps[i].reward, &env_rewards[i],
                            sizeof(rl::RewardTerms)),
                0)
          << "step " << i;
    }
  }
}

}  // namespace
}  // namespace head
