// RL machinery: replay buffer, augmented-state building, and behavioral
// smoke/learning tests for every agent (BP-DQN, P-DQN, P-QP, P-DDPG, DRL-SC).
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "rl/drl_sc.h"
#include "rl/mp_dqn.h"
#include "rl/p_ddpg.h"
#include "rl/pdqn_agent.h"
#include "rl/replay_buffer.h"

namespace head::rl {
namespace {

AugmentedState RandomState(Rng& rng) {
  AugmentedState s;
  s.h = nn::Tensor::Uniform(kStateHRows, kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(kStateFRows, kStateCols, -1.0, 1.0, rng);
  return s;
}

TEST(ReplayBufferTest, RingEviction) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 5; ++i) {
    Transition t;
    t.reward = i;
    buffer.Push(std::move(t));
  }
  EXPECT_EQ(buffer.size(), 3u);
  Rng rng(1);
  // Only rewards {2, 3, 4} should remain.
  for (const Transition* t : buffer.Sample(50, rng)) {
    EXPECT_GE(t->reward, 2.0);
    EXPECT_LE(t->reward, 4.0);
  }
}

TEST(ReplayBufferTest, SampleCoversStorage) {
  ReplayBuffer buffer(10);
  for (int i = 0; i < 10; ++i) {
    Transition t;
    t.reward = i;
    buffer.Push(std::move(t));
  }
  Rng rng(2);
  std::set<double> seen;
  for (const Transition* t : buffer.Sample(500, rng)) seen.insert(t->reward);
  EXPECT_GE(seen.size(), 8u);  // uniform sampling should hit nearly all
}

TEST(PamdpTest, BehaviorMapping) {
  EXPECT_EQ(BehaviorToLaneChange(kBehaviorLeft), LaneChange::kLeft);
  EXPECT_EQ(BehaviorToLaneChange(kBehaviorRight), LaneChange::kRight);
  EXPECT_EQ(BehaviorToLaneChange(kBehaviorKeep), LaneChange::kKeep);
  for (int b = 0; b < kNumBehaviors; ++b) {
    EXPECT_EQ(LaneChangeToBehavior(BehaviorToLaneChange(b)), b);
  }
}

TEST(PamdpTest, FlattenOrdersHThenF) {
  AugmentedState s;
  s.h = nn::Tensor(kStateHRows, kStateCols, 1.0);
  s.f = nn::Tensor(kStateFRows, kStateCols, 2.0);
  const nn::Tensor flat = FlattenState(s);
  ASSERT_EQ(flat.size(), kFlatStateDim);
  EXPECT_DOUBLE_EQ(flat[0], 1.0);
  EXPECT_DOUBLE_EQ(flat[kStateHRows * kStateCols], 2.0);
}

PdqnConfig SmallConfig() {
  PdqnConfig c;
  c.hidden = 16;
  c.batch_size = 8;
  c.warmup_transitions = 8;
  c.buffer_capacity = 256;
  return c;
}

TEST(PdqnAgentTest, ActRespectsBoundsAndGreedyIsDeterministic) {
  Rng init(3);
  auto agent = MakeBpDqnAgent(SmallConfig(), init);
  Rng rng(4);
  const AugmentedState s = RandomState(rng);
  for (int i = 0; i < 50; ++i) {
    const AgentAction a = agent->Act(s, 1.0, rng);
    EXPECT_GE(a.maneuver.accel_mps2, -3.0);
    EXPECT_LE(a.maneuver.accel_mps2, 3.0);
    EXPECT_GE(a.behavior, 0);
    EXPECT_LT(a.behavior, kNumBehaviors);
  }
  const AgentAction g1 = agent->Act(s, 0.0, rng);
  const AgentAction g2 = agent->Act(s, 0.0, rng);
  EXPECT_EQ(g1.behavior, g2.behavior);
  EXPECT_DOUBLE_EQ(g1.maneuver.accel_mps2, g2.maneuver.accel_mps2);
}

TEST(PdqnAgentTest, ActionParamsDependOnState) {
  Rng init(3);
  auto agent = MakeBpDqnAgent(SmallConfig(), init);
  Rng rng(4);
  const nn::Tensor x1 = agent->ActionParams(RandomState(rng));
  const nn::Tensor x2 = agent->ActionParams(RandomState(rng));
  EXPECT_NE(x1, x2) << "actor output must be state-dependent";
}

// The agent should raise Q(s, b_taken) toward a constant positive reward.
template <typename MakeAgent>
void ExpectCriticLearns(MakeAgent&& make) {
  Rng init(7);
  auto agent = make(init);
  Rng rng(8);
  const AugmentedState s = RandomState(rng);
  const AugmentedState s2 = RandomState(rng);
  const AgentAction probe = agent->Act(s, 0.0, rng);
  for (int i = 0; i < 30; ++i) {
    AgentAction a = agent->Act(s, 0.5, rng);
    agent->Remember(s, a, 1.0, s2, /*terminal=*/true);
    agent->Update(rng);
  }
  // After training on terminal reward 1, Q of the taken action ≈ 1-ish.
  const nn::Tensor q = agent->QValues(s, probe.params);
  double best = q.At(0, 0);
  for (int c = 1; c < q.cols(); ++c) best = std::max(best, q.At(0, c));
  EXPECT_GT(best, 0.3);
}

TEST(PdqnAgentTest, BpDqnCriticLearnsConstantReward) {
  ExpectCriticLearns([](Rng& r) { return MakeBpDqnAgent(SmallConfig(), r); });
}

TEST(PdqnAgentTest, PDqnCriticLearnsConstantReward) {
  ExpectCriticLearns([](Rng& r) { return MakePDqnAgent(SmallConfig(), r); });
}

TEST(PdqnAgentTest, NonFiniteRewardSkipsUpdateAndIsCounted) {
  // A NaN reward makes the critic loss and gradient norm NaN; the update
  // must skip the optimizer step instead of writing NaN into every weight.
  Rng init(3);
  auto agent = MakeBpDqnAgent(SmallConfig(), init);
  obs::Counter& nonfinite = obs::GetCounter("rl.nonfinite_updates");
  const int64_t before = nonfinite.value();
  Rng data(4);
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    const AugmentedState s = RandomState(data);
    const AugmentedState s2 = RandomState(data);
    const AgentAction action = agent->Act(s, 1.0, data);
    const double reward =
        i == 3 ? std::numeric_limits<double>::quiet_NaN() : 0.5;
    agent->Remember(s, action, reward, s2, /*terminal=*/false);
    agent->Update(rng);
  }
  EXPECT_GE(nonfinite.value() - before, 1);
  std::vector<nn::Var> params = agent->x_net().Params();
  for (const nn::Var& p : agent->q_net().Params()) params.push_back(p);
  for (const nn::Var& p : params) {
    for (int i = 0; i < p.value().size(); ++i) {
      ASSERT_TRUE(std::isfinite(p.value()[i]));
    }
  }
}

TEST(MpDqnTest, MaskedCriticIgnoresOtherParameters) {
  // Changing the parameter of an action must not change the other actions'
  // Q values — the property MP-DQN exists to guarantee.
  Rng init(9);
  MultiPassQNet critic(16, init);
  Rng rng(10);
  AugmentedState s = RandomState(rng);
  nn::Tensor x1(1, kNumBehaviors, {1.0, -2.0, 0.5});
  nn::Tensor x2 = x1;
  x2.At(0, 0) = -3.0;  // perturb only the `ll` parameter
  const nn::Tensor q1 =
      critic.ForwardBatch({&s}, nn::Var::Constant(x1)).value();
  const nn::Tensor q2 =
      critic.ForwardBatch({&s}, nn::Var::Constant(x2)).value();
  EXPECT_NE(q1.At(0, 0), q2.At(0, 0));
  EXPECT_DOUBLE_EQ(q1.At(0, 1), q2.At(0, 1));
  EXPECT_DOUBLE_EQ(q1.At(0, 2), q2.At(0, 2));
}

TEST(MpDqnTest, AgentLearnsConstantReward) {
  ExpectCriticLearns([](Rng& r) { return MakeMpDqnAgent(SmallConfig(), r); });
}

TEST(PdqnAgentTest, PQpAlternatesPhases) {
  Rng init(3);
  PdqnConfig config = SmallConfig();
  config.alternate_period = 5;
  auto agent = MakePQpAgent(config, init);
  EXPECT_EQ(agent->name(), "P-QP");
  EXPECT_EQ(agent->config().alternate_period, 5);
  // Smoke: updates run without issue through several phases.
  Rng rng(4);
  const AugmentedState s = RandomState(rng);
  for (int i = 0; i < 25; ++i) {
    AgentAction a = agent->Act(s, 0.5, rng);
    agent->Remember(s, a, 0.5, s, false);
    agent->Update(rng);
  }
}

TEST(PddpgAgentTest, ActAndUpdateSmoke) {
  PddpgConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 128;
  Rng init(5);
  PddpgAgent agent(config, init);
  Rng rng(6);
  const AugmentedState s = RandomState(rng);
  for (int i = 0; i < 20; ++i) {
    const AgentAction a = agent.Act(s, 0.5, rng);
    EXPECT_GE(a.maneuver.accel_mps2, -3.0);
    EXPECT_LE(a.maneuver.accel_mps2, 3.0);
    agent.Remember(s, a, 0.1, s, false);
    agent.Update(rng);
  }
}

DrlScConfig SmallDrlScConfig() {
  DrlScConfig c;
  c.hidden = 16;
  c.batch_size = 8;
  c.warmup_transitions = 8;
  c.buffer_capacity = 128;
  return c;
}

TEST(DrlScTest, ActionDecodingCoversGrid) {
  Rng init(5);
  DrlScAgent agent(SmallDrlScConfig(), init);
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < DrlScAgent::kNumActions; ++i) {
    const Maneuver m = agent.DecodeAction(i);
    EXPECT_GE(m.accel_mps2, -3.0);
    EXPECT_LE(m.accel_mps2, 3.0);
    seen.insert({static_cast<int>(m.lane_change),
                 static_cast<int>(m.accel_mps2 * 10)});
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(DrlScAgent::kNumActions));
}

AugmentedState StateWithFront(double d_lon, double v_rel, double ego_v,
                              int ego_lane, const perception::FeatureScale& fs,
                              const RoadConfig& road) {
  AugmentedState s;
  s.h = nn::Tensor(kStateHRows, kStateCols);
  s.f = nn::Tensor(kStateFRows, kStateCols);
  s.h.At(0, 0) = static_cast<double>(ego_lane) / road.num_lanes;
  s.h.At(0, 2) = ego_v / road.v_max_mps;
  // Mark every target phantom except the front one.
  for (int i = 0; i < kStateFRows; ++i) s.h.At(1 + i, 3) = 1.0;
  s.h.At(1 + perception::kFront, 0) = 0.0;
  s.h.At(1 + perception::kFront, 1) = d_lon * fs.lon;
  s.h.At(1 + perception::kFront, 2) = v_rel * fs.v;
  s.h.At(1 + perception::kFront, 3) = 0.0;
  return s;
}

TEST(DrlScTest, SafetyCheckVetoesTailgatingAcceleration) {
  DrlScConfig config = SmallDrlScConfig();
  Rng init(5);
  DrlScAgent agent(config, init);
  // Front vehicle 10 m ahead, 10 m/s slower: accelerating is unsafe.
  const AugmentedState s = StateWithFront(10.0, -10.0, 20.0, 3,
                                          config.scale, config.road);
  EXPECT_FALSE(agent.IsSafe(s, Maneuver{LaneChange::kKeep, 3.0}));
  // Free road in the left lane: the lane change is fine.
  EXPECT_TRUE(agent.IsSafe(s, Maneuver{LaneChange::kLeft, 0.0}));
}

TEST(DrlScTest, SafetyCheckVetoesOffRoadLaneChange) {
  DrlScConfig config = SmallDrlScConfig();
  Rng init(5);
  DrlScAgent agent(config, init);
  const AugmentedState s =
      StateWithFront(80.0, 0.0, 20.0, /*ego_lane=*/1, config.scale,
                     config.road);
  EXPECT_FALSE(agent.IsSafe(s, Maneuver{LaneChange::kLeft, 0.0}));
  EXPECT_TRUE(agent.IsSafe(s, Maneuver{LaneChange::kRight, 0.0}));
}

TEST(DrlScTest, ActNeverPicksUnsafeAction) {
  DrlScConfig config = SmallDrlScConfig();
  Rng init(5);
  DrlScAgent agent(config, init);
  Rng rng(6);
  const AugmentedState s = StateWithFront(8.0, -12.0, 20.0, 3,
                                          config.scale, config.road);
  for (int i = 0; i < 30; ++i) {
    const AgentAction a = agent.Act(s, 1.0, rng);
    // Whatever it picks must pass its own safety check or be the fallback
    // emergency brake.
    const bool is_brake = a.maneuver.lane_change == LaneChange::kKeep &&
                          a.maneuver.accel_mps2 == -config.road.a_max_mps2;
    EXPECT_TRUE(agent.IsSafe(s, a.maneuver) || is_brake);
  }
}

}  // namespace
}  // namespace head::rl
