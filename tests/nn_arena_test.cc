// Arena-tape and tensor-pool semantics (ISSUE 5): a training update must be
// bitwise identical whether it runs on a cold arena (first tape ever on the
// thread) or a warm one (nodes and buffers recycled from earlier graphs),
// a warmed training step must not grow the arena or miss the pool, stale
// handles must be detectable after a reset, and the pool must actually
// recycle buffers. The cold/warm runs execute on fresh std::threads because
// arena and pool are thread-local — a new thread is the only true cold start
// inside one process.
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/tensor.h"
#include "nn/tensor_pool.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/pdqn_agent.h"

namespace head {
namespace {

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

/// A small BP-DQN agent whose replay buffer holds `transitions` seeded
/// random transitions — enough to update from.
std::unique_ptr<rl::PdqnAgent> FilledBpDqnAgent(int transitions) {
  rl::PdqnConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 64;
  Rng init(11);
  auto agent = rl::MakeBpDqnAgent(config, init);
  Rng data(21);
  for (int i = 0; i < transitions; ++i) {
    const rl::AugmentedState s = RandomState(data);
    const rl::AugmentedState s2 = RandomState(data);
    rl::AgentAction action;
    action.behavior = static_cast<int>(data.UniformInt(0, 2));
    action.params = nn::Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    action.maneuver.lane_change = rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    agent->Remember(s, action, data.Uniform(-1.0, 1.0), s2, i % 5 == 0);
  }
  return agent;
}

/// One full BP-DQN update with fixed seeds; returns every parameter tensor.
std::vector<nn::Tensor> BpDqnUpdateParams() {
  auto agent = FilledBpDqnAgent(12);
  Rng rng(31);
  agent->Update(rng);
  std::vector<nn::Tensor> out;
  for (const nn::Var& p : agent->x_net().Params()) out.push_back(p.value());
  for (const nn::Var& p : agent->q_net().Params()) out.push_back(p.value());
  return out;
}

perception::PredictionSample RandomSample(Rng& rng) {
  perception::PredictionSample s;
  s.graph.steps.resize(3);
  for (auto& step : s.graph.steps) {
    for (auto& target : step.feat) {
      for (auto& node : target) {
        for (double& f : node) f = rng.Uniform(-1.0, 1.0);
      }
    }
  }
  for (int i = 0; i < perception::kNumAreas; ++i) {
    for (int c = 0; c < 3; ++c) {
      s.graph.target_rel_current[i][c] = rng.Uniform(-1.0, 1.0);
      s.truth.value[i][c] = rng.Uniform(-1.0, 1.0);
    }
    s.truth.valid[i] = rng.Uniform(0.0, 1.0) < 0.7;
  }
  return s;
}

perception::LstGat SmallLstGat() {
  perception::LstGatConfig net_config;
  net_config.d_phi1 = 8;
  net_config.d_phi3 = 8;
  net_config.d_lstm = 8;
  Rng init(17);
  return perception::LstGat(net_config, init);
}

std::vector<perception::PredictionSample> RandomSamples(int count) {
  Rng data(18);
  std::vector<perception::PredictionSample> samples;
  for (int i = 0; i < count; ++i) samples.push_back(RandomSample(data));
  return samples;
}

/// One LST-GAT training epoch with fixed seeds; returns every parameter.
std::vector<nn::Tensor> LstGatUpdateParams() {
  perception::LstGat model = SmallLstGat();
  const std::vector<perception::PredictionSample> train = RandomSamples(6);
  perception::PredictionTrainConfig config;
  config.epochs = 1;
  config.batch_size = 4;
  perception::TrainPredictor(model, train, config);
  std::vector<nn::Tensor> out;
  for (const nn::Var& p : model.Params()) out.push_back(p.value());
  return out;
}

/// Runs `work` on a fresh thread. With `warm` set, first churns that
/// thread's arena and pool through several throwaway training graphs so
/// `work` runs entirely on recycled nodes and pooled buffers.
std::vector<nn::Tensor> RunOnFreshThread(bool warm,
                                         std::vector<nn::Tensor> (*work)()) {
  std::vector<nn::Tensor> result;
  std::thread t([&result, warm, work] {
    if (warm) {
      for (int i = 0; i < 3; ++i) BpDqnUpdateParams();
      LstGatUpdateParams();
      EXPECT_GT(nn::GraphArena::ThreadLocal().stats().resets, 0u);
      EXPECT_GT(nn::TensorPool::Get()->stats().hits, 0u);
    }
    result = work();
  });
  t.join();
  return result;
}

void ExpectBitwiseEqual(const std::vector<nn::Tensor>& a,
                        const std::vector<nn::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].rows(), b[p].rows());
    ASSERT_EQ(a[p].cols(), b[p].cols());
    for (int i = 0; i < a[p].size(); ++i) {
      EXPECT_EQ(a[p][i], b[p][i]) << "param " << p << " element " << i;
    }
  }
}

TEST(ArenaParityTest, BpDqnUpdateBitwiseColdVsWarmArena) {
  const auto cold = RunOnFreshThread(/*warm=*/false, &BpDqnUpdateParams);
  const auto warm = RunOnFreshThread(/*warm=*/true, &BpDqnUpdateParams);
  ExpectBitwiseEqual(cold, warm);
}

TEST(ArenaParityTest, LstGatUpdateBitwiseColdVsWarmArena) {
  const auto cold = RunOnFreshThread(/*warm=*/false, &LstGatUpdateParams);
  const auto warm = RunOnFreshThread(/*warm=*/true, &LstGatUpdateParams);
  ExpectBitwiseEqual(cold, warm);
}

// ---- Steady-state allocation ----

TEST(ArenaSteadyStateTest, WarmedAgentUpdateAllocatesNothing) {
  auto agent = FilledBpDqnAgent(16);
  Rng rng(31);
  for (int u = 0; u < 4; ++u) agent->Update(rng);  // warm the arena + pool
  const uint64_t before = nn::AllocEvents();
  for (int u = 0; u < 4; ++u) agent->Update(rng);
  EXPECT_EQ(nn::AllocEvents(), before)
      << "a warmed BP-DQN update must not grow the arena or miss the pool";
}

TEST(ArenaSteadyStateTest, WarmedLstGatTrainStepAllocatesNothing) {
  perception::LstGat model = SmallLstGat();
  const std::vector<perception::PredictionSample> train = RandomSamples(6);
  perception::PredictionTrainConfig config;
  config.epochs = 1;
  config.batch_size = 3;
  // Two warm-up epochs: the second runs the measured path once, so the pool
  // holds every buffer that path keeps in rotation.
  perception::TrainPredictor(model, train, config);
  perception::TrainPredictor(model, train, config);
  const uint64_t before = nn::AllocEvents();
  perception::TrainPredictor(model, train, config);
  EXPECT_EQ(nn::AllocEvents(), before)
      << "a warmed LST-GAT train step must not grow the arena or miss the "
         "pool";
}

TEST(ArenaEpochTest, HandlesDieAtResetAndParamsSurvive) {
  nn::ResetTape();
  const nn::Var param = nn::Var::Param(nn::Tensor::Full(1, 2, 3.0));
  const nn::Var constant = nn::Var::Constant(nn::Tensor::Full(1, 2, 4.0));
  const nn::Var sum = nn::Add(param, constant);
  EXPECT_TRUE(param.alive());
  EXPECT_TRUE(constant.alive());
  EXPECT_TRUE(sum.alive());

  nn::ResetTape();
  // Arena handles are stale now; the persistent Param is not.
  EXPECT_FALSE(constant.alive());
  EXPECT_FALSE(sum.alive());
  EXPECT_TRUE(param.alive());

  // A recycled node gets a new epoch: the fresh handle is alive even though
  // it reuses the storage the stale handles point at.
  const nn::Var fresh = nn::Var::Constant(nn::Tensor::Full(1, 2, 5.0));
  EXPECT_TRUE(fresh.alive());
  EXPECT_FALSE(constant.alive());
  EXPECT_EQ(fresh.value()[0], 5.0);
}

TEST(ArenaEpochTest, ResetRecyclesNodesWithoutGrowingCapacity) {
  nn::GraphArena& arena = nn::GraphArena::ThreadLocal();
  nn::ResetTape();
  const nn::Var a = nn::Var::Constant(nn::Tensor::Full(2, 2, 1.0));
  const nn::Var b = nn::Var::Constant(nn::Tensor::Full(2, 2, 2.0));
  nn::Var sum = nn::Add(a, b);
  const uint64_t created = arena.stats().nodes_created;
  for (int i = 0; i < 100; ++i) {
    nn::ResetTape();
    const nn::Var a2 = nn::Var::Constant(nn::Tensor::Full(2, 2, 1.0));
    const nn::Var b2 = nn::Var::Constant(nn::Tensor::Full(2, 2, 2.0));
    sum = nn::Add(a2, b2);
    EXPECT_EQ(sum.value()[0], 3.0);
  }
  // Same-shaped regions reuse the same nodes — no new chunk allocations.
  EXPECT_EQ(arena.stats().nodes_created, created);
}

TEST(TensorPoolTest, RecyclesBuffersAndCountsHits) {
  nn::TensorPool* pool = nn::TensorPool::Get();
  ASSERT_NE(pool, nullptr);
  // Odd size: this bucket is unlikely to be touched by other tests.
  const size_t n = (size_t{1} << 20) + 3;

  const uint64_t misses0 = pool->stats().misses;
  std::vector<double> buf = pool->Acquire(n);
  EXPECT_GE(buf.capacity(), n);
  EXPECT_EQ(pool->stats().misses, misses0 + 1);

  buf.assign(n, 1.5);
  const double* data = buf.data();
  const uint64_t released0 = pool->stats().released;
  pool->Release(std::move(buf));
  EXPECT_EQ(pool->stats().released, released0 + 1);

  const uint64_t hits0 = pool->stats().hits;
  std::vector<double> again = pool->Acquire(n);
  EXPECT_EQ(pool->stats().hits, hits0 + 1);
  EXPECT_EQ(pool->stats().misses, misses0 + 1);  // no second heap trip
  EXPECT_EQ(again.data(), data);                 // literally the same buffer
  pool->Release(std::move(again));
}

TEST(TensorPoolTest, TensorRoundTripReusesPooledStorage) {
  const int rows = 37, cols = 53;  // another otherwise-unused size class
  const double* data = nullptr;
  {
    nn::Tensor t(rows, cols);
    data = t.data().data();
  }  // destructor parks the buffer in the pool
  nn::Tensor t2(rows, cols, 0.25);
  EXPECT_EQ(t2.data().data(), data);
  EXPECT_EQ(t2.At(rows - 1, cols - 1), 0.25);
}

TEST(TensorPoolTest, ZeroSizedAcquireAllocatesNothing) {
  nn::TensorPool* pool = nn::TensorPool::Get();
  const uint64_t misses0 = pool->stats().misses;
  const uint64_t hits0 = pool->stats().hits;
  const std::vector<double> buf = pool->Acquire(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), 0u);
  EXPECT_EQ(pool->stats().misses, misses0);
  EXPECT_EQ(pool->stats().hits, hits0);
}

}  // namespace
}  // namespace head
