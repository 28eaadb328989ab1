// Gradient/value parity between the vectorized minibatch training paths and
// the per-sample reference paths they replaced: identically-seeded learners
// must end up with the same parameters (within fp accumulation-order noise,
// ≪ 1e-9) whichever path they train through.
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/arena.h"
#include "nn/autograd.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/nets.h"
#include "rl/pdqn_agent.h"

namespace head {
namespace {

constexpr double kTol = 1e-9;

void ExpectParamsNear(const std::vector<nn::Var>& a,
                      const std::vector<nn::Var>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    const nn::Tensor& ta = a[p].value();
    const nn::Tensor& tb = b[p].value();
    ASSERT_EQ(ta.size(), tb.size());
    for (int i = 0; i < ta.size(); ++i) {
      ASSERT_NEAR(ta[i], tb[i], kTol) << "param " << p << " element " << i;
    }
  }
}

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

// Trains two identically-initialized agents on identical transitions with
// identical rng streams — one through the batched update path, one through
// the per-sample reference — and requires parameter agreement.
void ExpectUpdateParity(
    const std::function<std::unique_ptr<rl::PdqnAgent>(const rl::PdqnConfig&,
                                                       Rng&)>& make) {
  rl::PdqnConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 128;

  rl::PdqnConfig batched = config;
  batched.batched_updates = true;
  rl::PdqnConfig reference = config;
  reference.batched_updates = false;

  Rng init_a(11);
  Rng init_b(11);
  auto agent_a = make(batched, init_a);
  auto agent_b = make(reference, init_b);

  Rng data(21);
  Rng rng_a(31);
  Rng rng_b(31);
  for (int i = 0; i < 40; ++i) {
    const rl::AugmentedState s = RandomState(data);
    const rl::AugmentedState s2 = RandomState(data);
    rl::AgentAction action;
    action.behavior = static_cast<int>(data.UniformInt(0, 2));
    action.params = nn::Tensor::Uniform(1, rl::kNumBehaviors, -3.0, 3.0, data);
    action.maneuver.lane_change = rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    const double reward = data.Uniform(-1.0, 1.0);
    const bool terminal = i % 7 == 0;
    agent_a->Remember(s, action, reward, s2, terminal);
    agent_b->Remember(s, action, reward, s2, terminal);
    agent_a->Update(rng_a);
    agent_b->Update(rng_b);
  }

  ExpectParamsNear(agent_a->x_net().Params(), agent_b->x_net().Params());
  ExpectParamsNear(agent_a->q_net().Params(), agent_b->q_net().Params());
}

TEST(RlBatchedParityTest, BpDqnUpdatesMatchPerSample) {
  ExpectUpdateParity([](const rl::PdqnConfig& c, Rng& rng) {
    return rl::MakeBpDqnAgent(c, rng);
  });
}

TEST(RlBatchedParityTest, PDqnUpdatesMatchPerSample) {
  ExpectUpdateParity([](const rl::PdqnConfig& c, Rng& rng) {
    return rl::MakePDqnAgent(c, rng);
  });
}

TEST(RlBatchedParityTest, BatchedForwardMatchesPerSampleRows) {
  Rng init(5);
  rl::PdqnConfig config;
  config.hidden = 16;
  auto agent = rl::MakeBpDqnAgent(config, init);
  Rng data(6);
  std::vector<rl::AugmentedState> states;
  for (int i = 0; i < 5; ++i) states.push_back(RandomState(data));
  std::vector<const rl::AugmentedState*> batch;
  for (const auto& s : states) batch.push_back(&s);

  const nn::Var x_batch = agent->x_net().ForwardBatch(batch);
  const nn::Var q_batch = agent->q_net().ForwardBatch(batch, x_batch);
  ASSERT_EQ(x_batch.value().rows(), 5);
  ASSERT_EQ(q_batch.value().rows(), 5);
  for (int i = 0; i < 5; ++i) {
    const nn::Tensor x_i = agent->ActionParams(states[i]);
    const nn::Tensor q_i = agent->QValues(states[i], x_i);
    for (int c = 0; c < rl::kNumBehaviors; ++c) {
      EXPECT_DOUBLE_EQ(x_batch.value().At(i, c), x_i.At(0, c));
      EXPECT_DOUBLE_EQ(q_batch.value().At(i, c), q_i.At(0, c));
    }
  }
}

perception::PredictionSample RandomSample(Rng& rng, int z, bool any_valid) {
  perception::PredictionSample s;
  s.graph.steps.resize(z);
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
    s.truth.valid[i] = any_valid && rng.Uniform(0.0, 1.0) < 0.7;
  }
  return s;
}

TEST(PerceptionBatchedParityTest, LstGatBatchedForwardMatchesPerSample) {
  Rng init(9);
  perception::LstGatConfig config;
  config.d_phi1 = 8;
  config.d_phi3 = 8;
  config.d_lstm = 8;
  perception::LstGat model(config, init);
  Rng data(10);
  std::vector<perception::PredictionSample> samples;
  for (int i = 0; i < 3; ++i) samples.push_back(RandomSample(data, 4, true));
  std::vector<const perception::StGraph*> graphs;
  for (const auto& s : samples) graphs.push_back(&s.graph);

  const nn::Var batch = model.ForwardScaledBatch(graphs);
  ASSERT_EQ(batch.value().rows(), 3 * perception::kNumAreas);
  for (int s = 0; s < 3; ++s) {
    const nn::Var single = model.ForwardScaled(samples[s].graph);
    for (int i = 0; i < perception::kNumAreas; ++i) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_DOUBLE_EQ(
            batch.value().At(s * perception::kNumAreas + i, c),
            single.value().At(i, c));
      }
    }
  }
}

TEST(PerceptionBatchedParityTest, MixedDepthBatchFallsBackCorrectly) {
  Rng init(9);
  perception::LstGatConfig config;
  config.d_phi1 = 8;
  config.d_phi3 = 8;
  config.d_lstm = 8;
  perception::LstGat model(config, init);
  Rng data(12);
  const perception::PredictionSample a = RandomSample(data, 3, true);
  const perception::PredictionSample b = RandomSample(data, 5, true);
  const nn::Var batch = model.ForwardScaledBatch({&a.graph, &b.graph});
  ASSERT_EQ(batch.value().rows(), 2 * perception::kNumAreas);
  const nn::Var sa = model.ForwardScaled(a.graph);
  const nn::Var sb = model.ForwardScaled(b.graph);
  for (int i = 0; i < perception::kNumAreas; ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(batch.value().At(i, c), sa.value().At(i, c));
      EXPECT_DOUBLE_EQ(batch.value().At(perception::kNumAreas + i, c),
                       sb.value().At(i, c));
    }
  }
}

TEST(PerceptionBatchedParityTest, TrainingMatchesPerSamplePath) {
  perception::LstGatConfig net_config;
  net_config.d_phi1 = 8;
  net_config.d_phi3 = 8;
  net_config.d_lstm = 8;
  Rng init_a(17);
  Rng init_b(17);
  perception::LstGat model_a(net_config, init_a);
  perception::LstGat model_b(net_config, init_b);

  Rng data(18);
  std::vector<perception::PredictionSample> train;
  for (int i = 0; i < 11; ++i) {
    // Include one fully-masked sample: both paths must give it zero loss
    // and zero gradient.
    train.push_back(RandomSample(data, 3, /*any_valid=*/i != 4));
  }

  perception::PredictionTrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;  // uneven final batch of 3
  perception::PredictionTrainConfig batched = config;
  batched.batched = true;
  perception::PredictionTrainConfig reference = config;
  reference.batched = false;

  const auto result_a =
      perception::TrainPredictor(model_a, train, batched);
  const auto result_b =
      perception::TrainPredictor(model_b, train, reference);

  ASSERT_EQ(result_a.epoch_losses.size(), result_b.epoch_losses.size());
  for (size_t e = 0; e < result_a.epoch_losses.size(); ++e) {
    EXPECT_NEAR(result_a.epoch_losses[e], result_b.epoch_losses[e], kTol);
  }
  ExpectParamsNear(model_a.Params(), model_b.Params());
}

// ---- Batch-1 LST-GAT inference ----
//
// Predict runs the one-graph case of the stacked minibatch pass, so its
// output must equal the matching 6-row block of ForwardScaledBatch bit for
// bit — on the first Predict of a depth and on every later, warm-tape one.

/// Decodes rows [6·s, 6·s+6) of a (B·6×3) scaled-residual block the way
/// StatePredictor::Predict does.
perception::Prediction DecodeBlock(const perception::StGraph& graph,
                                   const nn::Tensor& value, int s,
                                   const perception::FeatureScale& scale) {
  perception::Prediction pred;
  for (int i = 0; i < perception::kNumAreas; ++i) {
    const int r = s * perception::kNumAreas + i;
    pred[i].d_lat_m = graph.target_rel_current[i][0] + value.At(r, 0) / scale.lat;
    pred[i].d_lon_m = graph.target_rel_current[i][1] + value.At(r, 1) / scale.lon;
    pred[i].v_rel_mps =
        graph.target_rel_current[i][2] + value.At(r, 2) / scale.v;
  }
  return pred;
}

void ExpectPredictionBitwise(const perception::Prediction& a,
                             const perception::Prediction& b) {
  for (int i = 0; i < perception::kNumAreas; ++i) {
    EXPECT_EQ(a[i].d_lat_m, b[i].d_lat_m) << "target " << i;
    EXPECT_EQ(a[i].d_lon_m, b[i].d_lon_m) << "target " << i;
    EXPECT_EQ(a[i].v_rel_mps, b[i].v_rel_mps) << "target " << i;
  }
}

TEST(LstGatBatchOneTest, PredictMatchesBatchBlockInEveryMode) {
  // Full-size model: the LSTM's 6×64·64×256 gate GEMMs take the in-place
  // small-m kernel at batch 1 and the packed kernel at batch 8.
  constexpr int kBatch = 8;
  for (const int z : {1, 5}) {
    SCOPED_TRACE(::testing::Message() << "z=" << z);
    Rng init(23);
    perception::LstGat model(perception::LstGatConfig{}, init);
    Rng data(24 + z);
    std::vector<perception::PredictionSample> samples;
    for (int s = 0; s < kBatch; ++s) {
      samples.push_back(RandomSample(data, z, true));
    }
    std::vector<const perception::StGraph*> graphs;
    for (const auto& s : samples) graphs.push_back(&s.graph);

    nn::Tensor batch;
    {
      const nn::NoGradGuard no_grad;
      batch = model.ForwardScaledBatch(graphs).value();
    }
    ASSERT_EQ(batch.rows(), kBatch * perception::kNumAreas);

    for (const int pass : {1, 2}) {
      for (int s = 0; s < kBatch; ++s) {
        SCOPED_TRACE(::testing::Message()
                     << "pass " << pass << ", sample " << s);
        ExpectPredictionBitwise(model.Predict(samples[s].graph),
                                DecodeBlock(samples[s].graph, batch, s,
                                            model.scale()));
      }
    }
  }
}

TEST(LstGatBatchOneTest, PredictRunsTheStackedGraph) {
  // The stacked batch-1 graph at z = 5 is ~130 nodes; the per-target loop
  // it replaced built ~460. The bound catches the loop's return.
  Rng init(23);
  perception::LstGat model(perception::LstGatConfig{}, init);
  Rng data(29);
  const perception::PredictionSample sample = RandomSample(data, 5, true);
  model.Predict(sample.graph);  // resets the tape first: its nodes only
  EXPECT_LE(nn::GraphArena::ThreadLocal().nodes_in_use(), 150u);
}

}  // namespace
}  // namespace head
