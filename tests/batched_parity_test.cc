// Gradient/value parity between the vectorized minibatch training paths and
// the per-sample reference loops they replaced, which live in this file:
// identically-seeded learners must end up with the same parameters (within
// fp accumulation-order noise, ≪ 1e-9) whichever loop they train through.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/arena.h"
#include "nn/autograd.h"
#include "nn/optimizer.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/mp_dqn.h"
#include "rl/nets.h"
#include "rl/pdqn_agent.h"
#include "rl/replay_buffer.h"

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

// ---- Per-sample P-DQN reference ----
//
// The per-transition update that PdqnAgent's minibatch update replaced,
// kept here as the parity oracle. It owns the same nets, optimizers and
// replay buffer as the agent, built in the same order from the same seed,
// and runs one autograd graph per transition through batch-of-one forwards.

/// Net factories of one P-DQN-family agent, as its Make*Agent passes them.
struct NetFactories {
  rl::PdqnAgent::XFactory make_x;
  rl::PdqnAgent::QFactory make_q;
};

double MaxVal(const nn::Tensor& row) {
  double m = row.At(0, 0);
  for (int c = 1; c < row.cols(); ++c) m = std::max(m, row.At(0, c));
  return m;
}

class PerSampleLearner {
 public:
  PerSampleLearner(const rl::PdqnConfig& config, const NetFactories& nets,
                   Rng& init_rng)
      : config_(config),
        x_(nets.make_x(init_rng)),
        x_target_(nets.make_x(init_rng)),
        q_(nets.make_q(init_rng)),
        q_target_(nets.make_q(init_rng)),
        q_opt_(q_->Params(), config.learning_rate),
        x_opt_(x_->Params(), config.learning_rate * config.actor_lr_scale),
        buffer_(config.buffer_capacity) {
    // Joint optimization only: no update_every / P-QP alternation schedule.
    EXPECT_EQ(config.update_every, 1);
    EXPECT_EQ(config.alternate_period, 0);
    x_target_->CopyParamsFrom(*x_);
    q_target_->CopyParamsFrom(*q_);
  }

  void Remember(const rl::AugmentedState& state,
                const rl::AgentAction& action, double reward,
                const rl::AugmentedState& next_state, bool terminal) {
    rl::Transition t;
    t.state = state;
    t.behavior = action.behavior;
    t.params = action.params;
    t.reward = reward;
    t.next_state = next_state;
    t.terminal = terminal;
    const int copies =
        terminal ? std::max(1, config_.terminal_replay_boost) : 1;
    for (int i = 0; i < copies; ++i) buffer_.Push(t);
  }

  void Update(Rng& rng) {
    if (buffer_.size() < static_cast<size_t>(config_.warmup_transitions)) {
      return;
    }
    const std::vector<const rl::Transition*> batch =
        buffer_.Sample(config_.batch_size, rng);
    UpdateCritic(batch);
    UpdateActor(batch);
    x_target_->SoftUpdateFrom(*x_, config_.tau);
    q_target_->SoftUpdateFrom(*q_, config_.tau);
  }

  const rl::XNet& x_net() const { return *x_; }
  const rl::QNet& q_net() const { return *q_; }

 private:
  void UpdateCritic(const std::vector<const rl::Transition*>& batch) {
    nn::ResetTape();
    q_opt_.ZeroGrad();
    std::vector<nn::Var> losses;
    losses.reserve(batch.size());
    for (const rl::Transition* t : batch) {
      double y = t->reward;
      if (!t->terminal) {
        const nn::Var x_next = x_target_->ForwardBatch({&t->next_state});
        const nn::Tensor q_next =
            q_target_->ForwardBatch({&t->next_state}, x_next).value();
        y += config_.gamma * MaxVal(q_next);
      }
      const nn::Var q_all =
          q_->ForwardBatch({&t->state}, nn::Var::Constant(t->params));
      const nn::Var q_b = nn::SliceCols(q_all, t->behavior, t->behavior + 1);
      losses.push_back(nn::Scale(nn::Square(nn::AddScalar(q_b, -y)), 0.5));
    }
    nn::Var loss = losses[0];
    for (size_t i = 1; i < losses.size(); ++i) loss = nn::Add(loss, losses[i]);
    loss = nn::Scale(loss, 1.0 / losses.size());
    nn::Backward(loss);
    q_opt_.ClipGradNorm(10.0);
    q_opt_.Step();
  }

  void UpdateActor(const std::vector<const rl::Transition*>& batch) {
    nn::ResetTape();
    x_opt_.ZeroGrad();
    q_->ZeroGrad();  // critic grads from this pass are discarded
    std::vector<nn::Var> losses;
    losses.reserve(batch.size());
    for (const rl::Transition* t : batch) {
      const nn::Var x = x_->ForwardBatch({&t->state});
      const nn::Var q_all = q_->ForwardBatch({&t->state}, x);
      losses.push_back(nn::Scale(nn::Sum(q_all), -1.0));  // Eq. (23)
    }
    nn::Var loss = losses[0];
    for (size_t i = 1; i < losses.size(); ++i) loss = nn::Add(loss, losses[i]);
    loss = nn::Scale(loss, 1.0 / losses.size());
    nn::Backward(loss);
    x_opt_.ClipGradNorm(10.0);
    x_opt_.Step();
  }

  rl::PdqnConfig config_;
  std::unique_ptr<rl::XNet> x_;
  std::unique_ptr<rl::XNet> x_target_;
  std::unique_ptr<rl::QNet> q_;
  std::unique_ptr<rl::QNet> q_target_;
  nn::Adam q_opt_;
  nn::Adam x_opt_;
  rl::ReplayBuffer buffer_;
};

using AgentFactory = std::function<std::unique_ptr<rl::PdqnAgent>(
    const rl::PdqnConfig&, Rng&)>;

// Trains an agent and the per-sample reference, identically initialized, on
// identical transitions with identical rng streams, and requires parameter
// agreement.
void ExpectUpdateParity(const AgentFactory& make_agent,
                        NetFactories (*make_nets)(const rl::PdqnConfig&)) {
  rl::PdqnConfig config;
  config.hidden = 16;
  config.batch_size = 8;
  config.warmup_transitions = 8;
  config.buffer_capacity = 128;

  Rng init_a(11);
  Rng init_b(11);
  auto agent = make_agent(config, init_a);
  PerSampleLearner reference(config, make_nets(config), init_b);

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
    agent->Remember(s, action, reward, s2, terminal);
    reference.Remember(s, action, reward, s2, terminal);
    agent->Update(rng_a);
    reference.Update(rng_b);
  }

  ExpectParamsNear(agent->x_net().Params(), reference.x_net().Params());
  ExpectParamsNear(agent->q_net().Params(), reference.q_net().Params());
}

NetFactories BpNets(const rl::PdqnConfig& c) {
  return {
      [c](Rng& r) { return std::make_unique<rl::BpXNet>(c.hidden, c.a_max, r); },
      [c](Rng& r) { return std::make_unique<rl::BpQNet>(c.hidden, r); }};
}

NetFactories FlatNets(const rl::PdqnConfig& c) {
  return {
      [c](Rng& r) { return std::make_unique<rl::FlatXNet>(c.hidden, c.a_max, r); },
      [c](Rng& r) { return std::make_unique<rl::FlatQNet>(c.hidden, r); }};
}

NetFactories MultiPassNets(const rl::PdqnConfig& c) {
  return {
      [c](Rng& r) { return std::make_unique<rl::FlatXNet>(c.hidden, c.a_max, r); },
      [c](Rng& r) { return std::make_unique<rl::MultiPassQNet>(c.hidden, r); }};
}

TEST(RlBatchedParityTest, BpDqnUpdatesMatchPerSample) {
  ExpectUpdateParity(rl::MakeBpDqnAgent, BpNets);
}

TEST(RlBatchedParityTest, PDqnUpdatesMatchPerSample) {
  ExpectUpdateParity(rl::MakePDqnAgent, FlatNets);
}

TEST(RlBatchedParityTest, MpDqnUpdatesMatchPerSample) {
  ExpectUpdateParity(rl::MakeMpDqnAgent, MultiPassNets);
}

// Batched == batch-of-one rows, for the BP, flat and multi-pass critics.
TEST(RlBatchedParityTest, BatchedForwardMatchesPerSampleRows) {
  const std::pair<const char*, AgentFactory> agents[] = {
      {"BP-DQN", rl::MakeBpDqnAgent},
      {"P-DQN", rl::MakePDqnAgent},
      {"MP-DQN", rl::MakeMpDqnAgent},
  };
  for (const auto& [name, make] : agents) {
    SCOPED_TRACE(name);
    Rng init(5);
    rl::PdqnConfig config;
    config.hidden = 16;
    auto agent = make(config, init);
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

// ---- Per-sample LST-GAT training reference ----
//
// TrainPredictor's per-sample loop, kept here as the parity oracle: one
// autograd graph per sample, the masked scaled MSE of Eq. (14) summed and
// averaged per minibatch, then one clipped Adam step.

/// Masked scaled MSE of one sample as a differentiable Var.
nn::Var SampleLoss(const perception::StatePredictor& model,
                   const perception::PredictionSample& s) {
  const nn::Var pred = model.ForwardScaled(s.graph);
  const nn::Var truth = nn::Var::Constant(
      perception::ScaledResidualTruth(s.graph, s.truth, model.scale()));
  const nn::Var mask = nn::Var::Constant(perception::TruthMask(s.truth));
  int valid = 0;
  for (bool v : s.truth.valid) valid += v ? 1 : 0;
  if (valid == 0) {
    return nn::Var::Constant(nn::Tensor::Zeros(1, 1));
  }
  const nn::Var err = nn::Mul(nn::Sub(pred, truth), mask);
  return nn::Scale(nn::Sum(nn::Square(err)), 1.0 / (3.0 * valid));
}

/// Trains `model` with per-sample graphs on TrainPredictor's shuffle and
/// minibatch schedule; returns the epoch losses.
std::vector<double> TrainPerSample(
    perception::StatePredictor& model,
    const std::vector<perception::PredictionSample>& train,
    const perception::PredictionTrainConfig& config) {
  nn::Adam opt(model.Params(), config.learning_rate);
  Rng rng(config.shuffle_seed);
  std::vector<int> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> epoch_losses;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    double epoch_loss = 0.0;
    for (size_t b = 0; b < order.size(); b += config.batch_size) {
      const size_t end = std::min(order.size(), b + config.batch_size);
      nn::ResetTape();
      opt.ZeroGrad();
      std::vector<nn::Var> losses;
      losses.reserve(end - b);
      for (size_t k = b; k < end; ++k) {
        losses.push_back(SampleLoss(model, train[order[k]]));
      }
      nn::Var batch_loss = losses[0];
      for (size_t k = 1; k < losses.size(); ++k) {
        batch_loss = nn::Add(batch_loss, losses[k]);
      }
      batch_loss = nn::Scale(batch_loss, 1.0 / losses.size());
      const double step_loss = batch_loss.value()[0];
      nn::Backward(batch_loss);
      epoch_loss += step_loss * (end - b);
      opt.ClipGradNorm(5.0);
      opt.Step();
    }
    epoch_losses.push_back(epoch_loss / train.size());
  }
  return epoch_losses;
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

  const auto result_a = perception::TrainPredictor(model_a, train, config);
  const std::vector<double> losses_b = TrainPerSample(model_b, train, config);

  ASSERT_EQ(result_a.epoch_losses.size(), losses_b.size());
  for (size_t e = 0; e < losses_b.size(); ++e) {
    EXPECT_NEAR(result_a.epoch_losses[e], losses_b[e], kTol);
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
