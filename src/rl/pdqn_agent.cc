#include "rl/pdqn_agent.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"

namespace head::rl {

namespace {

int ArgMax(const nn::Tensor& row) {
  HEAD_DCHECK(row.rows() == 1 && row.cols() > 0);
  int best = 0;
  for (int c = 1; c < row.cols(); ++c) {
    if (row.At(0, c) > row.At(0, best)) best = c;
  }
  return best;
}

double MaxVal(const nn::Tensor& row) {
  double m = row.At(0, 0);
  for (int c = 1; c < row.cols(); ++c) m = std::max(m, row.At(0, c));
  return m;
}

}  // namespace

PdqnAgent::PdqnAgent(std::string name, const PdqnConfig& config,
                     const XFactory& make_x, const QFactory& make_q,
                     Rng& init_rng)
    : name_(std::move(name)),
      config_(config),
      x_(make_x(init_rng)),
      x_target_(make_x(init_rng)),
      q_(make_q(init_rng)),
      q_target_(make_q(init_rng)),
      q_opt_(q_->Params(), config.learning_rate),
      x_opt_(x_->Params(), config.learning_rate * config.actor_lr_scale),
      buffer_(config.buffer_capacity) {
  x_target_->CopyParamsFrom(*x_);
  q_target_->CopyParamsFrom(*q_);
}

AgentAction PdqnAgent::Act(const AugmentedState& state, double epsilon,
                           Rng& rng) {
  HEAD_SPAN("rl.act");  // profiler root for action selection
  nn::ResetTape();  // recycle the previous action's graph nodes
  const nn::NoGradGuard no_grad;  // action selection never backprops
  nn::Tensor x = x_->Forward(state).value();  // (1×3)

  // Critic evaluation, shared by the greedy branch and the audit trail.
  const auto critic_q = [&](const nn::Tensor& xin) -> nn::Tensor {
    return q_->Forward(state, nn::Var::Constant(xin)).value();
  };

  int b;
  bool explored = false;
  if (epsilon > 0.0 && rng.Uniform(0.0, 1.0) < epsilon) {
    explored = true;
    if (rng.Uniform(0.0, 1.0) < config_.explore_keep_bias) {
      b = kBehaviorKeep;
    } else {
      b = rng.Bernoulli(0.5) ? kBehaviorLeft : kBehaviorRight;
    }
  } else {
    const nn::Tensor q = critic_q(x);
    b = ArgMax(q);
    if (obs::RecordingEnabled()) {
      obs::StepRecord& rec = obs::ScratchRecord();
      for (int c = 0; c < obs::kRecordBehaviors && c < q.cols(); ++c) {
        rec.q[c] = q.At(0, c);
      }
      rec.has_q = 1;
    }
  }
  if (obs::RecordingEnabled() && explored) {
    // Exploration skipped the critic; run it for the audit trail only. A
    // pure forward pass draws no randomness, so the recorded run and its
    // replay stay in RNG lockstep whether or not recording was on.
    const nn::Tensor q = critic_q(x);
    obs::StepRecord& rec = obs::ScratchRecord();
    for (int c = 0; c < obs::kRecordBehaviors && c < q.cols(); ++c) {
      rec.q[c] = q.At(0, c);
    }
    rec.has_q = 1;
  }
  double accel = x.At(0, b);
  if (epsilon > 0.0) {
    const double noise_std = std::max(epsilon * config_.noise_std,
                                      config_.param_noise_floor);
    accel += noise_std * rng.Normal(0.0, 1.0);
  }
  accel = std::clamp(accel, -config_.a_max, config_.a_max);
  x.At(0, b) = accel;  // store the parameters as actually applied
  AgentAction action;
  action.behavior = b;
  action.maneuver = Maneuver{BehaviorToLaneChange(b), accel};
  action.params = std::move(x);
  if (obs::RecordingEnabled()) {
    obs::StepRecord& rec = obs::ScratchRecord();
    for (int c = 0; c < obs::kRecordBehaviors && c < action.params.cols();
         ++c) {
      rec.params[c] = action.params.At(0, c);
    }
    rec.has_params = 1;
    rec.behavior = b;
    rec.epsilon = epsilon;
  }
  return action;
}

void PdqnAgent::Remember(const AugmentedState& state,
                         const AgentAction& action, double reward,
                         const AugmentedState& next_state, bool terminal) {
  Transition t;
  t.state = state;
  t.behavior = action.behavior;
  t.params = action.params;
  t.reward = reward;
  t.next_state = next_state;
  t.terminal = terminal;
  const int copies = terminal ? std::max(1, config_.terminal_replay_boost) : 1;
  for (int i = 0; i < copies; ++i) buffer_.Push(t);
}

void PdqnAgent::UpdateCritic(const std::vector<const Transition*>& batch) {
  HEAD_SPAN("rl.update_critic");
  nn::ResetTape();  // steady state: the whole update reuses recycled nodes
  if (config_.batched_updates) {
    UpdateCriticBatched(batch);
    return;
  }
  q_opt_.ZeroGrad();
  std::vector<nn::Var> losses;
  losses.reserve(batch.size());
  for (const Transition* t : batch) {
    double y = t->reward;
    if (!t->terminal) {
      const nn::Var x_next = x_target_->Forward(t->next_state);
      const nn::Tensor q_next =
          q_target_->Forward(t->next_state, x_next).value();
      y += config_.gamma * MaxVal(q_next);
    }
    const nn::Var q_all =
        q_->Forward(t->state, nn::Var::Constant(t->params));
    const nn::Var q_b = nn::SliceCols(q_all, t->behavior, t->behavior + 1);
    losses.push_back(nn::Scale(nn::Square(nn::AddScalar(q_b, -y)), 0.5));
  }
  nn::Var loss = losses[0];
  for (size_t i = 1; i < losses.size(); ++i) loss = nn::Add(loss, losses[i]);
  loss = nn::Scale(loss, 1.0 / losses.size());
  nn::Backward(loss);
  const double grad_norm = q_opt_.ClipGradNorm(10.0);
  q_opt_.Step();

  static obs::Histogram& loss_hist = obs::GetHistogram(
      "rl.critic_loss", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  static obs::Histogram& norm_hist = obs::GetHistogram(
      "rl.grad_norm.critic", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  loss_hist.Observe(loss.value()[0]);
  norm_hist.Observe(grad_norm);
}

void PdqnAgent::UpdateActor(const std::vector<const Transition*>& batch) {
  HEAD_SPAN("rl.update_actor");
  nn::ResetTape();  // the critic pass's tape is spent at this point
  if (config_.batched_updates) {
    UpdateActorBatched(batch);
    return;
  }
  x_opt_.ZeroGrad();
  q_->ZeroGrad();  // critic grads from this pass are discarded
  std::vector<nn::Var> losses;
  losses.reserve(batch.size());
  for (const Transition* t : batch) {
    const nn::Var x = x_->Forward(t->state);
    const nn::Var q_all = q_->Forward(t->state, x);
    losses.push_back(nn::Scale(nn::Sum(q_all), -1.0));  // Eq. (23)
  }
  nn::Var loss = losses[0];
  for (size_t i = 1; i < losses.size(); ++i) loss = nn::Add(loss, losses[i]);
  loss = nn::Scale(loss, 1.0 / losses.size());
  nn::Backward(loss);
  const double grad_norm = x_opt_.ClipGradNorm(10.0);
  x_opt_.Step();

  static obs::Histogram& norm_hist = obs::GetHistogram(
      "rl.grad_norm.actor", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  norm_hist.Observe(grad_norm);
}

void PdqnAgent::UpdateCriticBatched(
    const std::vector<const Transition*>& batch) {
  const int b = static_cast<int>(batch.size());
  std::vector<const AugmentedState*> states(b);
  std::vector<const AugmentedState*> next_states(b);
  std::vector<int> behaviors(b);
  nn::Tensor params(b, kNumBehaviors);
  for (int i = 0; i < b; ++i) {
    const Transition* t = batch[i];
    states[i] = &t->state;
    next_states[i] = &t->next_state;
    behaviors[i] = t->behavior;
    HEAD_CHECK_EQ(t->params.size(), kNumBehaviors);
    for (int c = 0; c < kNumBehaviors; ++c) {
      params.At(i, c) = t->params[c];
    }
  }

  // TD targets y = r + γ·max_b Q'(s', x'(s'))·(1 − done), all under no-grad:
  // the target networks never receive gradients, so no closures are built.
  nn::Tensor y(b, 1);
  {
    const nn::NoGradGuard no_grad;
    const nn::Var x_next = x_target_->ForwardBatch(next_states);
    const nn::Tensor& q_next =
        q_target_->ForwardBatch(next_states, x_next).value();  // (B×3)
    // Raw rowwise-max kernel — no autograd node; this whole block is
    // no-grad and the argmax is never needed.
    const nn::Tensor q_max = nn::RowwiseMax(q_next);
    for (int i = 0; i < b; ++i) {
      y[i] = batch[i]->reward +
             (batch[i]->terminal ? 0.0 : config_.gamma * q_max[i]);
    }
  }

  // One graph for the whole minibatch: Q(s,x) as (B×3), the chosen
  // behavior's value picked per row, ½·mean((Q_b − y)²) as in Eq. (22).
  q_opt_.ZeroGrad();
  const nn::Var q_all =
      q_->ForwardBatch(states, nn::Var::Constant(std::move(params)));
  const nn::Var q_b = nn::SelectColumnPerRow(q_all, std::move(behaviors));
  const nn::Var loss = nn::Scale(
      nn::Sum(nn::Square(nn::Sub(q_b, nn::Var::Constant(std::move(y))))),
      0.5 / b);
  nn::Backward(loss);
  const double loss_val = loss.value()[0];
  const double grad_norm = q_opt_.ClipGradNorm(10.0);
  q_opt_.Step();

  static obs::Histogram& loss_hist = obs::GetHistogram(
      "rl.critic_loss", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  static obs::Histogram& norm_hist = obs::GetHistogram(
      "rl.grad_norm.critic", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  loss_hist.Observe(loss_val);
  norm_hist.Observe(grad_norm);
}

void PdqnAgent::UpdateActorBatched(
    const std::vector<const Transition*>& batch) {
  const int b = static_cast<int>(batch.size());
  std::vector<const AugmentedState*> states(b);
  for (int i = 0; i < b; ++i) states[i] = &batch[i]->state;

  x_opt_.ZeroGrad();
  q_->ZeroGrad();  // critic grads from this pass are discarded
  const nn::Var x = x_->ForwardBatch(states);
  const nn::Var q_all = q_->ForwardBatch(states, x);
  const nn::Var loss = nn::Scale(nn::Sum(q_all), -1.0 / b);  // Eq. (23)
  nn::Backward(loss);
  const double grad_norm = x_opt_.ClipGradNorm(10.0);
  x_opt_.Step();

  static obs::Histogram& norm_hist = obs::GetHistogram(
      "rl.grad_norm.actor", obs::CachedExponentialBounds(1e-4, 2.0, 28));
  norm_hist.Observe(grad_norm);
}

void PdqnAgent::Update(Rng& rng) {
  if (buffer_.size() < static_cast<size_t>(config_.warmup_transitions)) {
    return;
  }
  ++update_calls_;
  if (config_.update_every > 1 &&
      update_calls_ % config_.update_every != 0) {
    return;
  }
  bool train_q = true;
  bool train_x = true;
  if (config_.alternate_period > 0) {
    const long phase =
        (update_calls_ / config_.alternate_period) % 2;
    train_q = phase == 0;
    train_x = phase == 1;
  }
  HEAD_SPAN("rl.update");  // profiler root: coverage vs nested ops
  static obs::Counter& updates = obs::GetCounter("rl.updates");
  static obs::Gauge& replay_fill = obs::GetGauge("rl.replay_fill");
  updates.Add();
  replay_fill.Set(static_cast<double>(buffer_.size()) /
                  static_cast<double>(config_.buffer_capacity));

  const std::vector<const Transition*> batch = [&] {
    HEAD_SPAN("rl.replay_sample");
    return buffer_.Sample(config_.batch_size, rng);
  }();
  if (train_q) UpdateCritic(batch);
  if (train_x) UpdateActor(batch);
  x_target_->SoftUpdateFrom(*x_, config_.tau);
  q_target_->SoftUpdateFrom(*q_, config_.tau);
}

void PdqnAgent::ScaleLearningRate(double factor) {
  q_opt_.set_learning_rate(q_opt_.learning_rate() * factor);
  x_opt_.set_learning_rate(x_opt_.learning_rate() * factor);
}

void PdqnAgent::SyncTargets() {
  x_target_->CopyParamsFrom(*x_);
  q_target_->CopyParamsFrom(*q_);
}

// Diagnostic accessors stay tape-neutral: callers may hold live Vars from an
// open region (e.g. parity tests comparing against a batched forward), so no
// ResetTape here — these nodes recycle at the next region entry.
nn::Tensor PdqnAgent::ActionParams(const AugmentedState& s) const {
  const nn::NoGradGuard no_grad;
  return x_->Forward(s).value();
}

nn::Tensor PdqnAgent::QValues(const AugmentedState& s,
                              const nn::Tensor& x) const {
  const nn::NoGradGuard no_grad;
  return q_->Forward(s, nn::Var::Constant(x)).value();
}

std::unique_ptr<PdqnAgent> MakeBpDqnAgent(const PdqnConfig& config, Rng& rng) {
  return std::make_unique<PdqnAgent>(
      "BP-DQN", config,
      [&config](Rng& r) {
        return std::make_unique<BpXNet>(config.hidden, config.a_max, r);
      },
      [&config](Rng& r) { return std::make_unique<BpQNet>(config.hidden, r); },
      rng);
}

std::unique_ptr<PdqnAgent> MakePDqnAgent(const PdqnConfig& config, Rng& rng) {
  return std::make_unique<PdqnAgent>(
      "P-DQN", config,
      [&config](Rng& r) {
        return std::make_unique<FlatXNet>(config.hidden, config.a_max, r);
      },
      [&config](Rng& r) {
        return std::make_unique<FlatQNet>(config.hidden, r);
      },
      rng);
}

std::unique_ptr<PdqnAgent> MakePQpAgent(PdqnConfig config, Rng& rng) {
  if (config.alternate_period <= 0) config.alternate_period = 50;
  auto agent = std::make_unique<PdqnAgent>(
      "P-QP", config,
      [config](Rng& r) {
        return std::make_unique<FlatXNet>(config.hidden, config.a_max, r);
      },
      [config](Rng& r) {
        return std::make_unique<FlatQNet>(config.hidden, r);
      },
      rng);
  return agent;
}

}  // namespace head::rl
