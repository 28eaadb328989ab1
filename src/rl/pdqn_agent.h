// Generic P-DQN-style learner (Xiong et al. [54]): a deterministic
// action-parameter network x(s;θx) plus an action-value network Q(s,x;θQ),
// trained with the losses of Eqs. (22)/(23), target networks with soft
// updates, and ε-greedy + Gaussian parameter-noise exploration.
//
// The same optimization drives three of the paper's methods — they differ
// only in network structure and update schedule:
//   * BP-DQN — branched networks (MakeBpDqnAgent)
//   * P-DQN  — single-branch networks (MakePDqnAgent)
//   * P-QP   — alternating optimization of θQ and θx without sharing
//              information within a phase (MakePQpAgent)
#ifndef HEAD_RL_PDQN_AGENT_H_
#define HEAD_RL_PDQN_AGENT_H_

#include <functional>
#include <memory>
#include <string>

#include "nn/optimizer.h"
#include "rl/nets.h"
#include "rl/replay_buffer.h"

namespace head::rl {

struct PdqnConfig {
  int hidden = 64;                 ///< D_φ* (paper Sec. V-A)
  double gamma = 0.9;              ///< discount
  double learning_rate = 0.001;    ///< Adam lr for Q
  double actor_lr_scale = 0.1;     ///< x-net lr = lr · scale
  int batch_size = 64;
  size_t buffer_capacity = 20000;
  double tau = 0.01;               ///< soft target-update rate
  int warmup_transitions = 500;    ///< replay size before learning starts
  int update_every = 1;            ///< env steps per gradient step
  double a_max = 3.0;              ///< a′ acceleration bound
  double noise_std = 1.0;          ///< parameter-noise std at ε = 1
  /// Probability mass on lane-keep when exploring the discrete behavior
  /// (uniform random lane changes at Δt=0.5 s crash almost immediately).
  double explore_keep_bias = 0.6;
  /// Minimum acceleration-noise std while ε > 0: keeps the critic supplied
  /// with off-policy action parameters late in training, when ε·noise_std
  /// alone would collapse the visited action distribution to a point.
  double param_noise_floor = 0.3;
  /// Terminal (collision/arrival) transitions are pushed into the replay
  /// buffer this many times — cheap prioritization of the rare events that
  /// carry the collision penalty.
  int terminal_replay_boost = 4;
  /// P-QP: update calls per alternation phase (0 ⇒ joint optimization).
  int alternate_period = 0;
};

class PdqnAgent : public PamdpAgent {
 public:
  using XFactory = std::function<std::unique_ptr<XNet>(Rng&)>;
  using QFactory = std::function<std::unique_ptr<QNet>(Rng&)>;

  PdqnAgent(std::string name, const PdqnConfig& config, const XFactory& make_x,
            const QFactory& make_q, Rng& init_rng);

  std::string name() const override { return name_; }
  AgentAction Act(const AugmentedState& state, double epsilon,
                  Rng& rng) override;
  void Remember(const AugmentedState& state, const AgentAction& action,
                double reward, const AugmentedState& next_state,
                bool terminal) override;
  void Update(Rng& rng) override;
  void ScaleLearningRate(double factor) override;

  /// Greedy action parameters x(s) — exposed for tests.
  nn::Tensor ActionParams(const AugmentedState& s) const;
  /// Q(s, x) — exposed for tests.
  nn::Tensor QValues(const AugmentedState& s, const nn::Tensor& x) const;

  const ReplayBuffer& buffer() const { return buffer_; }
  const PdqnConfig& config() const { return config_; }
  XNet& x_net() { return *x_; }
  QNet& q_net() { return *q_; }
  /// Re-copies the online networks into the targets (after loading weights).
  void SyncTargets();

 private:
  // One autograd graph per minibatch for each loss. A non-finite loss or
  // gradient norm skips the optimizer step and counts rl.nonfinite_updates.
  void UpdateCritic(const std::vector<const Transition*>& batch);
  void UpdateActor(const std::vector<const Transition*>& batch);

  std::string name_;
  PdqnConfig config_;
  std::unique_ptr<XNet> x_;
  std::unique_ptr<XNet> x_target_;
  std::unique_ptr<QNet> q_;
  std::unique_ptr<QNet> q_target_;
  nn::Adam q_opt_;
  nn::Adam x_opt_;
  ReplayBuffer buffer_;
  long update_calls_ = 0;
};

/// BP-DQN: the paper's branched parameterized deep Q-network.
std::unique_ptr<PdqnAgent> MakeBpDqnAgent(const PdqnConfig& config, Rng& rng);
/// Vanilla P-DQN [54].
std::unique_ptr<PdqnAgent> MakePDqnAgent(const PdqnConfig& config, Rng& rng);
/// P-QP [57]: alternating optimization (discrete policy vs parameters).
std::unique_ptr<PdqnAgent> MakePQpAgent(PdqnConfig config, Rng& rng);

}  // namespace head::rl

#endif  // HEAD_RL_PDQN_AGENT_H_
