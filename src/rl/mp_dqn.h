// MP-DQN extension (Bester, James & Konidaris [55], cited by the paper as
// the multi-pass improvement over P-DQN): the critic is evaluated once per
// discrete action with only that action's parameter visible, so Q_b cannot
// pick up false gradients from the other actions' parameters. Implemented
// as a QNet the shared PdqnAgent machinery can drive, making it a drop-in
// fifth comparator for the Table V/VI setting.
#ifndef HEAD_RL_MP_DQN_H_
#define HEAD_RL_MP_DQN_H_

#include <memory>

#include "rl/pdqn_agent.h"

namespace head::rl {

/// Multi-pass critic: Q(s, x)[b] = f(s, x ⊙ e_b)[b], one forward pass per
/// behavior over the whole minibatch with the other parameters masked to
/// zero.
class MultiPassQNet : public QNet {
 public:
  MultiPassQNet(int hidden, Rng& rng);
  nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                       const nn::Var& x) const override;
  std::vector<nn::Var> Params() const override;

 private:
  nn::Linear in_;   // (52 + 3) → 2·hidden
  nn::Linear mid_;  // 2·hidden → hidden
  nn::Linear out_;  // hidden → 3
};

/// MP-DQN: P-DQN's actor with the multi-pass critic.
std::unique_ptr<PdqnAgent> MakeMpDqnAgent(const PdqnConfig& config, Rng& rng);

}  // namespace head::rl

#endif  // HEAD_RL_MP_DQN_H_
