// Actor (x) and critic (Q) networks for the P-DQN family.
//
// BP-DQN (paper Sec. IV-B, Fig. 6, Eqs. 24–27) processes h^t, f̂^{t+1} and
// x^t_out in *separate branches* before merging — avoiding the erroneous
// weight sharing between differently scaled inputs that vanilla P-DQN
// suffers from. P-DQN uses single-branch MLPs over the flattened state.
#ifndef HEAD_RL_NETS_H_
#define HEAD_RL_NETS_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "rl/pamdp.h"

namespace head::rl {

/// Deterministic action-parameter network x(s; θx): emits the three
/// accelerations (one per lane-change behavior), bounded to ±a' by tanh.
class XNet : public nn::Module {
 public:
  ~XNet() override = default;
  virtual nn::Var Forward(const AugmentedState& s) const = 0;
  /// Minibatch forward: one autograd graph over all B states, (B×3) output.
  /// The default stacks per-sample Forward results; the concrete nets
  /// override it with a genuinely vectorized pass.
  virtual nn::Var ForwardBatch(
      const std::vector<const AugmentedState*>& batch) const;
};

/// Action-value network Q(s, x; θQ): three Q values, one per behavior.
/// `x` is passed as a Var so actor gradients can flow through the critic.
class QNet : public nn::Module {
 public:
  ~QNet() override = default;
  virtual nn::Var Forward(const AugmentedState& s, const nn::Var& x) const = 0;
  /// Minibatch forward; `x` is (B×3) and gradients still flow through it.
  virtual nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                               const nn::Var& x) const;
};

/// Per-vehicle branch of Eq. (24)/(26): ReLU(φ_b·ReLU(φ_a·X + b_a) + b_b)
/// applied row-wise to a (rows×4) block, yielding one scalar per vehicle,
/// returned as a (1×rows) row.
class BranchEncoder : public nn::Module {
 public:
  BranchEncoder(int rows, int hidden, Rng& rng);
  nn::Var Forward(const nn::Tensor& block) const;
  /// Vectorized over a minibatch: `blocks` is B per-state blocks stacked
  /// row-wise ((B·rows)×4); returns (B×rows), one reduced row per state.
  nn::Var ForwardStacked(const nn::Tensor& blocks, int batch) const;
  std::vector<nn::Var> Params() const override;
  int rows() const { return rows_; }

 private:
  int rows_;
  nn::Linear l1_;
  nn::Linear l2_;
};

// ---- BP-DQN branched networks ----

class BpXNet : public XNet {
 public:
  BpXNet(int hidden, double a_max, Rng& rng);
  nn::Var Forward(const AugmentedState& s) const override;  // Eq. (25)
  nn::Var ForwardBatch(
      const std::vector<const AugmentedState*>& batch) const override;
  std::vector<nn::Var> Params() const override;

 private:
  double a_max_;
  BranchEncoder h_branch_;  // φ5/φ6
  BranchEncoder f_branch_;  // φ7/φ8
  nn::Linear out_;          // φ9: 13 → 3
};

class BpQNet : public QNet {
 public:
  BpQNet(int hidden, Rng& rng);
  nn::Var Forward(const AugmentedState& s, const nn::Var& x) const override;
  nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                       const nn::Var& x) const override;
  std::vector<nn::Var> Params() const override;

 private:
  BranchEncoder h_branch_;  // φ10/φ11
  BranchEncoder f_branch_;  // φ12/φ13
  nn::Linear x1_;           // φ14: 3 → hidden
  nn::Linear x2_;           // φ15: hidden → 3
  // Fusion head. The paper's Eq. (27) merges [h' ‖ f' ‖ x'] with a single
  // linear map, which makes Q(s,x) = A(s) + B(x) additively separable — the
  // optimal acceleration would be the same in every state. One hidden layer
  // restores the state-action interaction while keeping the branched
  // encoders that are BP-DQN's contribution.
  nn::Linear fuse_;  // 16 → hidden
  nn::Linear out_;   // hidden → 3
};

// ---- Vanilla P-DQN single-branch networks (Xiong et al. [54]) ----

class FlatXNet : public XNet {
 public:
  FlatXNet(int hidden, double a_max, Rng& rng);
  nn::Var Forward(const AugmentedState& s) const override;
  nn::Var ForwardBatch(
      const std::vector<const AugmentedState*>& batch) const override;
  std::vector<nn::Var> Params() const override;

 private:
  double a_max_;
  nn::Mlp mlp_;  // 52 → hidden → hidden → 3
};

class FlatQNet : public QNet {
 public:
  FlatQNet(int hidden, Rng& rng);
  nn::Var Forward(const AugmentedState& s, const nn::Var& x) const override;
  nn::Var ForwardBatch(const std::vector<const AugmentedState*>& batch,
                       const nn::Var& x) const override;
  std::vector<nn::Var> Params() const override;

 private:
  nn::Linear in_;   // 55 → hidden (state and action share one layer)
  nn::Linear mid_;  // hidden → hidden
  nn::Linear out_;  // hidden → 3
};

}  // namespace head::rl

#endif  // HEAD_RL_NETS_H_
