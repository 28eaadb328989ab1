#include "rl/mp_dqn.h"

#include "common/check.h"

namespace head::rl {

MultiPassQNet::MultiPassQNet(int hidden, Rng& rng)
    : in_(kFlatStateDim + kNumBehaviors, 2 * hidden, rng),
      mid_(2 * hidden, hidden, rng),
      out_(hidden, kNumBehaviors, rng) {}

nn::Var MultiPassQNet::ForwardBatch(
    const std::vector<const AugmentedState*>& batch, const nn::Var& x) const {
  const int rows = static_cast<int>(batch.size());
  HEAD_CHECK_EQ(x.value().rows(), rows);
  const nn::Var flat = nn::Var::Constant(FlattenStates(batch));
  std::vector<nn::Var> q_cols;
  q_cols.reserve(kNumBehaviors);
  for (int b = 0; b < kNumBehaviors; ++b) {
    // Mask every row of x to its b-th parameter: x ⊙ e_b (differentiable —
    // the gradient reaches exactly that parameter of that row).
    nn::Tensor mask(rows, kNumBehaviors);
    for (int r = 0; r < rows; ++r) mask.At(r, b) = 1.0;
    const nn::Var masked = nn::Mul(x, nn::Var::Constant(std::move(mask)));
    const nn::Var q_all = out_.Forward(nn::LeakyRelu(
        mid_.Forward(nn::LeakyRelu(
            in_.Forward(nn::ConcatCols({flat, masked}))))));
    q_cols.push_back(nn::SliceCols(q_all, b, b + 1));
  }
  return nn::ConcatCols(q_cols);
}

std::vector<nn::Var> MultiPassQNet::Params() const {
  std::vector<nn::Var> p = in_.Params();
  for (const nn::Var& v : mid_.Params()) p.push_back(v);
  for (const nn::Var& v : out_.Params()) p.push_back(v);
  return p;
}

std::unique_ptr<PdqnAgent> MakeMpDqnAgent(const PdqnConfig& config, Rng& rng) {
  return std::make_unique<PdqnAgent>(
      "MP-DQN", config,
      [config](Rng& r) {
        return std::make_unique<FlatXNet>(config.hidden, config.a_max, r);
      },
      [config](Rng& r) {
        return std::make_unique<MultiPassQNet>(config.hidden, r);
      },
      rng);
}

}  // namespace head::rl
