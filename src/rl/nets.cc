#include "rl/nets.h"

#include "common/check.h"

namespace head::rl {

namespace {

/// Stacks the h (or f) blocks of B augmented states row-wise into one
/// ((B·rows)×4) tensor, so a branch encoder can reduce the whole minibatch
/// in a single pass.
nn::Tensor StackBlocks(const std::vector<const AugmentedState*>& batch,
                       bool h_block) {
  HEAD_CHECK(!batch.empty());
  const nn::Tensor& first = h_block ? batch[0]->h : batch[0]->f;
  const int rows = first.rows();
  const int cols = first.cols();
  nn::Tensor stacked(static_cast<int>(batch.size()) * rows, cols);
  double* dst = stacked.data().data();
  for (const AugmentedState* s : batch) {
    const nn::Tensor& block = h_block ? s->h : s->f;
    HEAD_CHECK_EQ(block.rows(), rows);
    HEAD_CHECK_EQ(block.cols(), cols);
    for (int i = 0; i < block.size(); ++i) *dst++ = block[i];
  }
  return stacked;
}

}  // namespace

BranchEncoder::BranchEncoder(int rows, int hidden, Rng& rng)
    : rows_(rows),
      l1_(perception::kFeatureDim, hidden, rng),
      l2_(hidden, 1, rng) {
  // The per-vehicle reduction ends in single-unit ReLUs (Eq. 24/26); start
  // their biases positive so the units begin alive — a dead unit here wipes
  // out the whole branch's state information and never recovers.
  for (nn::Var p : {l1_.Params()[1], l2_.Params()[1]}) {
    nn::Tensor& b = p.mutable_value();
    for (int i = 0; i < b.size(); ++i) b[i] = 0.1;
  }
}

nn::Var BranchEncoder::ForwardStacked(const nn::Tensor& blocks,
                                      int batch) const {
  HEAD_CHECK_EQ(blocks.rows(), batch * rows_);
  const nn::Var x = nn::Var::Constant(blocks);
  // LeakyReLU in place of the paper's ReLU: the reduction to one scalar per
  // vehicle makes plain ReLU units die irrecoverably during RL training
  // (observed empirically), freezing the whole branch; the leaky slope
  // preserves the architecture while keeping gradients alive.
  // Fused affine+leaky-relu nodes (see nn::AffineAct).
  const nn::Var h = l1_.Forward(x, nn::FusedAct::kLeakyRelu);  // ((B·rows)×hidden)
  const nn::Var e = l2_.Forward(h, nn::FusedAct::kLeakyRelu);  // ((B·rows)×1)
  return nn::Reshape(e, batch, rows_);              // (B×rows)
}

std::vector<nn::Var> BranchEncoder::Params() const {
  std::vector<nn::Var> p = l1_.Params();
  for (const nn::Var& v : l2_.Params()) p.push_back(v);
  return p;
}

BpXNet::BpXNet(int hidden, double a_max, Rng& rng)
    : a_max_(a_max),
      h_branch_(kStateHRows, hidden, rng),
      f_branch_(kStateFRows, hidden, rng),
      out_(kStateHRows + kStateFRows, kNumBehaviors, rng) {
  // Small output init ⇒ initial accelerations near 0 (tanh unsaturated).
  nn::Tensor& w = out_.Params()[0].mutable_value();
  for (int i = 0; i < w.size(); ++i) w[i] *= 0.1;
}

nn::Var BpXNet::ForwardBatch(
    const std::vector<const AugmentedState*>& batch) const {
  const int b = static_cast<int>(batch.size());
  const nn::Var merged = nn::ConcatCols(
      {h_branch_.ForwardStacked(StackBlocks(batch, /*h_block=*/true), b),
       f_branch_.ForwardStacked(StackBlocks(batch, /*h_block=*/false),
                                b)});                      // (B×13)
  return nn::Scale(out_.Forward(merged, nn::FusedAct::kTanh), a_max_);  // Eq. (25)
}

std::vector<nn::Var> BpXNet::Params() const {
  std::vector<nn::Var> p = h_branch_.Params();
  for (const nn::Var& v : f_branch_.Params()) p.push_back(v);
  for (const nn::Var& v : out_.Params()) p.push_back(v);
  return p;
}

BpQNet::BpQNet(int hidden, Rng& rng)
    : h_branch_(kStateHRows, hidden, rng),
      f_branch_(kStateFRows, hidden, rng),
      x1_(kNumBehaviors, hidden, rng),
      x2_(hidden, kNumBehaviors, rng),
      fuse_(kStateHRows + kStateFRows + kNumBehaviors, hidden, rng),
      out_(hidden, kNumBehaviors, rng) {
  // Keep the 3-unit ReLU action branch alive at initialization too.
  for (nn::Var p : {x1_.Params()[1], x2_.Params()[1]}) {
    nn::Tensor& b = p.mutable_value();
    for (int i = 0; i < b.size(); ++i) b[i] = 0.1;
  }
}

nn::Var BpQNet::ForwardBatch(const std::vector<const AugmentedState*>& batch,
                             const nn::Var& x) const {
  const int b = static_cast<int>(batch.size());
  HEAD_CHECK_EQ(x.value().rows(), b);
  const nn::Var xb =
      x2_.Forward(x1_.Forward(x, nn::FusedAct::kLeakyRelu), nn::FusedAct::kLeakyRelu);
  const nn::Var merged = nn::ConcatCols(
      {h_branch_.ForwardStacked(StackBlocks(batch, /*h_block=*/true), b),
       f_branch_.ForwardStacked(StackBlocks(batch, /*h_block=*/false), b),
       xb});  // (B×16)
  return out_.Forward(fuse_.Forward(merged, nn::FusedAct::kLeakyRelu));
}

std::vector<nn::Var> BpQNet::Params() const {
  std::vector<nn::Var> p = h_branch_.Params();
  for (const nn::Var& v : f_branch_.Params()) p.push_back(v);
  for (const nn::Var& v : x1_.Params()) p.push_back(v);
  for (const nn::Var& v : x2_.Params()) p.push_back(v);
  for (const nn::Var& v : fuse_.Params()) p.push_back(v);
  for (const nn::Var& v : out_.Params()) p.push_back(v);
  return p;
}

FlatXNet::FlatXNet(int hidden, double a_max, Rng& rng)
    : a_max_(a_max),
      mlp_({kFlatStateDim, 2 * hidden, hidden, kNumBehaviors},
           nn::Mlp::Activation::kLeakyRelu, rng) {
  std::vector<nn::Var> params = mlp_.Params();
  nn::Tensor& w = params[params.size() - 2].mutable_value();
  for (int i = 0; i < w.size(); ++i) w[i] *= 0.1;
}

nn::Var FlatXNet::ForwardBatch(
    const std::vector<const AugmentedState*>& batch) const {
  const nn::Var flat = nn::Var::Constant(FlattenStates(batch));
  return nn::Scale(nn::Tanh(mlp_.Forward(flat)), a_max_);
}

std::vector<nn::Var> FlatXNet::Params() const { return mlp_.Params(); }

FlatQNet::FlatQNet(int hidden, Rng& rng)
    : in_(kFlatStateDim + kNumBehaviors, 2 * hidden, rng),
      mid_(2 * hidden, hidden, rng),
      out_(hidden, kNumBehaviors, rng) {}

nn::Var FlatQNet::ForwardBatch(const std::vector<const AugmentedState*>& batch,
                               const nn::Var& x) const {
  HEAD_CHECK_EQ(x.value().rows(), static_cast<int>(batch.size()));
  // The wrong-weight-sharing structure the paper improves on: raw state
  // features and the action parameters enter one shared layer.
  const nn::Var joint =
      nn::ConcatCols({nn::Var::Constant(FlattenStates(batch)), x});
  return out_.Forward(mid_.Forward(
      in_.Forward(joint, nn::FusedAct::kRelu), nn::FusedAct::kRelu));
}

std::vector<nn::Var> FlatQNet::Params() const {
  std::vector<nn::Var> p = in_.Params();
  for (const nn::Var& v : mid_.Params()) p.push_back(v);
  for (const nn::Var& v : out_.Params()) p.push_back(v);
  return p;
}

}  // namespace head::rl
