#include "nn/layers.h"

#include "common/check.h"
#include "obs/span.h"

namespace head::nn {

int Module::NumParams() const {
  int n = 0;
  for (const Var& p : Params()) n += p.value().size();
  return n;
}

void Module::ZeroGrad() {
  for (Var p : Params()) p.ZeroGrad();
}

void Module::CopyParamsFrom(const Module& other) {
  std::vector<Var> dst = Params();
  std::vector<Var> src = other.Params();
  HEAD_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    HEAD_CHECK_EQ(dst[i].value().rows(), src[i].value().rows());
    HEAD_CHECK_EQ(dst[i].value().cols(), src[i].value().cols());
    dst[i].mutable_value() = src[i].value();
  }
}

void Module::SoftUpdateFrom(const Module& source, double tau) {
  HEAD_SPAN("nn.SoftUpdate");
  std::vector<Var> dst = Params();
  std::vector<Var> src = source.Params();
  HEAD_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    Tensor& d = dst[i].mutable_value();
    const Tensor& s = src[i].value();
    HEAD_CHECK_EQ(d.size(), s.size());
    for (int j = 0; j < d.size(); ++j) {
      d[j] = tau * s[j] + (1.0 - tau) * d[j];
    }
  }
}

Linear::Linear(int in_features, int out_features, Rng& rng)
    : w_(Var::Param(Tensor::XavierUniform(in_features, out_features, rng))),
      b_(Var::Param(Tensor::Zeros(1, out_features))) {
  HEAD_CHECK_GT(in_features, 0);
  HEAD_CHECK_GT(out_features, 0);
}

Var Linear::Forward(const Var& x) const {
  HEAD_CHECK_EQ(x.value().cols(), w_.value().rows());
  return Affine(x, w_, b_);
}

Var Linear::Forward(const Var& x, FusedAct act, double leaky_slope) const {
  HEAD_CHECK_EQ(x.value().cols(), w_.value().rows());
  return AffineAct(x, w_, b_, act, leaky_slope);
}

Mlp::Mlp(const std::vector<int>& dims, Activation act, Rng& rng) : act_(act) {
  HEAD_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Var Mlp::Forward(const Var& x) const {
  FusedAct fused = FusedAct::kNone;
  switch (act_) {
    case Activation::kRelu: fused = FusedAct::kRelu; break;
    case Activation::kTanh: fused = FusedAct::kTanh; break;
    case Activation::kLeakyRelu: fused = FusedAct::kLeakyRelu; break;
  }
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    // Hidden layers fuse the activation into the affine node; the last
    // layer stays linear.
    h = layers_[i].Forward(h,
                           i + 1 < layers_.size() ? fused : FusedAct::kNone);
  }
  return h;
}

std::vector<Var> Mlp::Params() const {
  std::vector<Var> out;
  for (const Linear& l : layers_) {
    for (const Var& p : l.Params()) out.push_back(p);
  }
  return out;
}

}  // namespace head::nn
