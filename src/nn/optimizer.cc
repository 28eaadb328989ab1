#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "nn/kernels/simd.h"

namespace head::nn {

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {
  for (const Var& p : params_) {
    HEAD_CHECK(p.defined());
    HEAD_CHECK(p.requires_grad());
  }
}

void Optimizer::ZeroGrad() {
  for (Var& p : params_) p.ZeroGrad();
}

double Optimizer::ClipGradNorm(double max_norm) {
  HEAD_SPAN("nn.ClipGradNorm");
  HEAD_CHECK_GT(max_norm, 0.0);
  double sq = 0.0;
  for (Var& p : params_) {
    const Tensor& g = p.grad();
    for (int i = 0; i < g.size(); ++i) sq += g[i] * g[i];
  }
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return norm;
  const double scale = max_norm / norm;
  for (Var& p : params_) {
    Tensor& g = p.mutable_grad();
    for (int i = 0; i < g.size(); ++i) g[i] *= scale;
  }
  return norm;
}

Sgd::Sgd(std::vector<Var> params, double lr) : Optimizer(std::move(params)) {
  lr_ = lr;
}

void Sgd::Step() {
  HEAD_SPAN("nn.Sgd.Step");
  for (Var& p : params_) {
    p.mutable_value().AddScaled(p.grad(), -lr_);
  }
}

Adam::Adam(std::vector<Var> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)), beta1_(beta1), beta2_(beta2), eps_(eps) {
  lr_ = lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  HEAD_SPAN("nn.Adam.Step");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& value = params_[i].mutable_value();
    const Tensor& g = params_[i].grad();
    // Vectorized fused moment + parameter update; bitwise-equal to the
    // scalar loop on every backend (no FMA, correctly rounded lane ops).
    kernels::AdamStep(value.size(), lr_, beta1_, beta2_, eps_, bc1, bc2,
                      g.data().data(), m_[i].data().data(),
                      v_[i].data().data(), value.data().data());
  }
}

}  // namespace head::nn
