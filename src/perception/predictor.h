// Common interface of all one-step state predictors (LST-GAT and the
// Table III/IV baselines). Every predictor consumes the same completed
// spatial-temporal graph and emits, for each of the six targets, its
// predicted state at t+1 relative to the ego at t (paper Eq. 13).
//
// Internally all predictors regress the scaled *residual* from the target's
// current relative state — a parameterization choice that leaves the paper's
// task unchanged while conditioning the optimization well.
#ifndef HEAD_PERCEPTION_PREDICTOR_H_
#define HEAD_PERCEPTION_PREDICTOR_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "perception/st_graph.h"

namespace head::perception {

/// Predicted state of one target at t+1, relative to the ego at t:
/// [d̂_lat (m), d̂_lon (m), v̂_rel (m/s)] — the expansion of Eq. (13).
struct PredictedState {
  double d_lat_m = 0.0;
  double d_lon_m = 0.0;
  double v_rel_mps = 0.0;
};

using Prediction = std::array<PredictedState, kNumAreas>;

/// Ground-truth targets for one training sample.
struct PredictionTruth {
  /// Raw [d_lat, d_lon, v_rel] of each C_i at t+1 relative to the ego at t.
  std::array<std::array<double, 3>, kNumAreas> value{};
  /// False ⇒ the loss is masked (phantom target, or the vehicle left the
  /// scene at t+1 so no ground truth exists) — paper's loss masking (Eq. 14).
  std::array<bool, kNumAreas> valid{};
};

struct PredictionSample {
  StGraph graph;
  PredictionTruth truth;
};

/// A predictor with trainable parameters.
class StatePredictor : public nn::Module {
 public:
  explicit StatePredictor(FeatureScale scale) : scale_(scale) {}

  virtual std::string name() const = 0;

  /// Differentiable forward pass: (6×3) Var of *scaled residuals* from each
  /// target's current relative state. Used by the trainer.
  virtual nn::Var ForwardScaled(const StGraph& graph) const = 0;

  /// Differentiable minibatch forward pass: (B·6×3) Var, sample-major (the
  /// 6 rows of graphs[0], then graphs[1], …). The default stacks per-sample
  /// ForwardScaled results; models override it with a genuinely vectorized
  /// pass (one autograd graph over the whole minibatch).
  virtual nn::Var ForwardScaledBatch(
      const std::vector<const StGraph*>& graphs) const;

  /// Inference: decodes ForwardScaled into absolute relative states. Safe
  /// to call concurrently from EnvPool workers — each thread builds its
  /// forward pass on its own tape.
  Prediction Predict(const StGraph& graph) const;

  const FeatureScale& scale() const { return scale_; }

 protected:
  FeatureScale scale_;
};

/// Scaled residual truth used for the regression loss: per target,
/// (truth − current) * scale per component.
nn::Tensor ScaledResidualTruth(const StGraph& graph,
                               const PredictionTruth& truth,
                               const FeatureScale& scale);

/// (6×3) mask tensor: 1 where the loss applies, 0 where masked.
nn::Tensor TruthMask(const PredictionTruth& truth);

}  // namespace head::perception

#endif  // HEAD_PERCEPTION_PREDICTOR_H_
