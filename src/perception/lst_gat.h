// LST-GAT (Local Spatial-Temporal Graph ATtention) — the paper's state
// prediction model (Sec. III-B, Fig. 5, Eqs. 10–13). Per historical step a
// shared graph-attention layer updates each target by attending over its six
// surroundings plus itself; an LSTM then consumes the z updated states of
// all six targets *in one batch* and a linear head emits the one-step
// predictions in parallel.
#ifndef HEAD_PERCEPTION_LST_GAT_H_
#define HEAD_PERCEPTION_LST_GAT_H_

#include <span>
#include <string>
#include <vector>

#include "nn/lstm.h"
#include "perception/predictor.h"

namespace head::perception {

struct LstGatConfig {
  int d_phi1 = 64;        ///< D_φ1: attention embedding width
  int d_phi3 = 64;        ///< D_φ3: value embedding width (LSTM input)
  int d_lstm = 64;        ///< D_l: LSTM hidden width
  double leaky_slope = 0.2;  ///< LeakyReLU slope of Eq. (10)
  /// Ablation switch: false replaces the learned attention of Eq. (10) with
  /// uniform mean aggregation over the 7 nodes (bench/ablation_attention).
  bool use_attention = true;
};

class LstGat : public StatePredictor {
 public:
  LstGat(const LstGatConfig& config, Rng& rng,
         FeatureScale scale = FeatureScale());

  std::string name() const override { return "LST-GAT"; }

  /// The one-graph case of ForwardScaledBatch: the same stacked GAT over six
  /// 7-node groups, so batch-1 inference and the minibatch path run one
  /// graph (and agree bitwise).
  nn::Var ForwardScaled(const StGraph& graph) const override;

  /// Vectorized minibatch pass: stacks every sample's 42 step-k nodes into
  /// one (B·42×4) matrix, runs the GAT as block-diagonal gather/softmax/
  /// scatter ops (no per-target slicing loop), and drives the LSTM with a
  /// batch of B·6 target rows. Falls back to the stacked per-sample default
  /// when the graphs disagree on history depth z.
  nn::Var ForwardScaledBatch(
      const std::vector<const StGraph*>& graphs) const override;

  std::vector<nn::Var> Params() const override;

  const LstGatConfig& config() const { return config_; }

  /// Learned attention weights (Eq. 10) over [self, surroundings 1..6] of
  /// target `i` at the newest step — exposed for tests and analysis.
  std::vector<double> AttentionWeights(const StGraph& graph, int i) const;

 private:
  /// The stacked pass behind both forward entry points; every graph must
  /// have the same history depth z.
  nn::Var ForwardStacked(std::span<const StGraph* const> graphs) const;

  /// Eq. (10) for `groups` stacked 7-node groups at once: `h_embed` is
  /// (groups·7 × Dφ1); returns the (groups × 7) attention weights, one
  /// softmax row per group.
  nn::Var Attention(const nn::Var& h_embed, int groups) const;

  /// Per-step GAT over `groups` stacked 7-node groups at once: `m` is
  /// (groups·7 × 4); returns the (groups × d_phi3) updated states (Eq. 11).
  nn::Var GatStepStacked(const nn::Var& m, int groups) const;

  LstGatConfig config_;
  nn::Var phi1_;  // (4 × D_φ1)
  nn::Var phi2_;  // (2·D_φ1 × 1) attention vector
  nn::Var phi3_;  // (4 × D_φ3)
  nn::LstmCell lstm_;
  nn::Linear head_;  // φ4 (+ b4): D_l → 3
};

}  // namespace head::perception

#endif  // HEAD_PERCEPTION_LST_GAT_H_
