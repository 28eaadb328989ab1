#include "perception/lst_gat.h"

#include <cstdint>

#include "common/check.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"

namespace head::perception {

namespace {

/// Stacks every sample's step-k nodes into one (B·42×4) tensor, 7
/// consecutive rows per target (self first) — the data matrix the stacked
/// pass consumes per step. Each sample packs into a disjoint block, so the
/// loop fans out across the pool (grain keeps small batches on one worker).
nn::Tensor StackStepBatch(std::span<const StGraph* const> graphs, int k) {
  const int batch = static_cast<int>(graphs.size());
  const int rows_per_sample = kNumAreas * kNodesPerTarget;
  nn::Tensor m(batch * rows_per_sample, kFeatureDim);
  double* base = m.data().data();
  parallel::ThreadPool& pool = parallel::ThreadPool::Global();
  const int64_t block = int64_t{rows_per_sample} * kFeatureDim;
  pool.ParallelFor(0, batch, /*grain=*/16, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      double* dst = base + b * block;
      const StepNodes& nodes = graphs[b]->steps[k];
      for (int i = 0; i < kNumAreas; ++i) {
        for (int n = 0; n < kNodesPerTarget; ++n) {
          for (int f = 0; f < kFeatureDim; ++f) {
            *dst++ = nodes.feat[i][n][f];
          }
        }
      }
    }
  });
  return m;
}

}  // namespace

LstGat::LstGat(const LstGatConfig& config, Rng& rng, FeatureScale scale)
    : StatePredictor(scale),
      config_(config),
      phi1_(nn::Var::Param(
          nn::Tensor::XavierUniform(kFeatureDim, config.d_phi1, rng))),
      phi2_(nn::Var::Param(
          nn::Tensor::XavierUniform(2 * config.d_phi1, 1, rng))),
      phi3_(nn::Var::Param(
          nn::Tensor::XavierUniform(kFeatureDim, config.d_phi3, rng))),
      lstm_(config.d_phi3, config.d_lstm, rng),
      head_(config.d_lstm, 3, rng) {}

std::vector<nn::Var> LstGat::Params() const {
  std::vector<nn::Var> params = {phi1_, phi2_, phi3_};
  for (const nn::Var& p : lstm_.Params()) params.push_back(p);
  for (const nn::Var& p : head_.Params()) params.push_back(p);
  return params;
}

nn::Var LstGat::Attention(const nn::Var& h_embed, int groups) const {
  // Pair every node with its group's target (node 0) — Eq. (10) for all
  // groups at once, without slicing per target.
  std::vector<int> tgt_idx(groups * kNodesPerTarget);
  for (int g = 0; g < groups; ++g) {
    for (int n = 0; n < kNodesPerTarget; ++n) {
      tgt_idx[g * kNodesPerTarget + n] = g * kNodesPerTarget;
    }
  }
  const nn::Var tgt = nn::GatherRows(h_embed, std::move(tgt_idx));
  const nn::Var concat = nn::ConcatCols({tgt, h_embed});
  const nn::Var scores =
      nn::LeakyRelu(nn::MatMul(concat, phi2_), config_.leaky_slope);
  return nn::SoftmaxRows(nn::Reshape(scores, groups, kNodesPerTarget));
}

nn::Var LstGat::GatStepStacked(const nn::Var& m, int groups) const {
  HEAD_CHECK_EQ(m.value().rows(), groups * kNodesPerTarget);
  const nn::Var values = nn::MatMul(m, phi3_);  // (G·7×Dφ3), φ3·h
  nn::Var alpha_col;                            // (G·7×1) attention weights
  if (config_.use_attention) {
    const nn::Var h_embed = nn::MatMul(m, phi1_);  // (G·7×Dφ1), φ1·h
    alpha_col = nn::Reshape(Attention(h_embed, groups),
                            groups * kNodesPerTarget, 1);
  } else {
    alpha_col = nn::Var::Constant(nn::Tensor::Full(
        groups * kNodesPerTarget, 1, 1.0 / kNodesPerTarget));
  }
  // Weighted aggregation (Eq. 11) as scale-rows + within-group row sums:
  // every output is the same multiply-then-accumulate sequence whatever
  // the batch size, so a sample's rows match bitwise across batchings.
  return nn::SumRowGroups(nn::ScaleRows(values, alpha_col), kNodesPerTarget);
}

nn::Var LstGat::ForwardStacked(std::span<const StGraph* const> graphs) const {
  const int z = graphs[0]->z();
  HEAD_CHECK_GT(z, 0);
  const int groups = static_cast<int>(graphs.size()) * kNumAreas;
  nn::LstmState state = lstm_.InitialState(groups);
  for (int k = 0; k < z; ++k) {
    const nn::Var h_updated =
        GatStepStacked(nn::Var::Constant(StackStepBatch(graphs, k)), groups);
    state = lstm_.Forward(h_updated, state);  // Eq. (12), batched over B·6
  }
  return head_.Forward(state.h);  // (B·6×3), Eq. (13)
}

nn::Var LstGat::ForwardScaledBatch(
    const std::vector<const StGraph*>& graphs) const {
  HEAD_SPAN("perception.lstgat.forward_batch");
  HEAD_CHECK(!graphs.empty());
  for (const StGraph* g : graphs) {
    if (g->z() != graphs[0]->z()) {
      return StatePredictor::ForwardScaledBatch(graphs);
    }
  }
  return ForwardStacked(graphs);
}

nn::Var LstGat::ForwardScaled(const StGraph& graph) const {
  HEAD_SPAN("perception.lstgat.forward");
  const StGraph* const one = &graph;
  return ForwardStacked({&one, 1});
}

std::vector<double> LstGat::AttentionWeights(const StGraph& graph,
                                             int i) const {
  HEAD_CHECK(i >= 0 && i < kNumAreas);
  HEAD_CHECK_GT(graph.z(), 0);
  // Introspection only — values, no recorded graph. Tape-neutral (no reset):
  // callers may hold live Vars; these nodes recycle at the next region entry.
  const nn::NoGradGuard no_grad;
  const StGraph* const one = &graph;
  const nn::Var m =
      nn::Var::Constant(StackStepBatch({&one, 1}, graph.z() - 1));
  const nn::Var alpha = Attention(nn::MatMul(m, phi1_), kNumAreas);  // (6×7)
  const double* row = alpha.value().data().data() + i * kNodesPerTarget;
  return std::vector<double>(row, row + kNodesPerTarget);
}

}  // namespace head::perception
