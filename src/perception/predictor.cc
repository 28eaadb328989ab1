#include "perception/predictor.h"

#include "common/check.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/span.h"

namespace head::perception {

nn::Var StatePredictor::ForwardScaledBatch(
    const std::vector<const StGraph*>& graphs) const {
  HEAD_CHECK(!graphs.empty());
  std::vector<nn::Var> rows;
  rows.reserve(graphs.size());
  for (const StGraph* g : graphs) rows.push_back(ForwardScaled(*g));
  return rows.size() == 1 ? rows[0] : nn::ConcatRows(rows);
}

Prediction StatePredictor::Predict(const StGraph& graph) const {
  HEAD_SPAN("perception.predict");
  HEAD_PROF_SCOPE("perception.predict");
  static obs::Histogram& latency = obs::LatencyHistogram("perception.predict");
  obs::ScopedTimer timer(latency);
  // Inference only — don't record an autograd graph for this forward pass,
  // and recycle the previous prediction's tape nodes first.
  nn::ResetTape();
  const nn::NoGradGuard no_grad;

  const nn::Var out = ForwardScaled(graph);
  const nn::Tensor& value = out.value();  // (6×3) scaled residuals
  HEAD_CHECK_EQ(value.rows(), kNumAreas);
  HEAD_CHECK_EQ(value.cols(), 3);
  Prediction pred;
  for (int i = 0; i < kNumAreas; ++i) {
    pred[i].d_lat_m =
        graph.target_rel_current[i][0] + value.At(i, 0) / scale_.lat;
    pred[i].d_lon_m =
        graph.target_rel_current[i][1] + value.At(i, 1) / scale_.lon;
    pred[i].v_rel_mps =
        graph.target_rel_current[i][2] + value.At(i, 2) / scale_.v;
  }

  if (obs::RecordingEnabled()) {
    static_assert(obs::kRecordNeighbors == kNumAreas);
    obs::StepRecord& rec = obs::ScratchRecord();
    for (int i = 0; i < kNumAreas; ++i) {
      rec.prediction[i].d_lat_m = pred[i].d_lat_m;
      rec.prediction[i].d_lon_m = pred[i].d_lon_m;
      rec.prediction[i].v_rel_mps = pred[i].v_rel_mps;
    }
    rec.has_prediction = 1;
  }
  return pred;
}

nn::Tensor ScaledResidualTruth(const StGraph& graph,
                               const PredictionTruth& truth,
                               const FeatureScale& scale) {
  nn::Tensor t(kNumAreas, 3);
  for (int i = 0; i < kNumAreas; ++i) {
    t.At(i, 0) =
        (truth.value[i][0] - graph.target_rel_current[i][0]) * scale.lat;
    t.At(i, 1) =
        (truth.value[i][1] - graph.target_rel_current[i][1]) * scale.lon;
    t.At(i, 2) =
        (truth.value[i][2] - graph.target_rel_current[i][2]) * scale.v;
  }
  return t;
}

nn::Tensor TruthMask(const PredictionTruth& truth) {
  nn::Tensor m(kNumAreas, 3);
  for (int i = 0; i < kNumAreas; ++i) {
    const double v = truth.valid[i] ? 1.0 : 0.0;
    for (int c = 0; c < 3; ++c) m.At(i, c) = v;
  }
  return m;
}

}  // namespace head::perception
