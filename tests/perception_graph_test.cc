// Spatial-temporal graph construction and the prediction models: feature
// encoding, network shapes, attention normalization, parallel output, and
// learnability (overfit a tiny dataset).
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "perception/baselines/ed_lstm.h"
#include "perception/baselines/gas_led.h"
#include "perception/baselines/lstm_mlp.h"
#include "perception/lst_gat.h"
#include "perception/st_graph.h"
#include "perception/trainer.h"

namespace head::perception {
namespace {

RoadConfig DefaultRoad() { return RoadConfig{}; }

HistoryBuffer MovingScene(int z) {
  HistoryBuffer buffer(z);
  for (int k = 0; k < z; ++k) {
    ObservationFrame frame;
    frame.ego = {3, 500.0 + 10.0 * k, 20.0};
    frame.observed = {
        {7, {3, 540.0 + 9.0 * k, 18.0}},   // front, slowly approached
        {8, {2, 520.0 + 11.0 * k, 22.0}},  // front-left, pulling away
        {9, {4, 470.0 + 10.0 * k, 20.0}},  // rear-right, matched speed
    };
    buffer.Push(frame);
  }
  return buffer;
}

StGraph MovingGraph() {
  const RoadConfig road = DefaultRoad();
  const HistoryBuffer buffer = MovingScene(5);
  return BuildStGraph(ConstructPhantoms(buffer, road, 100.0), road);
}

TEST(StGraphTest, ShapesAndBookkeeping) {
  const StGraph graph = MovingGraph();
  EXPECT_EQ(graph.z(), 5);
  EXPECT_EQ(graph.steps.size(), 5u);
  EXPECT_FALSE(graph.target_is_phantom[kFront]);
  EXPECT_EQ(graph.target_ids[kFront], 7);
  EXPECT_TRUE(graph.target_is_phantom[kRear]);  // nobody directly behind
  EXPECT_DOUBLE_EQ(graph.ego_current.lon_m, 540.0);
}

TEST(StGraphTest, RelativeFeaturesMatchEquations) {
  const RoadConfig road = DefaultRoad();
  const StGraph graph = MovingGraph();
  const FeatureScale scale;
  // Front target (id 7) at newest step: d_lon = (540+36) − (500+40) = 36.
  const auto& feat = graph.steps.back().feat[kFront][0];
  EXPECT_NEAR(feat[0], 0.0, 1e-12);                         // same lane
  EXPECT_NEAR(feat[1], 36.0 * scale.lon, 1e-12);            // d_lon scaled
  EXPECT_NEAR(feat[2], -2.0 * scale.v, 1e-12);              // 18 − 20
  EXPECT_NEAR(feat[3], 0.0, 1e-12);                         // real vehicle
  EXPECT_NEAR(graph.target_rel_current[kFront][1], 36.0, 1e-12);
  (void)road;
}

TEST(StGraphTest, PhantomFlagSetOnConstructedTargets) {
  const StGraph graph = MovingGraph();
  const auto& feat = graph.steps.back().feat[kRear][0];
  EXPECT_DOUBLE_EQ(feat[3], 1.0);
}

TEST(StGraphTest, EgoNodeUsesRawScaledState) {
  const RoadConfig road = DefaultRoad();
  const StGraph graph = MovingGraph();
  // The mirror slot of the front target holds the ego (Eq. 8 row 1).
  const auto& ego_feat =
      graph.steps.back().feat[kFront][1 + MirrorArea(kFront)];
  EXPECT_NEAR(ego_feat[0], 3.0 / road.num_lanes, 1e-12);
  EXPECT_NEAR(ego_feat[1], 540.0 / road.length_m, 1e-12);
  EXPECT_NEAR(ego_feat[2], 20.0 / road.v_max_mps, 1e-12);
}

TEST(LstGatTest, OutputShapeAndDeterminism) {
  Rng rng(3);
  const LstGat model(LstGatConfig{}, rng);
  const StGraph graph = MovingGraph();
  const nn::Var out1 = model.ForwardScaled(graph);
  const nn::Var out2 = model.ForwardScaled(graph);
  EXPECT_EQ(out1.value().rows(), kNumAreas);
  EXPECT_EQ(out1.value().cols(), 3);
  EXPECT_EQ(out1.value(), out2.value());
}

TEST(LstGatTest, AttentionWeightsFormDistribution) {
  Rng rng(3);
  const LstGat model(LstGatConfig{}, rng);
  const StGraph graph = MovingGraph();
  for (int i = 0; i < kNumAreas; ++i) {
    const std::vector<double> alpha = model.AttentionWeights(graph, i);
    ASSERT_EQ(alpha.size(), static_cast<size_t>(kNodesPerTarget));
    double sum = 0.0;
    for (double a : alpha) {
      EXPECT_GT(a, 0.0);
      sum += a;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LstGatTest, PredictDecodesResidualAroundCurrentState) {
  Rng rng(3);
  const LstGat model(LstGatConfig{}, rng);
  const StGraph graph = MovingGraph();
  const Prediction pred = model.Predict(graph);
  // Untrained network outputs are small; predictions should sit near the
  // current relative states (residual decoding).
  for (int i = 0; i < kNumAreas; ++i) {
    EXPECT_NEAR(pred[i].d_lon_m, graph.target_rel_current[i][1], 150.0);
    EXPECT_NEAR(pred[i].d_lat_m, graph.target_rel_current[i][0], 15.0);
  }
}

PredictionSample MakeSample() {
  PredictionSample s;
  s.graph = MovingGraph();
  for (int i = 0; i < kNumAreas; ++i) {
    s.truth.valid[i] = !s.graph.target_is_phantom[i];
    // Plausible next step: everything advances by one Δt.
    s.truth.value[i] = {s.graph.target_rel_current[i][0],
                        s.graph.target_rel_current[i][1] +
                            s.graph.target_rel_current[i][2] * 0.5,
                        s.graph.target_rel_current[i][2]};
  }
  return s;
}

template <typename Model>
void ExpectLearns(Model&& model, double min_improvement) {
  std::vector<PredictionSample> data = {MakeSample()};
  const double before = PredictionLoss(model, data);
  PredictionTrainConfig config;
  config.epochs = 60;
  config.learning_rate = 0.01;
  TrainPredictor(model, data, config);
  const double after = PredictionLoss(model, data);
  EXPECT_LT(after, before * min_improvement)
      << "before=" << before << " after=" << after;
}

TEST(PredictorLearningTest, NonFiniteTruthSkipsStepAndIsCounted) {
  // A NaN truth on a valid target makes that minibatch's loss and gradient
  // norm NaN; its step is skipped and counted, the other steps still train,
  // and the epoch loss covers only the steps taken.
  PredictionSample bad = MakeSample();
  int target = -1;
  for (int i = 0; i < kNumAreas && target < 0; ++i) {
    if (bad.truth.valid[i]) target = i;
  }
  ASSERT_GE(target, 0);
  bad.truth.value[target][1] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<PredictionSample> data = {MakeSample(), bad};

  Rng rng(5);
  LstGat model(LstGatConfig{}, rng);
  obs::Counter& nonfinite =
      obs::GetCounter("perception.train.nonfinite_steps");
  const int64_t before = nonfinite.value();
  PredictionTrainConfig config;
  config.epochs = 3;
  config.batch_size = 1;
  const PredictionTrainResult result = TrainPredictor(model, data, config);
  EXPECT_EQ(nonfinite.value() - before, config.epochs);
  for (double loss : result.epoch_losses) EXPECT_TRUE(std::isfinite(loss));
  for (const nn::Var& p : model.Params()) {
    for (int i = 0; i < p.value().size(); ++i) {
      ASSERT_TRUE(std::isfinite(p.value()[i]));
    }
  }
}

TEST(PredictorLearningTest, LstGatOverfitsOneSample) {
  Rng rng(5);
  LstGat model(LstGatConfig{}, rng);
  ExpectLearns(model, 0.2);
}

TEST(PredictorLearningTest, LstmMlpOverfitsOneSample) {
  Rng rng(5);
  LstmMlp model(64, rng);
  ExpectLearns(model, 0.2);
}

TEST(PredictorLearningTest, EdLstmOverfitsOneSample) {
  Rng rng(5);
  EdLstm model(64, rng);
  ExpectLearns(model, 0.2);
}

TEST(PredictorLearningTest, GasLedOverfitsOneSample) {
  Rng rng(5);
  GasLed model(64, rng);
  ExpectLearns(model, 0.2);
}

TEST(PredictorTest, MaskedTruthProducesZeroLossContribution) {
  Rng rng(5);
  const LstGat model(LstGatConfig{}, rng);
  PredictionSample s = MakeSample();
  for (int i = 0; i < kNumAreas; ++i) s.truth.valid[i] = false;
  const double loss = PredictionLoss(model, {s});
  EXPECT_DOUBLE_EQ(loss, 0.0);
}

TEST(PredictorTest, PerComponentMetricsAverageToAggregate) {
  Rng rng(5);
  const LstGat model(LstGatConfig{}, rng);
  const std::vector<PredictionSample> data = {MakeSample()};
  const PredictionMetrics agg = EvaluatePredictor(model, data);
  const PerComponentMetrics per =
      EvaluatePredictorPerComponent(model, data);
  EXPECT_NEAR(agg.mae,
              (per.d_lat.mae + per.d_lon.mae + per.v_rel.mae) / 3.0, 1e-12);
  EXPECT_NEAR(agg.mse,
              (per.d_lat.mse + per.d_lon.mse + per.v_rel.mse) / 3.0, 1e-12);
}

TEST(PredictorTest, EvaluateReportsConsistentMetrics) {
  Rng rng(5);
  const LstGat model(LstGatConfig{}, rng);
  const std::vector<PredictionSample> data = {MakeSample()};
  const PredictionMetrics m = EvaluatePredictor(model, data);
  EXPECT_GE(m.mae, 0.0);
  EXPECT_GE(m.mse, 0.0);
  EXPECT_NEAR(m.rmse, std::sqrt(m.mse), 1e-12);
  EXPECT_GE(m.rmse, m.mae - 1e-12);  // RMSE ≥ MAE always
}

}  // namespace
}  // namespace head::perception
