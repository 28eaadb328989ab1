// Supervised training/evaluation harness for the state predictors
// (Eq. 14's masked MSE objective, Adam, minibatches) plus the accuracy and
// convergence-time metrics of Tables III/IV.
#ifndef HEAD_PERCEPTION_TRAINER_H_
#define HEAD_PERCEPTION_TRAINER_H_

#include <cstdint>
#include <vector>

#include "obs/timeseries.h"
#include "perception/predictor.h"

namespace head::perception {

struct PredictionTrainConfig {
  int epochs = 15;          // paper Sec. V-A
  double learning_rate = 0.001;
  int batch_size = 64;
  uint64_t shuffle_seed = 7;
  bool verbose = false;
  /// Optional training-curve sink (not owned; must outlive the call). When
  /// set, every epoch appends one row: epoch index, mean masked scaled MSE,
  /// and its RMSE.
  obs::TimeSeries* timeseries = nullptr;
};

struct PredictionTrainResult {
  /// Mean masked scaled MSE over the minibatches that took a step (a step
  /// with a non-finite loss or gradient norm is skipped and counted in
  /// perception.train.nonfinite_steps).
  std::vector<double> epoch_losses;
  std::vector<double> epoch_elapsed_seconds; // cumulative wall-clock
  /// Wall-clock until the first epoch whose loss is within 5% of the best —
  /// the "training convergence time" (TCT) of Table IV.
  double convergence_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Accuracy metrics of Table III, computed on raw (unscaled) errors over all
/// valid (unmasked) target components.
struct PredictionMetrics {
  double mae = 0.0;
  double mse = 0.0;
  double rmse = 0.0;
};

/// Mean masked scaled-residual MSE of the model on `samples` (no training).
double PredictionLoss(const StatePredictor& model,
                      const std::vector<PredictionSample>& samples);

PredictionTrainResult TrainPredictor(
    StatePredictor& model, const std::vector<PredictionSample>& train,
    const PredictionTrainConfig& config);

PredictionMetrics EvaluatePredictor(
    const StatePredictor& model, const std::vector<PredictionSample>& test);

/// Per-component error breakdown (lateral distance, longitudinal distance,
/// relative velocity) — useful to see *where* a predictor's error lives;
/// the aggregate of Table III averages over all three.
struct PerComponentMetrics {
  PredictionMetrics d_lat;
  PredictionMetrics d_lon;
  PredictionMetrics v_rel;
};

PerComponentMetrics EvaluatePredictorPerComponent(
    const StatePredictor& model, const std::vector<PredictionSample>& test);

}  // namespace head::perception

#endif  // HEAD_PERCEPTION_TRAINER_H_
