#include "perception/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/logging.h"
#include "nn/autograd.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace head::perception {

namespace {

/// Masked scaled MSE of one sample as a differentiable Var.
nn::Var SampleLoss(const StatePredictor& model, const PredictionSample& s) {
  const nn::Var pred = model.ForwardScaled(s.graph);
  const nn::Var truth =
      nn::Var::Constant(ScaledResidualTruth(s.graph, s.truth, model.scale()));
  const nn::Var mask = nn::Var::Constant(TruthMask(s.truth));
  int valid = 0;
  for (bool v : s.truth.valid) valid += v ? 1 : 0;
  if (valid == 0) {
    return nn::Var::Constant(nn::Tensor::Zeros(1, 1));
  }
  const nn::Var err = nn::Mul(nn::Sub(pred, truth), mask);
  return nn::Scale(nn::Sum(nn::Square(err)), 1.0 / (3.0 * valid));
}

/// Stacked regression targets of one minibatch: truth residuals and
/// per-element weights (mask / (3·valid_s), zero rows for all-masked
/// samples), sample-major to match ForwardScaledBatch.
struct BatchTargets {
  nn::Tensor truth;
  nn::Tensor weight;
};

BatchTargets BuildBatchTargets(const StatePredictor& model,
                               const std::vector<const PredictionSample*>& batch) {
  const int b = static_cast<int>(batch.size());
  BatchTargets out{nn::Tensor(b * kNumAreas, 3), nn::Tensor(b * kNumAreas, 3)};
  for (int s = 0; s < b; ++s) {
    const PredictionSample& sample = *batch[s];
    const nn::Tensor t =
        ScaledResidualTruth(sample.graph, sample.truth, model.scale());
    int valid = 0;
    for (bool v : sample.truth.valid) valid += v ? 1 : 0;
    const double w = valid > 0 ? 1.0 / (3.0 * valid) : 0.0;
    for (int i = 0; i < kNumAreas; ++i) {
      for (int c = 0; c < 3; ++c) {
        out.truth.At(s * kNumAreas + i, c) = t.At(i, c);
        out.weight.At(s * kNumAreas + i, c) = sample.truth.valid[i] ? w : 0.0;
      }
    }
  }
  return out;
}

/// Mean masked scaled MSE of a whole minibatch as ONE differentiable Var.
nn::Var BatchLoss(const StatePredictor& model,
                  const std::vector<const PredictionSample*>& batch) {
  const int b = static_cast<int>(batch.size());
  std::vector<const StGraph*> graphs;
  graphs.reserve(b);
  for (const PredictionSample* s : batch) graphs.push_back(&s->graph);
  BatchTargets targets = BuildBatchTargets(model, batch);
  const nn::Var pred = model.ForwardScaledBatch(graphs);
  const nn::Var err =
      nn::Sub(pred, nn::Var::Constant(std::move(targets.truth)));
  const nn::Var weighted =
      nn::Mul(nn::Square(err), nn::Var::Constant(std::move(targets.weight)));
  return nn::Scale(nn::Sum(weighted), 1.0 / b);
}

}  // namespace

double PredictionLoss(const StatePredictor& model,
                      const std::vector<PredictionSample>& samples) {
  HEAD_CHECK(!samples.empty());
  const nn::NoGradGuard no_grad;  // evaluation — values only
  double total = 0.0;
  for (const PredictionSample& s : samples) {
    nn::ResetTape();  // one recycled tape per sample
    total += SampleLoss(model, s).value()[0];
  }
  return total / samples.size();
}

PredictionTrainResult TrainPredictor(
    StatePredictor& model, const std::vector<PredictionSample>& train,
    const PredictionTrainConfig& config) {
  HEAD_CHECK(!train.empty());
  nn::Adam opt(model.Params(), config.learning_rate);
  Rng rng(config.shuffle_seed);
  std::vector<int> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  static obs::Counter& epochs_counter =
      obs::GetCounter("perception.train.epochs");
  static obs::Gauge& loss_gauge =
      obs::GetGauge("perception.train.epoch_loss");
  static obs::Gauge& rmse_gauge =
      obs::GetGauge("perception.train.epoch_rmse");
  static obs::Histogram& epoch_latency =
      obs::LatencyHistogram("perception.train.epoch");

  PredictionTrainResult result;
  const auto start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    HEAD_SPAN("perception.train.epoch");
    obs::ScopedTimer epoch_timer(epoch_latency);
    std::shuffle(order.begin(), order.end(), rng.engine());
    double epoch_loss = 0.0;
    for (size_t b = 0; b < order.size(); b += config.batch_size) {
      HEAD_PROF_SCOPE("perception.train.step");  // profiler root per batch
      const size_t end = std::min(order.size(), b + config.batch_size);
      nn::ResetTape();  // steady state: the whole batch reuses recycled nodes
      opt.ZeroGrad();
      double step_loss;
      if (config.batched) {
        std::vector<const PredictionSample*> batch;
        batch.reserve(end - b);
        for (size_t k = b; k < end; ++k) batch.push_back(&train[order[k]]);
        const nn::Var batch_loss = BatchLoss(model, batch);
        step_loss = batch_loss.value()[0];
        nn::Backward(batch_loss);
      } else {
        std::vector<nn::Var> losses;
        losses.reserve(end - b);
        for (size_t k = b; k < end; ++k) {
          losses.push_back(SampleLoss(model, train[order[k]]));
        }
        nn::Var batch_loss = losses[0];
        for (size_t k = 1; k < losses.size(); ++k) {
          batch_loss = nn::Add(batch_loss, losses[k]);
        }
        batch_loss = nn::Scale(batch_loss, 1.0 / losses.size());
        step_loss = batch_loss.value()[0];
        nn::Backward(batch_loss);
      }
      epoch_loss += step_loss * (end - b);
      opt.ClipGradNorm(5.0);
      opt.Step();
    }
    epoch_loss /= train.size();
    epochs_counter.Add();
    loss_gauge.Set(epoch_loss);
    rmse_gauge.Set(std::sqrt(std::max(epoch_loss, 0.0)));
    result.epoch_losses.push_back(epoch_loss);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.epoch_elapsed_seconds.push_back(elapsed);
    if (config.timeseries != nullptr) {
      config.timeseries->Append(
          elapsed, {{"epoch", static_cast<double>(epoch)},
                    {"loss", epoch_loss},
                    {"rmse", std::sqrt(std::max(epoch_loss, 0.0))}});
    }
    if (config.verbose) {
      HEAD_LOG(Info) << model.name() << " epoch " << epoch + 1 << "/"
                     << config.epochs << " loss=" << epoch_loss;
    }
  }
  result.total_seconds = result.epoch_elapsed_seconds.back();

  const double best =
      *std::min_element(result.epoch_losses.begin(), result.epoch_losses.end());
  for (size_t e = 0; e < result.epoch_losses.size(); ++e) {
    if (result.epoch_losses[e] <= best * 1.05) {
      result.convergence_seconds = result.epoch_elapsed_seconds[e];
      break;
    }
  }
  return result;
}

PredictionMetrics EvaluatePredictor(
    const StatePredictor& model, const std::vector<PredictionSample>& test) {
  HEAD_CHECK(!test.empty());
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  long count = 0;
  for (const PredictionSample& s : test) {
    const Prediction pred = model.Predict(s.graph);
    for (int i = 0; i < kNumAreas; ++i) {
      if (!s.truth.valid[i]) continue;
      const double errs[3] = {pred[i].d_lat_m - s.truth.value[i][0],
                              pred[i].d_lon_m - s.truth.value[i][1],
                              pred[i].v_rel_mps - s.truth.value[i][2]};
      for (double e : errs) {
        abs_sum += std::fabs(e);
        sq_sum += e * e;
        ++count;
      }
    }
  }
  HEAD_CHECK_GT(count, 0);
  PredictionMetrics m;
  m.mae = abs_sum / count;
  m.mse = sq_sum / count;
  m.rmse = std::sqrt(m.mse);
  return m;
}

PerComponentMetrics EvaluatePredictorPerComponent(
    const StatePredictor& model, const std::vector<PredictionSample>& test) {
  HEAD_CHECK(!test.empty());
  double abs_sum[3] = {0, 0, 0};
  double sq_sum[3] = {0, 0, 0};
  long count = 0;
  for (const PredictionSample& s : test) {
    const Prediction pred = model.Predict(s.graph);
    for (int i = 0; i < kNumAreas; ++i) {
      if (!s.truth.valid[i]) continue;
      const double errs[3] = {pred[i].d_lat_m - s.truth.value[i][0],
                              pred[i].d_lon_m - s.truth.value[i][1],
                              pred[i].v_rel_mps - s.truth.value[i][2]};
      for (int c = 0; c < 3; ++c) {
        abs_sum[c] += std::fabs(errs[c]);
        sq_sum[c] += errs[c] * errs[c];
      }
      ++count;
    }
  }
  HEAD_CHECK_GT(count, 0);
  auto make = [&](int c) {
    PredictionMetrics m;
    m.mae = abs_sum[c] / count;
    m.mse = sq_sum[c] / count;
    m.rmse = std::sqrt(m.mse);
    return m;
  };
  return PerComponentMetrics{make(0), make(1), make(2)};
}

}  // namespace head::perception
