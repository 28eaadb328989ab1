#include "serve/snapshot.h"

#include <utility>

#include "common/check.h"
#include "nn/autograd.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace head::serve {

namespace {

int ArgMaxRow(const nn::Tensor& t, int row) {
  int best = 0;
  for (int c = 1; c < t.cols(); ++c) {
    if (t.At(row, c) > t.At(row, best)) best = c;
  }
  return best;
}

}  // namespace

ModelSnapshot::ModelSnapshot(uint64_t version, std::unique_ptr<rl::XNet> x,
                             std::unique_ptr<rl::QNet> q,
                             std::unique_ptr<perception::StatePredictor> predictor)
    : version_(version),
      x_(std::move(x)),
      q_(std::move(q)),
      predictor_(std::move(predictor)) {
  HEAD_CHECK(x_ != nullptr);
  HEAD_CHECK(q_ != nullptr);
}

void ModelSnapshot::DecideBatch(
    const std::vector<const rl::AugmentedState*>& states,
    DecisionOutput* out) const {
  const int n = static_cast<int>(states.size());
  HEAD_CHECK_GT(n, 0);
  HEAD_SPAN("serve.decide");
  nn::ResetTape();  // recycle the previous batch's nodes on this thread
  const nn::NoGradGuard no_grad;

  const nn::Var x = x_->ForwardBatch(states);
  const nn::Var q = q_->ForwardBatch(states, x);
  const nn::Tensor& xv = x.value();  // (B×3) accelerations
  const nn::Tensor& qv = q.value();  // (B×3) action values
  HEAD_CHECK_EQ(xv.rows(), n);
  HEAD_CHECK_EQ(xv.cols(), rl::kNumBehaviors);
  HEAD_CHECK_EQ(qv.cols(), rl::kNumBehaviors);
  for (int i = 0; i < n; ++i) {
    DecisionOutput& d = out[i];
    d.behavior = ArgMaxRow(qv, i);
    d.accel = xv.At(i, d.behavior);
    for (int c = 0; c < rl::kNumBehaviors; ++c) {
      d.q[c] = qv.At(i, c);
      d.params[c] = xv.At(i, c);
    }
  }
}

void ModelSnapshot::PredictBatch(
    const std::vector<const perception::StGraph*>& graphs,
    perception::Prediction* out) const {
  const int n = static_cast<int>(graphs.size());
  HEAD_CHECK_GT(n, 0);
  HEAD_CHECK(predictor_ != nullptr);
  HEAD_SPAN("serve.predict");
  nn::ResetTape();
  const nn::NoGradGuard no_grad;
  const perception::FeatureScale& scale = predictor_->scale();

  // Group requests by history depth z — the vectorized LST-GAT pass
  // requires a uniform-z batch. Serving deployments see a single z, so this
  // is one group in practice.
  std::vector<std::pair<int, std::vector<int>>> groups;
  for (int i = 0; i < n; ++i) {
    const int z = graphs[i]->z();
    auto it = groups.begin();
    for (; it != groups.end() && it->first != z; ++it) {
    }
    if (it == groups.end()) {
      groups.emplace_back(z, std::vector<int>{});
      it = groups.end() - 1;
    }
    it->second.push_back(i);
  }

  for (const auto& [z, idxs] : groups) {
    const int m = static_cast<int>(idxs.size());
    std::vector<const perception::StGraph*> group;
    group.reserve(idxs.size());
    for (const int i : idxs) group.push_back(graphs[i]);

    const nn::Var v = predictor_->ForwardScaledBatch(group);
    const nn::Tensor& value = v.value();  // (m·6×3) scaled residuals
    HEAD_CHECK_EQ(value.rows(), m * perception::kNumAreas);
    HEAD_CHECK_EQ(value.cols(), 3);
    for (int j = 0; j < m; ++j) {
      const perception::StGraph& g = *group[j];
      perception::Prediction& pred = out[idxs[j]];
      for (int i = 0; i < perception::kNumAreas; ++i) {
        const int row = j * perception::kNumAreas + i;
        pred[i].d_lat_m =
            g.target_rel_current[i][0] + value.At(row, 0) / scale.lat;
        pred[i].d_lon_m =
            g.target_rel_current[i][1] + value.At(row, 1) / scale.lon;
        pred[i].v_rel_mps =
            g.target_rel_current[i][2] + value.At(row, 2) / scale.v;
      }
    }
  }
}

ModelSnapshotRegistry::ModelSnapshotRegistry(ModelFactories factories,
                                             size_t keep, uint64_t seed)
    : factories_(std::move(factories)), keep_(keep), rng_(seed) {
  HEAD_CHECK_GE(keep_, 1u);
  HEAD_CHECK(factories_.make_x != nullptr);
  HEAD_CHECK(factories_.make_q != nullptr);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshotRegistry::Publish(
    const rl::XNet& x, const rl::QNet& q,
    const perception::StatePredictor* predictor) {
  HEAD_PROF_SCOPE("serve.publish");
  // Deep copies run outside the ring lock — weight copies are the expensive
  // part of a publish and must not block Current() readers' lock-free path
  // (they don't) nor live_versions() introspection (they would).
  Rng fork(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fork = rng_.Fork();
  }
  std::unique_ptr<rl::XNet> x_copy = factories_.make_x(fork);
  x_copy->CopyParamsFrom(x);
  std::unique_ptr<rl::QNet> q_copy = factories_.make_q(fork);
  q_copy->CopyParamsFrom(q);
  std::unique_ptr<perception::StatePredictor> pred_copy;
  if (predictor != nullptr) {
    HEAD_CHECK(factories_.make_predictor != nullptr);
    pred_copy = factories_.make_predictor(fork);
    pred_copy->CopyParamsFrom(*predictor);
  }

  std::shared_ptr<const ModelSnapshot> snap;
  std::vector<std::shared_ptr<const ModelSnapshot>> retired;
  size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = std::make_shared<const ModelSnapshot>(
        ++next_version_, std::move(x_copy), std::move(q_copy),
        std::move(pred_copy));
    ring_.push_back(snap);
    current_ = snap;
    while (ring_.size() > keep_) {
      retired.push_back(std::move(ring_.front()));
      ring_.pop_front();
    }
    live = ring_.size();
  }

  static obs::Counter& published = obs::GetCounter("serve.snapshots_published");
  static obs::Counter& retired_count =
      obs::GetCounter("serve.snapshots_retired");
  static obs::Gauge& live_gauge = obs::GetGauge("serve.live_snapshots");
  published.Add();
  live_gauge.Set(static_cast<double>(live));
  for (const std::shared_ptr<const ModelSnapshot>& r : retired) {
    // Drain outside the lock: a retiree's in-flight batches keep their own
    // shared_ptr, so this wait is a staleness bound, not a safety need.
    r->inflight().Wait();
    retired_count.Add();
  }
  return snap;
}

uint64_t ModelSnapshotRegistry::current_version() const {
  const std::shared_ptr<const ModelSnapshot> snap = Current();
  return snap == nullptr ? 0 : snap->version();
}

std::vector<uint64_t> ModelSnapshotRegistry::live_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> versions;
  versions.reserve(ring_.size());
  for (const std::shared_ptr<const ModelSnapshot>& s : ring_) {
    versions.push_back(s->version());
  }
  return versions;
}

}  // namespace head::serve
