#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "nn/arena.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace head::serve {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Histogram& BatchSizeHistogram() {
  // Linear 1..128 buckets: batch sizes are small integers and the mean /
  // percentiles of this histogram are the batching-efficiency signal.
  return obs::GetHistogram("serve.batch_size",
                           obs::CachedLinearBounds(1.0, 128.0, 1.0));
}

/// A future that is already complete with `status` — the no-compute exits
/// (rejection, shutdown-at-submit).
template <typename Reply>
std::future<Reply> ReadyReply(ServeStatus status, double latency_s) {
  std::promise<Reply> promise;
  Reply reply;
  reply.status = status;
  reply.latency_s = latency_s;
  std::future<Reply> future = promise.get_future();
  promise.set_value(std::move(reply));
  return future;
}

/// Completes `pending` without model output (rejection / deadline /
/// shutdown paths).
template <typename Pending, typename Reply>
void CompleteWithStatus(Pending& pending, ServeStatus status, double now) {
  Reply reply;
  reply.status = status;
  reply.latency_s = now - pending.submit_s;
  pending.promise.set_value(std::move(reply));
}

}  // namespace

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kRejected:
      return "rejected";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

DecisionService::DecisionService(ModelSnapshotRegistry* registry,
                                 const ServeConfig& config)
    : registry_(registry),
      config_(config),
      // The admission bound spans both kinds, so either ring alone may hold
      // up to queue_capacity entries.
      decision_queue_(static_cast<size_t>(std::max(config.queue_capacity, 1))),
      prediction_queue_(
          static_cast<size_t>(std::max(config.queue_capacity, 1))) {
  HEAD_CHECK(registry_ != nullptr);
  HEAD_CHECK_GE(config_.max_batch, 1);
  HEAD_CHECK_GE(config_.batch_window_us, 0);
  HEAD_CHECK_GE(config_.queue_capacity, 1);
  batcher_ = std::thread([this] { BatcherLoop(); });
}

DecisionService::~DecisionService() { Shutdown(); }

std::future<DecisionReply> DecisionService::SubmitDecision(
    DecisionRequest request) {
  static obs::Counter& requests = obs::GetCounter("serve.requests");
  static obs::Counter& rejected = obs::GetCounter("serve.rejected");
  static obs::Gauge& depth = obs::GetGauge("serve.queue_depth");
  requests.Add();
  const double now = NowSeconds();
  PendingDecision pending;
  pending.request = std::move(request);
  pending.submit_s = now;
  const int64_t budget_us = pending.request.deadline_us > 0
                                ? pending.request.deadline_us
                                : config_.default_deadline_us;
  pending.deadline_s = budget_us > 0 ? now + budget_us * 1e-6 : 0.0;
  std::future<DecisionReply> future = pending.promise.get_future();
  size_t kind_size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return ReadyReply<DecisionReply>(ServeStatus::kShutdown, 0.0);
    if (static_cast<int>(decision_queue_.size() + prediction_queue_.size()) >=
        config_.queue_capacity) {
      rejected.Add();
      return ReadyReply<DecisionReply>(ServeStatus::kRejected, 0.0);
    }
    decision_queue_.push_back(std::move(pending));
    kind_size = decision_queue_.size();
    depth.Set(static_cast<double>(kind_size + prediction_queue_.size()));
  }
  // Edge-triggered wakeup: the batcher only acts on this queue becoming
  // non-empty (it may be idle) or filling a whole batch (it may be holding
  // the window open). Notifying on every submit looks harmless but costs a
  // futex wake + spurious batcher wakeup per request at saturating load —
  // it was the single largest per-request overhead on the serving path.
  if (kind_size == 1 || kind_size == static_cast<size_t>(config_.max_batch)) {
    cv_.notify_one();
  }
  return future;
}

std::future<PredictionReply> DecisionService::SubmitPrediction(
    PredictionRequest request) {
  static obs::Counter& requests = obs::GetCounter("serve.requests");
  static obs::Counter& rejected = obs::GetCounter("serve.rejected");
  static obs::Gauge& depth = obs::GetGauge("serve.queue_depth");
  requests.Add();
  const double now = NowSeconds();
  PendingPrediction pending;
  pending.request = std::move(request);
  pending.submit_s = now;
  const int64_t budget_us = pending.request.deadline_us > 0
                                ? pending.request.deadline_us
                                : config_.default_deadline_us;
  pending.deadline_s = budget_us > 0 ? now + budget_us * 1e-6 : 0.0;
  std::future<PredictionReply> future = pending.promise.get_future();
  size_t kind_size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return ReadyReply<PredictionReply>(ServeStatus::kShutdown, 0.0);
    if (static_cast<int>(decision_queue_.size() + prediction_queue_.size()) >=
        config_.queue_capacity) {
      rejected.Add();
      return ReadyReply<PredictionReply>(ServeStatus::kRejected, 0.0);
    }
    prediction_queue_.push_back(std::move(pending));
    kind_size = prediction_queue_.size();
    depth.Set(static_cast<double>(decision_queue_.size() + kind_size));
  }
  // Edge-triggered wakeup; see SubmitDecision.
  if (kind_size == 1 || kind_size == static_cast<size_t>(config_.max_batch)) {
    cv_.notify_one();
  }
  return future;
}

int64_t DecisionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(decision_queue_.size() +
                              prediction_queue_.size());
}

void DecisionService::SetPausedForTest(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void DecisionService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  inflight_.Wait();
}

bool DecisionService::FormAndDispatchLocked(
    std::unique_lock<std::mutex>& lock) {
  static obs::Counter& deadline_missed =
      obs::GetCounter("serve.deadline_missed");
  static obs::Gauge& depth = obs::GetGauge("serve.queue_depth");

  // Serve the kind whose oldest request has waited longest.
  const bool have_d = !decision_queue_.empty();
  const bool have_p = !prediction_queue_.empty();
  if (!have_d && !have_p) return false;
  const bool decisions =
      have_d && (!have_p ||
                 decision_queue_.front().submit_s <=
                     prediction_queue_.front().submit_s);

  // Window: wait until max_batch of this kind are queued or batch_window_us
  // has elapsed since the oldest one was admitted.
  const double cut_s =
      (decisions ? decision_queue_.front().submit_s
                 : prediction_queue_.front().submit_s) +
      config_.batch_window_us * 1e-6;
  for (;;) {
    if (stop_ || paused_) return false;
    const size_t waiting =
        decisions ? decision_queue_.size() : prediction_queue_.size();
    if (static_cast<int>(waiting) >= config_.max_batch) break;
    const double remaining_s = cut_s - NowSeconds();
    if (remaining_s <= 0.0) break;
    cv_.wait_for(lock, std::chrono::duration<double>(remaining_s));
  }

  // Pop straight into the heap vector the executor will own: one move per
  // request, no re-wrap at dispatch time.
  const double now = NowSeconds();
  if (decisions) {
    auto batch = std::make_shared<std::vector<PendingDecision>>();
    batch->reserve(static_cast<size_t>(config_.max_batch));
    while (!decision_queue_.empty() &&
           static_cast<int>(batch->size()) < config_.max_batch) {
      PendingDecision& pending = decision_queue_.front();
      if (pending.deadline_s > 0.0 && now > pending.deadline_s) {
        deadline_missed.Add();
        CompleteWithStatus<PendingDecision, DecisionReply>(
            pending, ServeStatus::kDeadlineExceeded, now);
      } else {
        batch->push_back(std::move(pending));
      }
      decision_queue_.pop_front();
    }
    depth.Set(static_cast<double>(decision_queue_.size() +
                                  prediction_queue_.size()));
    if (batch->empty()) return true;  // every candidate had expired
    lock.unlock();
    DispatchDecisions(registry_->Current(), std::move(batch));
    lock.lock();
  } else {
    auto batch = std::make_shared<std::vector<PendingPrediction>>();
    batch->reserve(static_cast<size_t>(config_.max_batch));
    while (!prediction_queue_.empty() &&
           static_cast<int>(batch->size()) < config_.max_batch) {
      PendingPrediction& pending = prediction_queue_.front();
      if (pending.deadline_s > 0.0 && now > pending.deadline_s) {
        deadline_missed.Add();
        CompleteWithStatus<PendingPrediction, PredictionReply>(
            pending, ServeStatus::kDeadlineExceeded, now);
      } else {
        batch->push_back(std::move(pending));
      }
      prediction_queue_.pop_front();
    }
    depth.Set(static_cast<double>(decision_queue_.size() +
                                  prediction_queue_.size()));
    if (batch->empty()) return true;
    lock.unlock();
    DispatchPredictions(registry_->Current(), std::move(batch));
    lock.lock();
  }
  return true;
}

void DecisionService::BatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] {
      return stop_ || (!paused_ && (!decision_queue_.empty() ||
                                    !prediction_queue_.empty()));
    });
    if (stop_) break;
    FormAndDispatchLocked(lock);
  }
  // Stopped: complete everything still queued as kShutdown.
  const double now = NowSeconds();
  while (!decision_queue_.empty()) {
    CompleteWithStatus<PendingDecision, DecisionReply>(
        decision_queue_.front(), ServeStatus::kShutdown, now);
    decision_queue_.pop_front();
  }
  while (!prediction_queue_.empty()) {
    CompleteWithStatus<PendingPrediction, PredictionReply>(
        prediction_queue_.front(), ServeStatus::kShutdown, now);
    prediction_queue_.pop_front();
  }
}

void DecisionService::DispatchDecisions(
    std::shared_ptr<const ModelSnapshot> snap,
    std::shared_ptr<std::vector<PendingDecision>> batch) {
  HEAD_CHECK(snap != nullptr);  // publish a version before submitting load
  inflight_.Acquire();
  // The batch rides behind a shared_ptr: std::function requires copyable
  // closures and the Pendings hold move-only promises.
  parallel::ThreadPool::Global().SubmitWithToken(
      &snap->inflight(), [this, snap, batch] {
        struct Releaser {
          parallel::WaitToken* token;
          ~Releaser() { token->Release(); }
        } releaser{&inflight_};
        ExecuteDecisionBatch(*snap, *batch);
      });
}

void DecisionService::DispatchPredictions(
    std::shared_ptr<const ModelSnapshot> snap,
    std::shared_ptr<std::vector<PendingPrediction>> batch) {
  HEAD_CHECK(snap != nullptr);
  inflight_.Acquire();
  parallel::ThreadPool::Global().SubmitWithToken(
      &snap->inflight(), [this, snap, batch] {
        struct Releaser {
          parallel::WaitToken* token;
          ~Releaser() { token->Release(); }
        } releaser{&inflight_};
        ExecutePredictionBatch(*snap, *batch);
      });
}

void DecisionService::ExecuteDecisionBatch(
    const ModelSnapshot& snap, std::vector<PendingDecision>& batch) {
  static obs::Histogram& exec_latency =
      obs::MicroLatencyHistogram("serve.batch_exec");
  static obs::Histogram& request_latency =
      obs::MicroLatencyHistogram("serve.request_latency");
  static obs::Counter& batches = obs::GetCounter("serve.batches");
  static obs::Counter& replies = obs::GetCounter("serve.replies");
  static obs::Counter& alloc_events = obs::GetCounter("serve.alloc_events");
  static obs::Gauge& model_version = obs::GetGauge("serve.model_version");
  HEAD_SPAN("serve.batch", exec_latency);  // profiler root of the serve path

  const size_t n = batch.size();
  std::vector<const rl::AugmentedState*> states;
  states.reserve(n);
  for (const PendingDecision& pending : batch) {
    states.push_back(&pending.request.state);
  }
  std::vector<DecisionOutput> outputs(n);
  const uint64_t allocs_before = nn::AllocEvents();
  snap.DecideBatch(states, outputs.data());
  alloc_events.Add(static_cast<int64_t>(nn::AllocEvents() - allocs_before));

  BatchSizeHistogram().Observe(static_cast<double>(n));
  batches.Add();
  model_version.Set(static_cast<double>(snap.version()));
  const double now = NowSeconds();
  for (size_t i = 0; i < n; ++i) {
    DecisionReply reply;
    reply.status = ServeStatus::kOk;
    reply.output = outputs[i];
    reply.model_version = snap.version();
    reply.latency_s = now - batch[i].submit_s;
    request_latency.Observe(reply.latency_s);
    batch[i].promise.set_value(std::move(reply));
  }
  replies.Add(static_cast<int64_t>(n));
}

void DecisionService::ExecutePredictionBatch(
    const ModelSnapshot& snap, std::vector<PendingPrediction>& batch) {
  static obs::Histogram& exec_latency =
      obs::MicroLatencyHistogram("serve.batch_exec");
  static obs::Histogram& request_latency =
      obs::MicroLatencyHistogram("serve.request_latency");
  static obs::Counter& batches = obs::GetCounter("serve.batches");
  static obs::Counter& replies = obs::GetCounter("serve.replies");
  static obs::Counter& alloc_events = obs::GetCounter("serve.alloc_events");
  static obs::Gauge& model_version = obs::GetGauge("serve.model_version");
  HEAD_SPAN("serve.batch", exec_latency);

  const size_t n = batch.size();
  std::vector<const perception::StGraph*> graphs;
  graphs.reserve(n);
  for (const PendingPrediction& pending : batch) {
    graphs.push_back(&pending.request.graph);
  }
  std::vector<perception::Prediction> predictions(n);
  const uint64_t allocs_before = nn::AllocEvents();
  snap.PredictBatch(graphs, predictions.data());
  alloc_events.Add(static_cast<int64_t>(nn::AllocEvents() - allocs_before));

  BatchSizeHistogram().Observe(static_cast<double>(n));
  batches.Add();
  model_version.Set(static_cast<double>(snap.version()));
  const double now = NowSeconds();
  for (size_t i = 0; i < n; ++i) {
    PredictionReply reply;
    reply.status = ServeStatus::kOk;
    reply.prediction = predictions[i];
    reply.model_version = snap.version();
    reply.latency_s = now - batch[i].submit_s;
    request_latency.Observe(reply.latency_s);
    batch[i].promise.set_value(std::move(reply));
  }
  replies.Add(static_cast<int64_t>(n));
}

}  // namespace head::serve
