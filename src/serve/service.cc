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

/// Completes a request without model output (the rejection, deadline,
/// shutdown and unavailable paths).
template <typename Reply>
void CompleteWithStatus(std::promise<Reply>& promise, ServeStatus status,
                        double latency_s) {
  Reply reply;
  reply.status = status;
  reply.latency_s = latency_s;
  promise.set_value(std::move(reply));
}

/// A future that is already complete with `status` — the no-compute exits
/// at submit time (rejection, shutdown).
template <typename Reply>
std::future<Reply> ReadyReply(ServeStatus status) {
  std::promise<Reply> promise;
  CompleteWithStatus(promise, status, 0.0);
  return promise.get_future();
}

/// The per-kind seams of the request lane: the payload a batch forwards,
/// whether a snapshot can serve the kind, the snapshot call, and the reply
/// field the output lands in. Everything else is shared.
template <typename Request>
struct Kind;

template <>
struct Kind<DecisionRequest> {
  using Input = rl::AugmentedState;
  using Output = DecisionOutput;
  static const Input* Payload(const DecisionRequest& r) { return &r.state; }
  static Output& Field(DecisionReply& reply) { return reply.output; }
  static bool Servable(const ModelSnapshot&) { return true; }
  static void Run(const ModelSnapshot& snap,
                  const std::vector<const Input*>& in, Output* out) {
    snap.DecideBatch(in, out);
  }
};

template <>
struct Kind<PredictionRequest> {
  using Input = perception::StGraph;
  using Output = perception::Prediction;
  static const Input* Payload(const PredictionRequest& r) { return &r.graph; }
  static Output& Field(PredictionReply& reply) { return reply.prediction; }
  static bool Servable(const ModelSnapshot& snap) {
    return snap.has_predictor();
  }
  static void Run(const ModelSnapshot& snap,
                  const std::vector<const Input*>& in, Output* out) {
    snap.PredictBatch(in, out);
  }
};

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
    case ServeStatus::kUnavailable:
      return "unavailable";
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

template <typename Request, typename Reply>
std::future<Reply> DecisionService::Submit(Request request,
                                           Queue<Request, Reply>& queue) {
  static obs::Counter& requests = obs::GetCounter("serve.requests");
  static obs::Counter& rejected = obs::GetCounter("serve.rejected");
  static obs::Gauge& depth = obs::GetGauge("serve.queue_depth");
  requests.Add();
  const double now = NowSeconds();
  Pending<Request, Reply> pending;
  pending.request = std::move(request);
  pending.submit_s = now;
  const int64_t budget_us = pending.request.deadline_us > 0
                                ? pending.request.deadline_us
                                : config_.default_deadline_us;
  pending.deadline_s = budget_us > 0 ? now + budget_us * 1e-6 : 0.0;
  std::future<Reply> future = pending.promise.get_future();
  size_t kind_size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return ReadyReply<Reply>(ServeStatus::kShutdown);
    if (static_cast<int>(QueuedLocked()) >= config_.queue_capacity) {
      rejected.Add();
      return ReadyReply<Reply>(ServeStatus::kRejected);
    }
    queue.push_back(std::move(pending));
    kind_size = queue.size();
    depth.Set(static_cast<double>(QueuedLocked()));
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

std::future<DecisionReply> DecisionService::SubmitDecision(
    DecisionRequest request) {
  return Submit(std::move(request), decision_queue_);
}

std::future<PredictionReply> DecisionService::SubmitPrediction(
    PredictionRequest request) {
  return Submit(std::move(request), prediction_queue_);
}

int64_t DecisionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(QueuedLocked());
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

template <typename Request, typename Reply>
void DecisionService::Execute(const ModelSnapshot* snap,
                              Batch<Request, Reply>& batch) {
  using K = Kind<Request>;
  static obs::Histogram& exec_latency =
      obs::MicroLatencyHistogram("serve.batch_exec");
  static obs::Histogram& request_latency =
      obs::MicroLatencyHistogram("serve.request_latency");
  static obs::Counter& batches = obs::GetCounter("serve.batches");
  static obs::Counter& replies = obs::GetCounter("serve.replies");
  static obs::Counter& unavailable = obs::GetCounter("serve.unavailable");
  static obs::Counter& alloc_events = obs::GetCounter("serve.alloc_events");
  static obs::Gauge& model_version = obs::GetGauge("serve.model_version");
  const size_t n = batch.size();

  if (snap == nullptr || !K::Servable(*snap)) {
    // Nothing published yet, or no predictor in this version: the batch
    // never reaches a model.
    unavailable.Add(static_cast<int64_t>(n));
    const double now = NowSeconds();
    for (Pending<Request, Reply>& pending : batch) {
      CompleteWithStatus(pending.promise, ServeStatus::kUnavailable,
                         now - pending.submit_s);
    }
    return;
  }

  HEAD_SPAN("serve.batch", exec_latency);  // profiler root of the serve path
  std::vector<const typename K::Input*> inputs;
  inputs.reserve(n);
  for (const Pending<Request, Reply>& pending : batch) {
    inputs.push_back(K::Payload(pending.request));
  }
  std::vector<typename K::Output> outputs(n);
  const uint64_t allocs_before = nn::AllocEvents();
  K::Run(*snap, inputs, outputs.data());
  alloc_events.Add(static_cast<int64_t>(nn::AllocEvents() - allocs_before));

  BatchSizeHistogram().Observe(static_cast<double>(n));
  batches.Add();
  model_version.Set(static_cast<double>(snap->version()));
  const double now = NowSeconds();
  for (size_t i = 0; i < n; ++i) {
    Reply reply;
    reply.status = ServeStatus::kOk;
    K::Field(reply) = outputs[i];
    reply.model_version = snap->version();
    reply.latency_s = now - batch[i].submit_s;
    request_latency.Observe(reply.latency_s);
    batch[i].promise.set_value(std::move(reply));
  }
  replies.Add(static_cast<int64_t>(n));
}

template <typename Request, typename Reply>
void DecisionService::Dispatch(std::shared_ptr<const ModelSnapshot> snap,
                               std::shared_ptr<Batch<Request, Reply>> batch) {
  if (snap == nullptr) {  // no version to pin: completes without compute
    Execute(nullptr, *batch);
    return;
  }
  inflight_.Acquire();
  // The batch rides behind a shared_ptr: std::function requires copyable
  // closures and the Pendings hold move-only promises.
  parallel::ThreadPool::Global().SubmitWithToken(
      &snap->inflight(), [this, snap, batch] {
        struct Releaser {
          parallel::WaitToken* token;
          ~Releaser() { token->Release(); }
        } releaser{&inflight_};
        Execute(snap.get(), *batch);
      });
}

template <typename Request, typename Reply>
void DecisionService::FormAndDispatchLocked(
    std::unique_lock<std::mutex>& lock, Queue<Request, Reply>& queue) {
  static obs::Counter& deadline_missed =
      obs::GetCounter("serve.deadline_missed");
  static obs::Gauge& depth = obs::GetGauge("serve.queue_depth");

  // Window: wait until max_batch of this kind are queued or batch_window_us
  // has elapsed since the oldest one was admitted.
  const double cut_s = queue.front().submit_s + config_.batch_window_us * 1e-6;
  for (;;) {
    if (stop_ || paused_) return;
    if (static_cast<int>(queue.size()) >= config_.max_batch) break;
    const double remaining_s = cut_s - NowSeconds();
    if (remaining_s <= 0.0) break;
    cv_.wait_for(lock, std::chrono::duration<double>(remaining_s));
  }

  // Pop straight into the heap vector the executor will own: one move per
  // request, no re-wrap at dispatch time.
  const double now = NowSeconds();
  auto batch = std::make_shared<Batch<Request, Reply>>();
  batch->reserve(static_cast<size_t>(config_.max_batch));
  while (!queue.empty() &&
         static_cast<int>(batch->size()) < config_.max_batch) {
    Pending<Request, Reply>& pending = queue.front();
    if (pending.deadline_s > 0.0 && now > pending.deadline_s) {
      deadline_missed.Add();
      CompleteWithStatus(pending.promise, ServeStatus::kDeadlineExceeded,
                         now - pending.submit_s);
    } else {
      batch->push_back(std::move(pending));
    }
    queue.pop_front();
  }
  depth.Set(static_cast<double>(QueuedLocked()));
  if (batch->empty()) return;  // every candidate had expired
  lock.unlock();
  Dispatch(registry_->Current(), std::move(batch));
  lock.lock();
}

void DecisionService::BatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock,
             [this] { return stop_ || (!paused_ && QueuedLocked() > 0); });
    if (stop_) break;
    // Serve the kind whose oldest request has waited longest.
    if (prediction_queue_.empty() ||
        (!decision_queue_.empty() && decision_queue_.front().submit_s <=
                                         prediction_queue_.front().submit_s)) {
      FormAndDispatchLocked(lock, decision_queue_);
    } else {
      FormAndDispatchLocked(lock, prediction_queue_);
    }
  }
  // Stopped: complete everything still queued as kShutdown.
  const double now = NowSeconds();
  auto drain = [now](auto& queue) {
    for (; !queue.empty(); queue.pop_front()) {
      CompleteWithStatus(queue.front().promise, ServeStatus::kShutdown,
                         now - queue.front().submit_s);
    }
  };
  drain(decision_queue_);
  drain(prediction_queue_);
}

}  // namespace head::serve
