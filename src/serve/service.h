// Cross-client micro-batching decision service (the transport seam is the
// SubmitDecision/SubmitPrediction → std::future API; a network frontend
// would sit in front of it and translate).
//
// One request lane, two kinds: decisions (BP-DQN) and predictions (LST-GAT)
// each have their own queue, but every stage is one template over the kind —
// submit, batch formation, dispatch, execution and the shutdown drain. A
// kind differs only in its payload, its snapshot call (DecideBatch /
// PredictBatch) and its reply field (output / prediction).
//
// Admission: a bounded queue with backpressure — submits beyond
// `queue_capacity` (counted across both kinds) are rejected immediately
// (kRejected) rather than queued into unbounded latency. A single batcher
// thread serves the kind whose oldest request has waited longest: it collects
// requests of that kind until `max_batch` are waiting or `batch_window_us`
// has elapsed since the oldest one was admitted, then dispatches one batched
// no-grad forward onto the shared ThreadPool and scatters the replies into
// the per-request futures. Requests whose deadline expired while queued
// complete as kDeadlineExceeded at batch-formation time without consuming
// model compute. A batch with no model to run it — nothing published yet, or
// a prediction against a snapshot published without a predictor — completes
// as kUnavailable without touching the model.
//
// Model hot-swap: every batch pins the registry's Current() snapshot via
// shared_ptr and dispatches under that snapshot's WaitToken, so a publisher
// swapping weights mid-flight never tears a batch — each reply is computed
// entirely against exactly one published version (reported back as
// `model_version`).
//
// Observability (src/obs): serve.request_latency / serve.batch_exec µs-scale
// histograms (p50/p95/p99), serve.batch_size histogram, serve.queue_depth
// gauge, serve.requests / replies / batches / rejected / deadline_missed /
// unavailable / alloc_events counters, and one HEAD_SPAN("serve.batch",
// batch_exec) over the batch hot path — profiler root, trace span and the
// serve.batch_exec histogram from one clock pair.
#ifndef HEAD_SERVE_SERVICE_H_
#define HEAD_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/snapshot.h"

namespace head::serve {

enum class ServeStatus {
  kOk = 0,
  kRejected,          ///< admission queue full at submit time
  kDeadlineExceeded,  ///< deadline expired while queued
  kShutdown,          ///< service stopped before the request was served
  kUnavailable,       ///< no published model (or predictor) for the kind
};

const char* ServeStatusName(ServeStatus status);

struct DecisionRequest {
  rl::AugmentedState state;
  /// Latency budget in µs from submit; 0 uses ServeConfig::default_deadline_us
  /// (0 there too ⇒ no deadline).
  int64_t deadline_us = 0;
};

struct DecisionReply {
  ServeStatus status = ServeStatus::kOk;
  DecisionOutput output;
  uint64_t model_version = 0;  ///< snapshot that computed the reply (kOk only)
  double latency_s = 0.0;      ///< submit → reply, steady clock
};

struct PredictionRequest {
  perception::StGraph graph;
  int64_t deadline_us = 0;
};

struct PredictionReply {
  ServeStatus status = ServeStatus::kOk;
  perception::Prediction prediction{};
  uint64_t model_version = 0;
  double latency_s = 0.0;
};

struct ServeConfig {
  int max_batch = 32;            ///< dispatch at this many queued requests
  int64_t batch_window_us = 200; ///< …or this long after the oldest one
  int queue_capacity = 1024;     ///< admission bound across both kinds
  int64_t default_deadline_us = 0;  ///< 0 = no deadline
};

/// Fixed-capacity FIFO preallocated at construction. The admission bound is
/// part of the service contract (ServeConfig::queue_capacity), so the queue
/// can own all of its storage up front and never touch the allocator on the
/// submit path — std::deque cycles one 512-byte block allocation per couple
/// of queued requests at steady state. Callers must check size() against
/// capacity before push_back (Submit rejects first).
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity) : slots_(capacity) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  T& front() { return slots_[head_]; }

  void push_back(T&& value) {
    size_t idx = head_ + size_;
    if (idx >= slots_.size()) idx -= slots_.size();
    slots_[idx] = std::move(value);
    ++size_;
  }

  void pop_front() {
    ++head_;
    if (head_ == slots_.size()) head_ = 0;
    --size_;
  }

 private:
  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

class DecisionService {
 public:
  /// `registry` must outlive the service. Requests that reach execution
  /// before the first Publish complete as kUnavailable. Batches run on
  /// parallel::ThreadPool::Global().
  DecisionService(ModelSnapshotRegistry* registry, const ServeConfig& config);
  ~DecisionService();  ///< implies Shutdown()

  DecisionService(const DecisionService&) = delete;
  DecisionService& operator=(const DecisionService&) = delete;

  /// Admission: the future completes with kOk + the model outputs, or with
  /// kRejected (immediately, queue full), kDeadlineExceeded, kShutdown, or
  /// kUnavailable.
  std::future<DecisionReply> SubmitDecision(DecisionRequest request);
  std::future<PredictionReply> SubmitPrediction(PredictionRequest request);

  /// Stops admission, completes queued requests as kShutdown, and drains
  /// in-flight batches. Idempotent.
  void Shutdown();

  int64_t queue_depth() const;
  const ServeConfig& config() const { return config_; }

  /// Test seam: while paused the batcher dispatches nothing, so tests can
  /// deterministically fill the admission queue (rejection path) or let
  /// per-request deadlines lapse.
  void SetPausedForTest(bool paused);

 private:
  template <typename Request, typename Reply>
  struct Pending {
    Request request;
    std::promise<Reply> promise;
    double submit_s = 0.0;
    double deadline_s = 0.0;  ///< absolute, 0 = none
  };
  template <typename Request, typename Reply>
  using Queue = BoundedRing<Pending<Request, Reply>>;
  template <typename Request, typename Reply>
  using Batch = std::vector<Pending<Request, Reply>>;

  // The stages of the one request lane, each a template over the kind (all
  // instantiated in service.cc).
  template <typename Request, typename Reply>
  std::future<Reply> Submit(Request request, Queue<Request, Reply>& queue);
  void BatcherLoop();
  /// Collects one batch from `queue` (non-empty), honoring the
  /// window/max_batch cut and expiring lapsed deadlines, and dispatches it.
  template <typename Request, typename Reply>
  void FormAndDispatchLocked(std::unique_lock<std::mutex>& lock,
                             Queue<Request, Reply>& queue);
  template <typename Request, typename Reply>
  void Dispatch(std::shared_ptr<const ModelSnapshot> snap,
                std::shared_ptr<Batch<Request, Reply>> batch);
  /// `snap` may be null (nothing published yet).
  template <typename Request, typename Reply>
  void Execute(const ModelSnapshot* snap, Batch<Request, Reply>& batch);
  size_t QueuedLocked() const {
    return decision_queue_.size() + prediction_queue_.size();
  }

  ModelSnapshotRegistry* const registry_;
  const ServeConfig config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Queue<DecisionRequest, DecisionReply> decision_queue_;
  Queue<PredictionRequest, PredictionReply> prediction_queue_;
  bool stop_ = false;
  bool paused_ = false;

  /// Drains *all* in-flight batches at Shutdown (per-snapshot tokens drain
  /// per-version; this one covers the service lifetime).
  parallel::WaitToken inflight_;

  std::thread batcher_;
};

}  // namespace head::serve

#endif  // HEAD_SERVE_SERVICE_H_
