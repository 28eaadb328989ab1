// Serving-layer tests: RCU snapshot publication/retirement, batched
// decision/prediction parity with the underlying nets, the admission-control
// statuses (rejection, deadline, shutdown), and the hot-swap hammer — four
// client threads submitting while a publisher swaps versions, with every
// reply required to be bitwise consistent with exactly one published
// version. The hammer is the core TSan/ASan target of tools/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "perception/lst_gat.h"
#include "rl/nets.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace head {
namespace {

constexpr int kHidden = 24;
constexpr double kAMax = 3.0;
constexpr int kHistoryDepth = 3;

perception::LstGatConfig SmallGatConfig() {
  perception::LstGatConfig config;
  config.d_phi1 = 8;
  config.d_phi3 = 8;
  config.d_lstm = 8;
  return config;
}

serve::ModelFactories BpFactories() {
  serve::ModelFactories factories;
  factories.make_x = [](Rng& rng) {
    return std::make_unique<rl::BpXNet>(kHidden, kAMax, rng);
  };
  factories.make_q = [](Rng& rng) {
    return std::make_unique<rl::BpQNet>(kHidden, rng);
  };
  factories.make_predictor = [](Rng& rng) {
    return std::make_unique<perception::LstGat>(SmallGatConfig(), rng);
  };
  return factories;
}

rl::AugmentedState RandomState(Rng& rng) {
  rl::AugmentedState s;
  s.h = nn::Tensor::Uniform(rl::kStateHRows, rl::kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(rl::kStateFRows, rl::kStateCols, -1.0, 1.0, rng);
  return s;
}

perception::StGraph RandomGraph(Rng& rng) {
  perception::StGraph graph;
  graph.steps.resize(kHistoryDepth);
  for (perception::StepNodes& step : graph.steps) {
    for (auto& target : step.feat) {
      for (auto& node : target) {
        for (double& v : node) v = rng.Uniform(-1.0, 1.0);
      }
    }
  }
  for (auto& rel : graph.target_rel_current) {
    for (double& v : rel) v = rng.Uniform(-5.0, 5.0);
  }
  return graph;
}

TEST(SnapshotRegistryTest, PublishRetiresBeyondKeep) {
  Rng rng(7);
  serve::ModelSnapshotRegistry registry(BpFactories(), /*keep=*/2);
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.current_version(), 0u);

  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  for (int i = 0; i < 4; ++i) registry.Publish(x, q);

  EXPECT_EQ(registry.current_version(), 4u);
  const std::vector<uint64_t> live = registry.live_versions();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], 3u);
  EXPECT_EQ(live[1], 4u);
}

TEST(SnapshotTest, DecideBatchMatchesBatchOfOne) {
  Rng rng(11);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  const std::shared_ptr<const serve::ModelSnapshot> snap =
      registry.Publish(x, q);

  // Batches run at their exact size: every request must get bitwise the
  // reply of a batch of one, whatever the batch size.
  for (const int n : {1, 3, 5, 32}) {
    SCOPED_TRACE(::testing::Message() << "batch " << n);
    std::vector<rl::AugmentedState> states;
    for (int i = 0; i < n; ++i) states.push_back(RandomState(rng));
    std::vector<const rl::AugmentedState*> ptrs;
    for (const rl::AugmentedState& s : states) ptrs.push_back(&s);

    std::vector<serve::DecisionOutput> batched(states.size());
    snap->DecideBatch(ptrs, batched.data());
    for (size_t i = 0; i < states.size(); ++i) {
      serve::DecisionOutput single;
      snap->DecideBatch({&states[i]}, &single);
      EXPECT_EQ(batched[i].behavior, single.behavior) << "state " << i;
      EXPECT_EQ(batched[i].accel, single.accel) << "state " << i;
      for (int c = 0; c < rl::kNumBehaviors; ++c) {
        EXPECT_EQ(batched[i].q[c], single.q[c]) << "state " << i;
        EXPECT_EQ(batched[i].params[c], single.params[c]) << "state " << i;
      }
    }
  }
}

TEST(SnapshotTest, DecideBatchMatchesSourceNets) {
  Rng rng(13);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  const std::shared_ptr<const serve::ModelSnapshot> snap =
      registry.Publish(x, q);

  const rl::AugmentedState state = RandomState(rng);
  serve::DecisionOutput out;
  snap->DecideBatch({&state}, &out);

  nn::ResetTape();
  const nn::NoGradGuard no_grad;
  const nn::Var xv = x.ForwardBatch({&state});
  const nn::Var qv = q.ForwardBatch({&state}, xv);
  for (int c = 0; c < rl::kNumBehaviors; ++c) {
    EXPECT_DOUBLE_EQ(out.params[c], xv.value().At(0, c));
    EXPECT_DOUBLE_EQ(out.q[c], qv.value().At(0, c));
  }
  EXPECT_DOUBLE_EQ(out.accel, xv.value().At(0, out.behavior));
}

TEST(SnapshotTest, PredictBatchMatchesPredictorPredict) {
  Rng rng(17);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  Rng model_rng(18);
  const perception::LstGat predictor(SmallGatConfig(), model_rng);
  const std::shared_ptr<const serve::ModelSnapshot> snap =
      registry.Publish(x, q, &predictor);
  ASSERT_TRUE(snap->has_predictor());

  // Each request of an exact-size batch must get bitwise the batch-of-one
  // output of the source predictor.
  for (const int n : {1, 3, 5, 32}) {
    SCOPED_TRACE(::testing::Message() << "batch " << n);
    std::vector<perception::StGraph> graphs;
    for (int i = 0; i < n; ++i) graphs.push_back(RandomGraph(rng));
    std::vector<const perception::StGraph*> ptrs;
    for (const perception::StGraph& g : graphs) ptrs.push_back(&g);

    std::vector<perception::Prediction> batched(graphs.size());
    snap->PredictBatch(ptrs, batched.data());
    for (size_t i = 0; i < graphs.size(); ++i) {
      const perception::Prediction expected = predictor.Predict(graphs[i]);
      for (int a = 0; a < perception::kNumAreas; ++a) {
        EXPECT_EQ(batched[i][a].d_lat_m, expected[a].d_lat_m) << i;
        EXPECT_EQ(batched[i][a].d_lon_m, expected[a].d_lon_m) << i;
        EXPECT_EQ(batched[i][a].v_rel_mps, expected[a].v_rel_mps) << i;
      }
    }
  }
}

TEST(DecisionServiceTest, ServesDecisionAndPredictionRequests) {
  Rng rng(19);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  Rng model_rng(20);
  const perception::LstGat predictor(SmallGatConfig(), model_rng);
  const std::shared_ptr<const serve::ModelSnapshot> snap =
      registry.Publish(x, q, &predictor);

  serve::ServeConfig config;
  config.max_batch = 4;
  config.batch_window_us = 100;
  serve::DecisionService service(&registry, config);

  const rl::AugmentedState state = RandomState(rng);
  const perception::StGraph graph = RandomGraph(rng);
  std::future<serve::DecisionReply> dfut =
      service.SubmitDecision({state, /*deadline_us=*/0});
  std::future<serve::PredictionReply> pfut =
      service.SubmitPrediction({graph, /*deadline_us=*/0});

  const serve::DecisionReply dreply = dfut.get();
  ASSERT_EQ(dreply.status, serve::ServeStatus::kOk);
  EXPECT_EQ(dreply.model_version, snap->version());
  EXPECT_GE(dreply.latency_s, 0.0);
  serve::DecisionOutput expected;
  snap->DecideBatch({&state}, &expected);
  EXPECT_EQ(dreply.output.behavior, expected.behavior);
  EXPECT_DOUBLE_EQ(dreply.output.accel, expected.accel);

  const serve::PredictionReply preply = pfut.get();
  ASSERT_EQ(preply.status, serve::ServeStatus::kOk);
  EXPECT_EQ(preply.model_version, snap->version());
  perception::Prediction expected_pred;
  snap->PredictBatch({&graph}, &expected_pred);
  for (int a = 0; a < perception::kNumAreas; ++a) {
    EXPECT_DOUBLE_EQ(preply.prediction[a].d_lat_m, expected_pred[a].d_lat_m);
  }
}

TEST(DecisionServiceTest, DeadlineExpiredWhileQueuedReturnsDistinctStatus) {
  Rng rng(23);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  registry.Publish(x, q);

  serve::ServeConfig config;
  config.max_batch = 4;                // never filled by one request…
  config.batch_window_us = 20000;      // …so the 20 ms window must lapse,
  serve::DecisionService service(&registry, config);

  const int64_t missed_before =
      obs::GetCounter("serve.deadline_missed").value();
  const rl::AugmentedState state = RandomState(rng);
  std::future<serve::DecisionReply> fut =
      service.SubmitDecision({state, /*deadline_us=*/1});  // …expiring this
  const serve::DecisionReply reply = fut.get();
  EXPECT_EQ(reply.status, serve::ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(reply.model_version, 0u);
  EXPECT_EQ(obs::GetCounter("serve.deadline_missed").value(),
            missed_before + 1);
}

TEST(DecisionServiceTest, QueueFullRejectsWithBackpressureStatus) {
  Rng rng(29);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  registry.Publish(x, q);

  serve::ServeConfig config;
  config.max_batch = 8;
  config.batch_window_us = 100;
  config.queue_capacity = 2;
  serve::DecisionService service(&registry, config);
  service.SetPausedForTest(true);  // nothing drains while we fill the queue

  const int64_t rejected_before = obs::GetCounter("serve.rejected").value();
  const rl::AugmentedState state = RandomState(rng);
  std::future<serve::DecisionReply> f1 = service.SubmitDecision({state, 0});
  std::future<serve::DecisionReply> f2 = service.SubmitDecision({state, 0});
  EXPECT_EQ(service.queue_depth(), 2);
  std::future<serve::DecisionReply> f3 = service.SubmitDecision({state, 0});
  const serve::DecisionReply rejected = f3.get();  // ready immediately
  EXPECT_EQ(rejected.status, serve::ServeStatus::kRejected);
  EXPECT_EQ(obs::GetCounter("serve.rejected").value(), rejected_before + 1);

  service.SetPausedForTest(false);
  EXPECT_EQ(f1.get().status, serve::ServeStatus::kOk);
  EXPECT_EQ(f2.get().status, serve::ServeStatus::kOk);
}

TEST(DecisionServiceTest, ShutdownCompletesQueuedRequests) {
  Rng rng(31);
  serve::ModelSnapshotRegistry registry(BpFactories());
  const rl::BpXNet x(kHidden, kAMax, rng);
  const rl::BpQNet q(kHidden, rng);
  registry.Publish(x, q);

  serve::ServeConfig config;
  serve::DecisionService service(&registry, config);
  service.SetPausedForTest(true);
  const rl::AugmentedState state = RandomState(rng);
  std::future<serve::DecisionReply> queued =
      service.SubmitDecision({state, 0});
  service.Shutdown();
  EXPECT_EQ(queued.get().status, serve::ServeStatus::kShutdown);
  // Post-shutdown submits complete immediately with the same status.
  EXPECT_EQ(service.SubmitDecision({state, 0}).get().status,
            serve::ServeStatus::kShutdown);
}

// The hot-swap hammer: four client threads submit decision requests over a
// fixed state set while a publisher thread keeps swapping fresh weights in
// (retiring old versions, keep=2). Every kOk reply must be *bitwise*
// reproducible from the snapshot whose version it reports — no torn reads,
// no mixed-version batches, no use-after-retire. Runs under TSan and ASan
// in tools/check.sh.
TEST(ServeHotSwapTest, RepliesBitwiseConsistentWithOnePublishedVersion) {
  Rng rng(37);
  serve::ModelSnapshotRegistry registry(BpFactories(), /*keep=*/2);
  {
    const rl::BpXNet x0(kHidden, kAMax, rng);
    const rl::BpQNet q0(kHidden, rng);
    registry.Publish(x0, q0);
  }

  constexpr int kStates = 8;
  std::vector<rl::AugmentedState> states;
  for (int i = 0; i < kStates; ++i) states.push_back(RandomState(rng));

  serve::ServeConfig config;
  config.max_batch = 8;
  config.batch_window_us = 100;
  serve::DecisionService service(&registry, config);

  // Clients record (state index, reply); the publisher holds every snapshot
  // it published so the main thread can recompute references afterwards —
  // including against versions the registry has since retired.
  struct Observed {
    int state_idx;
    serve::DecisionReply reply;
  };
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 60;
  std::vector<std::vector<Observed>> observed(kClients);
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> snapshots;

  std::atomic<bool> clients_done{false};
  std::thread publisher([&] {
    Rng pub_rng(41);
    while (!clients_done.load(std::memory_order_acquire)) {
      const rl::BpXNet x(kHidden, kAMax, pub_rng);
      const rl::BpQNet q(kHidden, pub_rng);
      snapshots.push_back(registry.Publish(x, q));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const int idx = (t * 31 + i * 7) % kStates;
        std::future<serve::DecisionReply> fut =
            service.SubmitDecision({states[idx], 0});
        const serve::DecisionReply reply = fut.get();
        ASSERT_EQ(reply.status, serve::ServeStatus::kOk);
        observed[t].push_back({idx, reply});
      }
    });
  }
  for (std::thread& c : clients) c.join();
  clients_done.store(true, std::memory_order_release);
  publisher.join();
  service.Shutdown();

  // Resolve each reply's claimed version from the publisher's log. The
  // pre-hammer version 1 isn't in the log — replies against it are skipped
  // (the EXPECT_GT(checked, 0) below still demands swapped-version replies).
  auto resolve = [&](uint64_t version)
      -> std::shared_ptr<const serve::ModelSnapshot> {
    for (const auto& snap : snapshots) {
      if (snap->version() == version) return snap;
    }
    return nullptr;
  };

  int checked = 0;
  for (const std::vector<Observed>& per_client : observed) {
    ASSERT_EQ(per_client.size(), static_cast<size_t>(kRequestsPerClient));
    for (const Observed& obs : per_client) {
      const std::shared_ptr<const serve::ModelSnapshot> snap =
          resolve(obs.reply.model_version);
      if (snap == nullptr) continue;  // the pre-hammer version 1
      serve::DecisionOutput expected;
      snap->DecideBatch({&states[obs.state_idx]}, &expected);
      ASSERT_EQ(obs.reply.output.behavior, expected.behavior);
      ASSERT_EQ(obs.reply.output.accel, expected.accel);
      for (int c = 0; c < rl::kNumBehaviors; ++c) {
        ASSERT_EQ(obs.reply.output.q[c], expected.q[c]);
        ASSERT_EQ(obs.reply.output.params[c], expected.params[c]);
      }
      ++checked;
    }
  }
  // The hammer must actually have exercised swapped versions.
  EXPECT_GT(checked, 0);
  EXPECT_GT(snapshots.size(), 1u);
}

TEST(ObsMicroLatencyTest, CachedMicroBoundsAreFineGrainedAndMemoized) {
  const std::vector<double>& bounds = obs::CachedMicroLatencyBounds();
  ASSERT_EQ(bounds.size(), 42u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 1.5);
  }
  EXPECT_EQ(&bounds, &obs::CachedMicroLatencyBounds());  // memoized instance
  obs::Histogram& hist = obs::MicroLatencyHistogram("serve_test.micro");
  EXPECT_EQ(hist.bounds(), bounds);
}

}  // namespace
}  // namespace head
