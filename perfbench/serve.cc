// serve: open-loop Poisson arrivals into DecisionService, a fixed mix of
// decide requests (AugmentedState) and predict requests (StGraph, z = 5)
// built at set-up from seeded dense-traffic scenes. One generator thread
// sends on schedule and never waits for replies; it also publishes a new
// model snapshot about once per second, so every publish forces new plans
// to be captured while requests keep arriving. The run steps through three
// fixed absolute rates (light, mid, overload) and times every request from
// its due time against the 10 ms limit. Below the overload rate requests
// carry no service deadline, so every one is served and a late reply is a
// miss of the limit, not a failed request; at the overload rate they carry
// the limit as their deadline and the service sheds what it cannot serve.
#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "stats.h"

namespace perfbench {

namespace hd = head;
namespace serve = head::serve;

namespace {

// The ladder, sized once on a 4-core host (2 pool threads) and frozen, so
// two commits are always offered the same load. Total request rates, of
// which kPredictShare are predict requests. At the light and mid rates
// the service met the 10 ms p99 limit; at the overload rate it did not.
constexpr double kLightRps = 2000.0;
constexpr double kMidRps = 4000.0;
constexpr double kOverloadRps = 12000.0;
constexpr double kPredictShare = 0.1;
constexpr double kLimitS = 0.010;  // Δt / 10, both classes
constexpr double kTailQ = 0.99;
constexpr double kPublishEveryS = 1.0;
constexpr int kInputs = 256;       // distinct scenes per class
constexpr int kCheckEvery = 64;    // one reply in 64 is re-computed directly
constexpr double kCheckTolerance = 1e-9;

struct Rig {
  HeadModels a, b;  // two weight sets the publisher alternates between
  std::unique_ptr<serve::ModelSnapshotRegistry> registry;
  /// One snapshot per weight set, from a registry of their own, that
  /// sampled replies are re-computed on; kept apart from the served
  /// versions so the check holds no served plans alive. Publishes alternate
  /// a, b, a, ... so version v carries set (v - first_version) % 2.
  std::unique_ptr<serve::ModelSnapshotRegistry> reference_registry;
  std::array<std::shared_ptr<const serve::ModelSnapshot>, 2> reference;
  uint64_t first_version = 0;
  uint64_t last_version = 0;
  std::unique_ptr<serve::DecisionService> service;
  std::vector<hd::rl::AugmentedState> states;
  std::vector<hd::perception::StGraph> graphs;
  int publishes = 0;
};

serve::ModelFactories Factories(const hd::core::HeadConfig& config) {
  serve::ModelFactories factories;
  factories.make_x = [config](hd::Rng& rng) {
    return std::make_unique<hd::rl::BpXNet>(config.pdqn.hidden,
                                            config.pdqn.a_max, rng);
  };
  factories.make_q = [config](hd::Rng& rng) {
    return std::make_unique<hd::rl::BpQNet>(config.pdqn.hidden, rng);
  };
  factories.make_predictor = [config](hd::Rng& rng) {
    return std::make_unique<hd::perception::LstGat>(config.lst_gat, rng);
  };
  return factories;
}

void Publish(Rig& rig) {
  const HeadModels& m = (rig.publishes++ % 2 == 0) ? rig.a : rig.b;
  auto snap = rig.registry->Publish(m.agent->x_net(), m.agent->q_net(),
                                    m.predictor.get());
  if (rig.first_version == 0) rig.first_version = snap->version();
  rig.last_version = snap->version();
}

/// The reference snapshot with the weights of `version`; null when no such
/// version was published.
const serve::ModelSnapshot* ReferenceFor(const Rig& rig, uint64_t version) {
  if (version < rig.first_version || version > rig.last_version) return nullptr;
  return rig.reference[(version - rig.first_version) % 2].get();
}

serve::ServeConfig MakeServeConfig() {
  serve::ServeConfig config;
  config.max_batch = 32;
  config.batch_window_us = 200;
  config.queue_capacity = 1024;
  config.default_deadline_us = 0;  // set per request, see RunRung
  return config;
}

/// Models, registry, service and the seeded request inputs. Every plan
/// bucket of both classes is warmed on the first snapshot.
void SetUp(Rig& rig, uint64_t seed) {
  rig.service.reset();  // the service reads the registry until it stops
  rig = Rig();
  const hd::sim::SimConfig sim = DriveScenario();
  rig.a = MakeHeadModels(sim, seed);
  rig.b = MakeHeadModels(sim, seed + 1);
  rig.registry = std::make_unique<serve::ModelSnapshotRegistry>(
      Factories(rig.a.config), /*keep=*/2, seed);
  Publish(rig);
  rig.reference_registry = std::make_unique<serve::ModelSnapshotRegistry>(
      Factories(rig.a.config), /*keep=*/2, seed);
  for (const HeadModels* m : {&rig.a, &rig.b}) {
    rig.reference[m == &rig.a ? 0 : 1] = rig.reference_registry->Publish(
        m->agent->x_net(), m->agent->q_net(), m->predictor.get());
  }

  hd::core::HeadAgent perceiver(rig.a.config, rig.a.predictor, rig.a.agent);
  SceneStream scenes(sim, seed);
  perceiver.OnEpisodeStart();
  for (int i = 0; i < kInputs; ++i) {
    rig.states.push_back(perceiver.Perceive(scenes.view()));
    rig.graphs.push_back(perceiver.last_graph());
    if (scenes.Advance(scenes.BaselineManeuver())) perceiver.OnEpisodeStart();
  }

  rig.service =
      std::make_unique<serve::DecisionService>(rig.registry.get(),
                                               MakeServeConfig());
  for (int bucket = 1; bucket <= 32; bucket *= 2) {
    std::vector<std::future<serve::DecisionReply>> decisions;
    std::vector<std::future<serve::PredictionReply>> predictions;
    for (int i = 0; i < bucket; ++i) {
      decisions.push_back(rig.service->SubmitDecision({rig.states[i], 0}));
      predictions.push_back(rig.service->SubmitPrediction({rig.graphs[i], 0}));
    }
    for (auto& f : decisions) f.get();
    for (auto& f : predictions) f.get();
  }
}

/// What the generator recorded about one request.
struct Sent {
  double due = 0.0;
  double submit = 0.0;
  int input = 0;
  bool predict = false;
  size_t future = 0;
};

struct RungRun {
  Rung rung;
  std::vector<double> lateness_s;
  std::vector<double> submit_call_s;
  /// Served replies only, from the due time (the rung's latencies above
  /// also hold the misses, as +inf).
  std::vector<double> served_decide_s, served_predict_s;
  /// Served replies only, as the service reports them (submit -> reply).
  std::vector<double> service_decide_s, service_predict_s;
  std::vector<double> publish_s;
  int64_t ok = 0, rejected = 0, expired = 0, other = 0;
  int64_t within_limit = 0;
  double duration_s = 0.0;
  int64_t queue_depth_max = 0;
};

struct Checks {
  int64_t checked = 0;
  int64_t mismatches = 0;
  int64_t unknown_versions = 0;
};

bool Near(double a, double b) {
  return std::fabs(a - b) <= kCheckTolerance * (1.0 + std::fabs(b));
}

/// Sends `schedule` open-loop, each request with a service deadline of
/// `deadline_us` (0: none). With `traced` set, also times every submit call
/// and samples the admission queue depth.
RungRun RunRung(Rig& rig, const std::vector<Arrival>& schedule, double rate,
                double duration_s, int64_t deadline_us, bool traced,
                double* next_publish, Checks* checks) {
  RungRun run;
  run.rung.rate_per_s = rate;
  run.duration_s = duration_s;
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  std::vector<std::future<serve::DecisionReply>> decisions;
  std::vector<std::future<serve::PredictionReply>> predictions;
  decisions.reserve(schedule.size());
  predictions.reserve(schedule.size());

  const double t0 = NowS() + 0.001;
  if (*next_publish <= 0.0) *next_publish = t0 + kPublishEveryS;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double due = t0 + schedule[i].due_s;
    while (NowS() < due) std::this_thread::yield();
    if (NowS() >= *next_publish) {
      const double p0 = NowS();
      Publish(rig);
      run.publish_s.push_back(NowS() - p0);
      *next_publish += kPublishEveryS;
    }
    Sent s;
    s.due = due;
    s.input = static_cast<int>(i % kInputs);
    s.predict = schedule[i].predict;
    s.submit = NowS();
    if (s.predict) {
      s.future = predictions.size();
      predictions.push_back(
          rig.service->SubmitPrediction({rig.graphs[s.input], deadline_us}));
    } else {
      s.future = decisions.size();
      decisions.push_back(
          rig.service->SubmitDecision({rig.states[s.input], deadline_us}));
    }
    if (traced) {
      run.submit_call_s.push_back(NowS() - s.submit);
      run.queue_depth_max =
          std::max(run.queue_depth_max, rig.service->queue_depth());
    }
    run.lateness_s.push_back(s.submit - due);
    sent.push_back(s);
  }
  const double last_due = t0 + (schedule.empty() ? 0.0 : schedule.back().due_s);

  double last_reply = last_due;
  for (size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    serve::ServeStatus status;
    double service_s = 0.0;
    uint64_t version = 0;
    bool mismatch = false;
    const bool check = i % kCheckEvery == 0;
    if (s.predict) {
      const serve::PredictionReply reply = predictions[s.future].get();
      status = reply.status;
      service_s = reply.latency_s;
      version = reply.model_version;
      const serve::ModelSnapshot* ref = ReferenceFor(rig, version);
      if (status == serve::ServeStatus::kOk && check && ref != nullptr) {
        hd::perception::Prediction direct{};
        ref->PredictBatch({&rig.graphs[s.input]}, &direct);
        for (size_t k = 0; k < direct.size(); ++k) {
          mismatch |= !Near(reply.prediction[k].d_lat_m, direct[k].d_lat_m) ||
                      !Near(reply.prediction[k].d_lon_m, direct[k].d_lon_m) ||
                      !Near(reply.prediction[k].v_rel_mps, direct[k].v_rel_mps);
        }
      }
    } else {
      const serve::DecisionReply reply = decisions[s.future].get();
      status = reply.status;
      service_s = reply.latency_s;
      version = reply.model_version;
      const serve::ModelSnapshot* ref = ReferenceFor(rig, version);
      if (status == serve::ServeStatus::kOk && check && ref != nullptr) {
        serve::DecisionOutput direct;
        ref->DecideBatch({&rig.states[s.input]}, &direct);
        mismatch = direct.behavior != reply.output.behavior ||
                   !Near(direct.accel, reply.output.accel);
        for (size_t k = 0; k < direct.q.size(); ++k) {
          mismatch |= !Near(direct.q[k], reply.output.q[k]);
        }
      }
    }
    std::vector<double>& latencies =
        s.predict ? run.rung.predict_s : run.rung.decide_s;
    if (status == serve::ServeStatus::kOk) {
      ++run.ok;
      if (ReferenceFor(rig, version) == nullptr) ++checks->unknown_versions;
      if (check) {
        ++checks->checked;
        if (mismatch) ++checks->mismatches;
      }
      const double from_due = (s.submit - s.due) + service_s;
      latencies.push_back(from_due);
      (s.predict ? run.served_predict_s : run.served_decide_s)
          .push_back(from_due);
      if (from_due <= kLimitS) ++run.within_limit;
      (s.predict ? run.service_predict_s : run.service_decide_s)
          .push_back(service_s);
      last_reply = std::max(last_reply, s.submit + service_s);
    } else {
      latencies.push_back(std::numeric_limits<double>::infinity());
      if (status == serve::ServeStatus::kRejected) {
        ++run.rejected;
      } else if (status == serve::ServeStatus::kDeadlineExceeded) {
        ++run.expired;
        last_reply = std::max(last_reply, s.submit + service_s);
      } else {
        ++run.other;
      }
    }
  }
  run.rung.drain_s = last_reply - last_due;
  return run;
}

double Us(double seconds) { return seconds * 1e6; }

/// Median per-row time of direct DecideBatch / PredictBatch calls of
/// `rows` rows on the current snapshot, from the calling thread.
double DirectBatchUsPerRow(Rig& rig, bool predict, int rows) {
  const std::shared_ptr<const serve::ModelSnapshot> snap =
      rig.registry->Current();
  std::vector<const hd::rl::AugmentedState*> states;
  std::vector<const hd::perception::StGraph*> graphs;
  for (int i = 0; i < rows; ++i) {
    states.push_back(&rig.states[i % kInputs]);
    graphs.push_back(&rig.graphs[i % kInputs]);
  }
  std::vector<serve::DecisionOutput> decisions(rows);
  std::vector<hd::perception::Prediction> predictions(rows);
  std::vector<double> per_row;
  const int reps = predict ? std::max(8, 256 / rows) : std::max(32, 4096 / rows);
  for (int r = 0; r < reps + 2; ++r) {
    const double t0 = NowS();
    if (predict) {
      snap->PredictBatch(graphs, predictions.data());
    } else {
      snap->DecideBatch(states, decisions.data());
    }
    if (r >= 2) per_row.push_back((NowS() - t0) / rows);  // 2 warm calls
  }
  return Us(Median(per_row));
}

/// Round trip of one decide request at a time minus the latency the
/// service reports: what waking the waiting client costs.
double WakeUs(Rig& rig, int requests) {
  std::vector<double> wake;
  for (int i = 0; i < requests; ++i) {
    const double t0 = NowS();
    const serve::DecisionReply reply =
        rig.service->SubmitDecision({rig.states[i % kInputs], 0}).get();
    const double round_trip = NowS() - t0;
    if (reply.status == serve::ServeStatus::kOk) {
      wake.push_back(round_trip - reply.latency_s);
    }
  }
  return Us(Median(wake));
}

using RungFn = std::function<RungRun(double rate, double seconds,
                                     uint64_t stream, bool traced,
                                     double share)>;

int64_t Requests(const RungRun& run) {
  return run.ok + run.rejected + run.expired + run.other;
}

/// The traced part of the run: mixed traffic at the mid rate with spans on
/// and every submit timed, the overload rate for what gets shed, one rung
/// per class alone for per-class batch sizes and allocations, then the
/// wake cost and direct batch calls.
void TraceServe(Rig& rig, double seconds, double untraced_decide_p50_s,
                const RungFn& rung, Result* result) {
  hd::obs::Counter& allocs = hd::obs::GetCounter("serve.alloc_events");
  hd::obs::Histogram& batch_size = hd::obs::GetHistogram("serve.batch_size");
  hd::obs::Histogram& task_run = hd::obs::LatencyHistogram("parallel.task.run");
  const int threads = hd::parallel::ThreadPool::Global().thread_count();

  hd::obs::DrainTraceEvents();
  hd::obs::SetTracingEnabled(true);
  const int64_t allocs_before = allocs.value();
  const hd::obs::HistogramSnapshot run_before = task_run.Snapshot();
  const double t0 = NowS();
  const RungRun mid = rung(kMidRps, 0.5 * seconds, 12, true, kPredictShare);
  const double wall = NowS() - t0;
  const hd::obs::HistogramSnapshot run_after = task_run.Snapshot();
  std::vector<double> exec_decide, exec_predict;
  for (const hd::obs::TraceEvent& e : hd::obs::DrainTraceEvents()) {
    const std::string name = e.name;
    if (name == "serve.decide") exec_decide.push_back(e.dur_ns * 1e-9);
    if (name == "serve.predict") exec_predict.push_back(e.dur_ns * 1e-9);
  }
  result->Set("serve.submit_us", Us(Median(mid.submit_call_s)), "us");
  result->Set("serve.service_latency_us.decide.p50",
              Us(Quantile(mid.service_decide_s, 0.5)), "us");
  result->Set("serve.service_latency_us.decide.p99",
              Us(Quantile(mid.service_decide_s, kTailQ)), "us");
  result->Set("serve.service_latency_us.predict.p50",
              Us(Quantile(mid.service_predict_s, 0.5)), "us");
  result->Set("serve.service_latency_us.predict.p99",
              Us(Quantile(mid.service_predict_s, kTailQ)), "us");
  result->Set("serve.queue_depth_max",
              static_cast<double>(mid.queue_depth_max), "count");
  result->Set("serve.publish_us", Us(Median(mid.publish_s)), "us");
  result->Set("serve.gen_lateness_us", Us(Quantile(mid.lateness_s, kTailQ)),
              "us");
  result->Set("nn.alloc_events_per_request",
              static_cast<double>(allocs.value() - allocs_before) / Requests(mid),
              "count");
  result->Set("parallel.pool_utilization",
              (run_after.sum - run_before.sum) / (wall * threads), "ratio");
  result->Set("serve.batch_exec_us.decide", Us(Median(exec_decide)), "us");
  result->Set("serve.batch_exec_us.predict", Us(Median(exec_predict)), "us");
  result->Set("trace.overhead_pct",
              (Quantile(mid.served_decide_s, 0.5) / untraced_decide_p50_s -
               1.0) * 100.0,
              "%");

  const RungRun over =
      rung(kOverloadRps, 0.2 * seconds, 13, true, kPredictShare);
  result->Set("serve.rejected", static_cast<double>(over.rejected), "count");
  result->Set("serve.deadline_missed", static_cast<double>(over.expired),
              "count");
  result->Set("serve.fail_ratio",
              static_cast<double>(over.rejected + over.expired + over.other) /
                  Requests(over),
              "ratio");

  for (const bool predict : {false, true}) {
    const std::string cls = predict ? "predict" : "decide";
    const double rate =
        kMidRps * (predict ? kPredictShare : 1.0 - kPredictShare);
    const int64_t class_allocs = allocs.value();
    const hd::obs::HistogramSnapshot before = batch_size.Snapshot();
    const RungRun alone = rung(rate, 0.15 * seconds, predict ? 15 : 14, true,
                               predict ? 1.0 : 0.0);
    const hd::obs::HistogramSnapshot after = batch_size.Snapshot();
    const int64_t batches = after.count - before.count;
    result->Set("serve.batch_size_mean." + cls,
                batches > 0 ? (after.sum - before.sum) / batches : 0.0,
                "count");
    result->Set("nn.alloc_events_per_request." + cls,
                static_cast<double>(allocs.value() - class_allocs) /
                    Requests(alone),
                "count");
  }
  hd::obs::SetTracingEnabled(false);
  hd::obs::DrainTraceEvents();

  result->Set("serve.wake_us", WakeUs(rig, 1000), "us");
  for (const int rows : {1, 32}) {
    result->Set("nn.decide_batch_us.b" + std::to_string(rows),
                DirectBatchUsPerRow(rig, false, rows), "us");
    result->Set("nn.predict_batch_us.b" + std::to_string(rows),
                DirectBatchUsPerRow(rig, true, rows), "us");
  }
}

}  // namespace

Result RunServe(const Options& options) {
  Result result;
  // Busy threads: the generator, the batcher and the pool stay within nproc.
  const int nproc = hd::parallel::HardwareThreads();
  const int threads = std::max(1, nproc - 2);
  hd::parallel::ThreadPool pool(threads);
  hd::parallel::GlobalPoolOverride pool_override(&pool);
  StampRun(threads, &result);
  result.stamp["ladder_rps"] = std::to_string(kLightRps) + "/" +
                               std::to_string(kMidRps) + "/" +
                               std::to_string(kOverloadRps);
  result.stamp["predict_share"] = std::to_string(kPredictShare);

  Rig rig;
  const double setup_s =
      MedianSetupSeconds(kSetups, [&] { SetUp(rig, options.seed); });
  result.Set("setup_s", setup_s, "s");

  Checks checks;
  double next_publish = 0.0;
  // One rung of `seconds` at `rate` with `share` predict requests, from
  // seed stream `stream`; `traced` also times every submit. Below the
  // overload rate requests carry no deadline and nothing may be shed, so a
  // shed request there counts as failed; at the overload rate they carry
  // the limit as their deadline and shedding is the service's answer.
  const RungFn rung = [&](double rate, double seconds, uint64_t stream,
                          bool traced, double share) {
    const bool overload = rate >= kOverloadRps;
    const std::vector<Arrival> schedule = PoissonSchedule(
        hd::SplitMix(options.seed, stream), rate, seconds, share);
    RungRun run = RunRung(rig, schedule, rate, seconds,
                          overload ? static_cast<int64_t>(kLimitS * 1e6) : 0,
                          traced, &next_publish, &checks);
    result.attempted += Requests(run);
    result.failed += run.other;
    if (!overload) result.failed += run.rejected + run.expired;
    return run;
  };

  // The untraced ladder: all of the run, or half of it when traced.
  const double s = options.trace ? options.seconds / 2.0 : options.seconds;
  const RungRun light = rung(kLightRps, 0.2 * s, 1, false, kPredictShare);
  const RungRun mid = rung(kMidRps, 0.6 * s, 2, false, kPredictShare);
  const RungRun over = rung(kOverloadRps, 0.2 * s, 3, false, kPredictShare);
  if (mid.served_decide_s.size() < SamplesForQuantile(kTailQ) ||
      mid.served_predict_s.size() < SamplesForQuantile(kTailQ)) {
    result.Fail("too few mid-rate requests for a p99");
  }
  const double decide_p50 = Quantile(mid.served_decide_s, 0.5);
  const double goodput = over.within_limit / over.duration_s;
  result.Set("decide_p50_us", Us(decide_p50), "us");
  result.Set("throughput_per_s", goodput, "1/s");
  result.Set("serve_decide_p50_us", Us(decide_p50), "us");
  result.Set("serve_decide_p99_us",
             Us(Quantile(mid.served_decide_s, kTailQ)), "us");
  result.Set("serve_predict_p99_us",
             Us(Quantile(mid.served_predict_s, kTailQ)), "us");
  result.Set("serve_goodput_rps", goodput, "1/s");
  result.Set("serve_max_rps_at_slo",
             MaxRateAtLimit({light.rung, mid.rung, over.rung}, kLimitS,
                            kTailQ),
             "1/s");
  result.Set("serve.late_replies_below_overload",
             static_cast<double>(light.ok - light.within_limit + mid.ok -
                                 mid.within_limit),
             "count");

  if (options.trace) {
    TraceServe(rig, options.seconds - s, decide_p50, rung, &result);
    result.stamp["dropped_spans"] =
        std::to_string(hd::obs::DroppedTraceEvents());
  }

  if (checks.mismatches > 0) {
    result.Fail(std::to_string(checks.mismatches) + " of " +
                std::to_string(checks.checked) +
                " sampled replies differ from a direct batch call");
  }
  if (checks.unknown_versions > 0) {
    result.Fail(std::to_string(checks.unknown_versions) +
                " replies carry an unpublished model version");
  }
  if (checks.checked == 0) result.Fail("no reply was checked");
  result.stamp["checked_replies"] = std::to_string(checks.checked);
  result.stamp["publishes"] = std::to_string(rig.publishes);
  rig.service->Shutdown();
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
