// drive: one HEAD vehicle in shadow mode on dense traffic. Each step runs
// Simulation::Step -> GlobalSnapshot -> sensor::Observe -> HeadAgent::Decide.
// The applied maneuver comes from the IDM-LC baseline, so the scenes and the
// work per step depend on the seed alone, not on HEAD's weights or numerics;
// HEAD's own decision is checked and recorded but not applied.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common.h"
#include "nn/arena.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "stats.h"

namespace perfbench {

namespace hd = head;

namespace {

constexpr int kWarmupSteps = 50;  // captures every plan the decision uses
// A traced run alternates untraced and traced slices of this length, so a
// drift in the host's speed lands on both sides of the overhead comparison.
constexpr double kSliceS = 1.0;
constexpr std::array<const char*, 4> kPhantomKinds = {"inherent", "range",
                                                      "occlusion", "zero_pad"};

struct DriveRig {
  HeadModels models;
  std::unique_ptr<hd::core::HeadAgent> head;
  std::unique_ptr<SceneStream> scenes;
};

DriveRig MakeRig(uint64_t seed) {
  DriveRig rig;
  const hd::sim::SimConfig sim = DriveScenario();
  rig.models = MakeHeadModels(sim, seed);
  rig.head = std::make_unique<hd::core::HeadAgent>(
      rig.models.config, rig.models.predictor, rig.models.agent);
  rig.scenes = std::make_unique<SceneStream>(sim, seed);
  rig.head->OnEpisodeStart();
  for (int i = 0; i < kWarmupSteps; ++i) {
    rig.head->Decide(rig.scenes->view());
    if (rig.scenes->Advance(rig.scenes->BaselineManeuver())) {
      rig.head->OnEpisodeStart();
    }
  }
  return rig;
}

/// Shadow-decision check: finite and within the acceleration bound.
bool DecisionOk(const hd::Maneuver& m, double a_max) {
  return std::isfinite(m.accel_mps2) && std::fabs(m.accel_mps2) <= a_max &&
         (m.lane_change == hd::LaneChange::kLeft ||
          m.lane_change == hd::LaneChange::kKeep ||
          m.lane_change == hd::LaneChange::kRight);
}

struct Phase {
  std::vector<double> decide_s;
  int64_t steps = 0;
  int64_t bad_decisions = 0;
  double wall_s = 0.0;
};

/// Per-step layer timings (seconds) and obs counter deltas of the traced
/// slices.
struct LayerSamples {
  std::vector<double> step, observe, phantom, graph, predict, augment, act,
      decide_self;
  double observed_sum = 0.0;
  std::array<int64_t, kPhantomKinds.size()> phantoms{};
  int64_t dispatches = 0;
  uint64_t allocs = 0;
  int64_t waits = 0;
  double wait_sum_s = 0.0;
};

/// The obs counters the traced slices read, resolved once.
struct Counters {
  std::array<hd::obs::Counter*, kPhantomKinds.size()> phantoms{};
  hd::obs::Counter* dispatches = nullptr;
  hd::obs::Histogram* queue_wait = nullptr;

  Counters() {
    for (size_t k = 0; k < kPhantomKinds.size(); ++k) {
      phantoms[k] = &hd::obs::GetCounter(std::string("perception.phantom.") +
                                         kPhantomKinds[k]);
    }
    dispatches = &hd::obs::GetCounter("parallel.pfor.dispatches");
    queue_wait = &hd::obs::LatencyHistogram("parallel.task.queue_wait");
  }
};

double SpanSeconds(const std::vector<hd::obs::TraceEvent>& events,
                   const char* name) {
  uint64_t ns = 0;
  for (const hd::obs::TraceEvent& e : events) {
    if (std::string(e.name) == name) ns += e.dur_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

/// Runs the drive loop for `seconds`, adding to `phase`. With `layers` set,
/// spans are on and every layer boundary is timed; otherwise only the
/// decision is timed.
void RunPhase(DriveRig& rig, double seconds, Phase* phase,
              LayerSamples* layers) {
  static const Counters counters;
  const double a_max = rig.models.config.road.a_max_mps2;
  std::array<int64_t, kPhantomKinds.size()> phantoms_before{};
  int64_t dispatches_before = 0;
  hd::obs::HistogramSnapshot wait_before;
  uint64_t allocs_before = 0;
  if (layers != nullptr) {
    for (size_t k = 0; k < kPhantomKinds.size(); ++k) {
      phantoms_before[k] = counters.phantoms[k]->value();
    }
    dispatches_before = counters.dispatches->value();
    wait_before = counters.queue_wait->Snapshot();
    allocs_before = hd::nn::AllocEvents();
    hd::obs::DrainTraceEvents();
    hd::obs::SetTracingEnabled(true);
  }
  const double start = NowS();
  while (NowS() - start < seconds) {
    const hd::decision::EgoView& view = rig.scenes->view();
    const double t0 = NowS();
    const hd::Maneuver shadow = rig.head->Decide(view);
    const double decide = NowS() - t0;
    phase->decide_s.push_back(decide);
    if (!DecisionOk(shadow, a_max)) ++phase->bad_decisions;
    ++phase->steps;

    const hd::Maneuver applied = rig.scenes->BaselineManeuver();
    bool restarted = false;
    if (layers != nullptr) {
      const std::vector<hd::obs::TraceEvent> events =
          hd::obs::DrainTraceEvents();
      const double phantom = SpanSeconds(events, "perception.phantom");
      const double graph = SpanSeconds(events, "perception.graph");
      const double predict = SpanSeconds(events, "perception.predict");
      const double augment = SpanSeconds(events, "perception.augment");
      const double act = SpanSeconds(events, "rl.act");
      layers->phantom.push_back(phantom);
      layers->graph.push_back(graph);
      layers->predict.push_back(predict);
      layers->augment.push_back(augment);
      layers->act.push_back(act);
      layers->decide_self.push_back(decide - phantom - graph - predict -
                                    augment - act);
      layers->observed_sum += static_cast<double>(view.observed.size());
      double step_s = 0.0;
      double observe_s = 0.0;
      restarted = rig.scenes->AdvanceTimed(applied, &step_s, &observe_s);
      layers->step.push_back(step_s);
      layers->observe.push_back(observe_s);
      hd::obs::DrainTraceEvents();  // sim/sensor spans: timed from outside
    } else {
      restarted = rig.scenes->Advance(applied);
    }
    if (restarted) rig.head->OnEpisodeStart();
  }
  phase->wall_s += NowS() - start;
  if (layers != nullptr) {
    hd::obs::SetTracingEnabled(false);
    for (size_t k = 0; k < kPhantomKinds.size(); ++k) {
      layers->phantoms[k] += counters.phantoms[k]->value() - phantoms_before[k];
    }
    layers->dispatches += counters.dispatches->value() - dispatches_before;
    const hd::obs::HistogramSnapshot wait_after =
        counters.queue_wait->Snapshot();
    layers->waits += wait_after.count - wait_before.count;
    layers->wait_sum_s += wait_after.sum - wait_before.sum;
    layers->allocs += hd::nn::AllocEvents() - allocs_before;
  }
}

double Us(double seconds) { return seconds * 1e6; }

void ReportLayers(const LayerSamples& layers, const Phase& traced,
                  const Phase& plain, Result* result) {
  const double n = static_cast<double>(traced.steps);
  result->Set("sim.step_us", Us(Median(layers.step)), "us");
  result->Set("sensor.observe_us", Us(Median(layers.observe)), "us");
  result->Set("sensor.observed_per_step", layers.observed_sum / n, "count");
  for (size_t k = 0; k < kPhantomKinds.size(); ++k) {
    result->Set(std::string("perception.phantoms_per_step.") + kPhantomKinds[k],
                layers.phantoms[k] / n, "count");
  }
  const double phantom = Median(layers.phantom);
  const double graph = Median(layers.graph);
  const double predict = Median(layers.predict);
  const double augment = Median(layers.augment);
  const double act = Median(layers.act);
  const double decide = Median(traced.decide_s);
  result->Set("perception.phantom_us", Us(phantom), "us");
  result->Set("perception.graph_us", Us(graph), "us");
  result->Set("perception.predict_us.p50", Us(predict), "us");
  result->Set("perception.predict_us.p99", Us(Quantile(layers.predict, 0.99)),
              "us");
  result->Set("rl.augment_us", Us(augment), "us");
  result->Set("rl.act_us", Us(act), "us");
  result->Set("rl.act_us.p99", Us(Quantile(layers.act, 0.99)), "us");
  result->Set("core.decide_self_us", Us(Median(layers.decide_self)), "us");
  result->Set("drive.stage_coverage",
              (phantom + graph + predict + augment + act) / decide, "ratio");
  result->Set("nn.alloc_events_per_decide", layers.allocs / n, "count");
  result->Set("parallel.pfor_dispatches_per_decide", layers.dispatches / n,
              "count");
  result->Set("parallel.task_queue_wait_us",
              layers.waits > 0 ? Us(layers.wait_sum_s / layers.waits) : 0.0,
              "us");
  result->Set("trace.overhead_pct",
              (decide / Median(plain.decide_s) - 1.0) * 100.0, "%");
}

}  // namespace

Result RunDrive(const Options& options) {
  Result result;
  const int threads = hd::parallel::HardwareThreads();
  hd::parallel::ThreadPool pool(threads);
  hd::parallel::GlobalPoolOverride pool_override(&pool);
  StampRun(threads, &result);

  DriveRig rig;
  const double setup_s =
      MedianSetupSeconds(kSetups, [&] { rig = MakeRig(options.seed); });
  result.Set("setup_s", setup_s, "s");

  Phase plain;
  Phase traced;
  LayerSamples layers;
  if (!options.trace) {
    RunPhase(rig, options.seconds, &plain, nullptr);
  } else {
    const int pairs =
        std::max(1, static_cast<int>(options.seconds / (2.0 * kSliceS)));
    const double slice = options.seconds / (2.0 * pairs);
    for (int i = 0; i < pairs; ++i) {
      RunPhase(rig, slice, &plain, nullptr);
      RunPhase(rig, slice, &traced, &layers);
    }
  }

  result.attempted = plain.steps + traced.steps;
  result.failed = plain.bad_decisions + traced.bad_decisions;
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) +
                " shadow decisions were non-finite or beyond +-a_max");
  }
  if (plain.decide_s.size() < SamplesForQuantile(0.99)) {
    result.Fail("too few decisions for a p99");
  }
  const double p50 = Us(Quantile(plain.decide_s, 0.50));
  const double steps_per_s = plain.steps / plain.wall_s;
  result.Set("decide_p50_us", p50, "us");
  result.Set("throughput_per_s", steps_per_s, "1/s");
  result.Set("drive_decide_p50_us", p50, "us");
  result.Set("drive_decide_p99_us", Us(Quantile(plain.decide_s, 0.99)), "us");
  result.Set("drive_steps_per_s", steps_per_s, "1/s");
  result.stamp["decisions"] = std::to_string(plain.steps);
  if (options.trace) ReportLayers(layers, traced, plain, &result);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
