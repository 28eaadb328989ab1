// Overhead of the permanent instrumentation. HEAD_SPAN and HEAD_PROF_OP are
// one obs::Scope whose disabled path (tracing and profiling off, no
// histogram) is a single relaxed load: BM_DisabledSpan and
// BM_DisabledOpScope must stay in the low-single-digit-ns noise band, since
// HEAD_PROF_OP lives inside every kernel entry point and autograd node.
// BM_EnabledSpan prices a traced span, BM_EnabledOpScope a profiled op (two
// clock reads + relaxed adds into the per-thread table); the
// BM_SimStep_Tracing{Off,On} and BM_EnvStep_Profiling{Off,On} pairs bound
// the full step cost both ways on a realistic fleet.
//
// The flight-recorder rows bound the black box the same way: the disabled
// gate (BM_DisabledRecorderGate) must sit in the same noise band as
// BM_DisabledSpan, a full scratch-fill + ring commit (BM_RecorderCommit) is
// a struct copy with no allocation, and BM_SimStep_RecordingOff/_RecordingOn
// bound the end-to-end step cost. The timeseries rows cost out the
// per-episode curve sink.
#include <benchmark/benchmark.h>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "rl/env.h"
#include "sim/simulation.h"

namespace {

using namespace head;

sim::SimConfig BenchSimConfig() {
  sim::SimConfig config;
  config.road.length_m = 3000.0;  // long road: steps dominated by the fleet
  config.max_steps = 1 << 30;     // never time out inside the benchmark
  return config;
}

void BM_DisabledSpan(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  for (auto _ : state) {
    HEAD_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledSpan);

void BM_EnabledSpan(benchmark::State& state) {
  obs::SetTracingEnabled(true);
  for (auto _ : state) {
    HEAD_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
  obs::SetTracingEnabled(false);
  obs::DrainTraceEvents();
}
BENCHMARK(BM_EnabledSpan);

void BM_DisabledOpScope(benchmark::State& state) {
  obs::StopProfiling();
  for (auto _ : state) {
    HEAD_PROF_OP("bench.noop", 64, 64, 64, 524288, 98304);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledOpScope);

void BM_EnabledOpScope(benchmark::State& state) {
  obs::ProfilerOptions options;
  options.hw_counters = false;  // price the record path, not perf ioctls
  obs::StartProfiling(options);
  for (auto _ : state) {
    HEAD_PROF_OP("bench.noop", 64, 64, 64, 524288, 98304);
    benchmark::ClobberMemory();
  }
  obs::StopProfiling();
  obs::ResetProfile();
}
BENCHMARK(BM_EnabledOpScope);

void BM_CounterAdd(benchmark::State& state) {
  static obs::Counter& counter = obs::GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Add();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  static obs::Histogram& hist = obs::LatencyHistogram("bench.hist");
  double v = 1e-6;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1.0 ? v * 1.01 : 1e-6;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_DisabledRecorderGate(benchmark::State& state) {
  obs::SetRecordingEnabled(false);
  for (auto _ : state) {
    // The exact hot-path pattern at every instrumentation site.
    if (obs::RecordingEnabled()) {
      obs::ScratchRecord().accel_mps2 = 1.0;
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledRecorderGate);

void BM_RecorderCommit(benchmark::State& state) {
  obs::RecorderConfig cfg;
  cfg.dump_dir.clear();          // memory-only: triggers never touch disk
  cfg.dump_on_collision = false;
  obs::ConfigureRecorder(cfg);
  obs::SetRecordingEnabled(true);
  obs::BeginEpisode({});
  int step = 0;
  for (auto _ : state) {
    obs::StepRecord& rec = obs::ScratchRecord();
    rec.step = ++step;
    rec.time_s = step * 0.5;
    rec.ego_lane = 3;
    rec.ego_lon_m = 7.0 * step;
    rec.ego_v_mps = 20.0;
    rec.accel_mps2 = -1.0;
    rec.has_reward = 1;
    rec.r_total = -0.25;
    obs::CommitStepRecord();
    benchmark::ClobberMemory();
  }
  obs::SetRecordingEnabled(false);
}
BENCHMARK(BM_RecorderCommit);

void BM_TimeSeriesAppend(benchmark::State& state) {
  obs::TimeSeries ts(4096);
  double t = 0.0;
  for (auto _ : state) {
    ts.Append(t += 1.0, {{"reward", -0.2}, {"epsilon", 0.5}, {"loss", 0.01}});
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TimeSeriesAppend);

void BM_TimeSeriesSampleRegistry(benchmark::State& state) {
  obs::GetCounter("bench.ts.counter").Add(1);
  obs::GetGauge("bench.ts.gauge").Set(1.0);
  obs::TimeSeries ts(4096);
  double t = 0.0;
  for (auto _ : state) {
    ts.SampleRegistry(t += 1.0, "bench.ts.");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TimeSeriesSampleRegistry);

void StepLoop(benchmark::State& state) {
  sim::Simulation sim(BenchSimConfig(), /*seed=*/1);
  const Maneuver keep{LaneChange::kKeep, 0.0};
  uint64_t seed = 1;
  for (auto _ : state) {
    if (sim.status() != sim::EpisodeStatus::kRunning) sim.Reset(++seed);
    benchmark::DoNotOptimize(sim.Step(keep));
  }
}

void BM_SimStep_TracingOff(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  StepLoop(state);
}
BENCHMARK(BM_SimStep_TracingOff);

void BM_SimStep_TracingOn(benchmark::State& state) {
  obs::SetTracingEnabled(true);
  StepLoop(state);
  obs::SetTracingEnabled(false);
  obs::DrainTraceEvents();
}
BENCHMARK(BM_SimStep_TracingOn);

void BM_SimStep_RecordingOff(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  obs::SetRecordingEnabled(false);
  StepLoop(state);
}
BENCHMARK(BM_SimStep_RecordingOff);

void BM_SimStep_RecordingOn(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  obs::RecorderConfig cfg;
  cfg.dump_dir.clear();
  cfg.dump_on_collision = false;  // stay on the commit path, not the dump path
  obs::ConfigureRecorder(cfg);
  obs::SetRecordingEnabled(true);
  obs::BeginEpisode({});
  StepLoop(state);
  obs::SetRecordingEnabled(false);
}
BENCHMARK(BM_SimStep_RecordingOn);

/// Full env step (sim + sensor + phantom + st-graph, no predictor) — the
/// densest permanent span instrumentation outside nn itself.
void EnvStepLoop(benchmark::State& state) {
  rl::EnvConfig config;
  config.sim.road.length_m = 800.0;
  config.sim.max_steps = 1 << 30;
  config.use_prediction = false;
  rl::DrivingEnv env(config, nullptr, /*seed=*/1);
  uint64_t seed = 1;
  env.Reset(seed);
  const Maneuver keep{LaneChange::kKeep, 0.0};
  for (auto _ : state) {
    const auto out = env.Step(keep);
    if (out.done) env.Reset(++seed);
    benchmark::ClobberMemory();
  }
}

void BM_EnvStep_ProfilingOff(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  obs::StopProfiling();
  EnvStepLoop(state);
}
BENCHMARK(BM_EnvStep_ProfilingOff);

void BM_EnvStep_ProfilingOn(benchmark::State& state) {
  obs::SetTracingEnabled(false);
  obs::ProfilerOptions options;
  options.hw_counters = false;
  obs::StartProfiling(options);
  EnvStepLoop(state);
  obs::StopProfiling();
  obs::ResetProfile();
}
BENCHMARK(BM_EnvStep_ProfilingOn);

}  // namespace

BENCHMARK_MAIN();
