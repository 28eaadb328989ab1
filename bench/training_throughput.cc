// Training-hot-path throughput: RL transitions/sec through PdqnAgent::Update
// and prediction samples/sec through TrainPredictor, each measured on the
// per-sample reference path and the vectorized minibatch path. Emits JSON
// (--json-out) and optionally gates against a checked-in baseline
// (--baseline, --max-regress) so CI catches throughput regressions.
//
// Usage:
//   training_throughput [--json-out=path] [--baseline=path]
//                       [--max-regress=0.30] [--skip-per-sample] [--trials=N]
//                       [--kernel=scalar|avx2] [--skip-gemm]
//                       [--profile-out=path] [--min-profile-coverage=0.95]
//
// --profile-out runs one additional *profiled* pass over the RL update,
// prediction training, and rollout paths (after and separate from the gate
// measurements, which always run unprofiled), prints the top-10 op table,
// and writes the head-profile-v1 JSON for tools/profile_diff.py.
// --min-profile-coverage fails the run if the profiled pass attributes less
// than the given fraction of root step time to per-op rows.
//
// --kernel pins the SIMD backend for the end-to-end measurements (default:
// the best the CPU supports). The gemm_gflops axis below always measures
// both backends so one run reports the AVX2-vs-scalar speedup per shape.
//
// HEAD_BENCH_PROFILE=paper scales up the measured work; the default (fast)
// sizes fit a CI smoke stage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/arena.h"
#include "nn/kernels/simd.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "parallel/env_pool.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "perception/trainer.h"
#include "rl/pdqn_agent.h"

namespace {

using head::Rng;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

head::rl::AugmentedState RandomState(Rng& rng) {
  head::rl::AugmentedState s;
  s.h = head::nn::Tensor::Uniform(head::rl::kStateHRows, head::rl::kStateCols,
                                  -1.0, 1.0, rng);
  s.f = head::nn::Tensor::Uniform(head::rl::kStateFRows, head::rl::kStateCols,
                                  -1.0, 1.0, rng);
  return s;
}

/// Transitions/sec of PdqnAgent::Update on a warmed-up replay buffer (each
/// update consumes one minibatch through critic + actor).
double MeasureRlThroughput(bool batched, int updates) {
  head::rl::PdqnConfig config;  // paper-scale nets: hidden 64, batch 64
  config.batched_updates = batched;
  Rng init(11);
  auto agent = head::rl::MakeBpDqnAgent(config, init);

  Rng data(21);
  for (int i = 0; i < config.warmup_transitions + config.batch_size; ++i) {
    const head::rl::AugmentedState s = RandomState(data);
    const head::rl::AugmentedState s2 = RandomState(data);
    head::rl::AgentAction action;
    action.behavior = data.UniformInt(0, head::rl::kNumBehaviors - 1);
    action.params = head::nn::Tensor::Uniform(1, head::rl::kNumBehaviors,
                                              -3.0, 3.0, data);
    action.maneuver.lane_change =
        head::rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    agent->Remember(s, action, data.Uniform(-1.0, 1.0), s2,
                    /*terminal=*/i % 23 == 0);
  }

  Rng rng(31);
  agent->Update(rng);  // warm caches outside the timed region
  const double t0 = Now();
  for (int u = 0; u < updates; ++u) agent->Update(rng);
  const double elapsed = Now() - t0;
  return static_cast<double>(config.batch_size) * updates / elapsed;
}

/// Tape/pool alloc events (new arena chunks + tensor-pool misses) per
/// PdqnAgent::Update once the arena and pool are warm. The zero-allocation
/// claim of the arena+pool design: after warmup this must be exactly 0.
/// Caller-side index vectors (replay-sample pointers etc.) are plain heap and
/// outside the tape — they are not counted here by design.
double MeasureRlSteadyAllocs(int warmup_updates, int measured_updates) {
  head::rl::PdqnConfig config;
  config.batched_updates = true;
  Rng init(11);
  auto agent = head::rl::MakeBpDqnAgent(config, init);

  Rng data(21);
  for (int i = 0; i < config.warmup_transitions + config.batch_size; ++i) {
    const head::rl::AugmentedState s = RandomState(data);
    const head::rl::AugmentedState s2 = RandomState(data);
    head::rl::AgentAction action;
    action.behavior = data.UniformInt(0, head::rl::kNumBehaviors - 1);
    action.params = head::nn::Tensor::Uniform(1, head::rl::kNumBehaviors,
                                              -3.0, 3.0, data);
    action.maneuver.lane_change =
        head::rl::BehaviorToLaneChange(action.behavior);
    action.maneuver.accel_mps2 = action.params[action.behavior];
    agent->Remember(s, action, data.Uniform(-1.0, 1.0), s2,
                    /*terminal=*/i % 23 == 0);
  }

  Rng rng(31);
  for (int u = 0; u < warmup_updates; ++u) agent->Update(rng);
  const uint64_t before = head::nn::AllocEvents();
  for (int u = 0; u < measured_updates; ++u) agent->Update(rng);
  return static_cast<double>(head::nn::AllocEvents() - before) /
         measured_updates;
}

std::vector<head::perception::PredictionSample> MakeSamples(int count, int z,
                                                            Rng& rng) {
  std::vector<head::perception::PredictionSample> samples;
  samples.reserve(count);
  for (int n = 0; n < count; ++n) {
    head::perception::PredictionSample s;
    s.graph.steps.resize(z);
    for (auto& step : s.graph.steps) {
      for (auto& target : step.feat) {
        for (auto& node : target) {
          for (double& f : node) f = rng.Uniform(-1.0, 1.0);
        }
      }
    }
    for (int i = 0; i < head::perception::kNumAreas; ++i) {
      for (int c = 0; c < 3; ++c) {
        s.graph.target_rel_current[i][c] = rng.Uniform(-1.0, 1.0);
        s.truth.value[i][c] = rng.Uniform(-1.0, 1.0);
      }
      s.truth.valid[i] = rng.Uniform(0.0, 1.0) < 0.8;
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Samples/sec of TrainPredictor over LST-GAT at paper-scale widths.
/// Warmup-then-measure: one untimed TrainPredictor call warms the arena and
/// tensor pool, so the timed call measures the steady state.
double MeasurePredictionThroughput(bool batched, int sample_count,
                                   int epochs) {
  head::perception::LstGatConfig net_config;  // defaults: 64-wide, as paper
  Rng init(7);
  head::perception::LstGat model(net_config, init);
  Rng data(17);
  const auto samples = MakeSamples(sample_count, /*z=*/4, data);

  head::perception::PredictionTrainConfig config;
  config.epochs = epochs;
  config.batched = batched;
  head::perception::TrainPredictor(model, samples, config);  // warmup
  const double t0 = Now();
  head::perception::TrainPredictor(model, samples, config);
  const double elapsed = Now() - t0;
  return static_cast<double>(sample_count) * epochs / elapsed;
}

/// Tape/pool alloc events per TrainPredictor minibatch step once warm: one
/// warmup epoch fills the arena and pool, then a measured epoch over the same
/// data must not touch the heap through either.
double MeasurePredSteadyAllocs(int sample_count) {
  head::perception::LstGatConfig net_config;
  Rng init(7);
  head::perception::LstGat model(net_config, init);
  Rng data(17);
  const auto samples = MakeSamples(sample_count, /*z=*/4, data);

  head::perception::PredictionTrainConfig config;
  config.epochs = 1;
  config.batched = true;
  // Two warmup epochs: the first fills the pool; the second runs the
  // measured path itself once so the pool holds every buffer that path
  // keeps in rotation. Only then is a step "warm".
  head::perception::TrainPredictor(model, samples, config);
  head::perception::TrainPredictor(model, samples, config);
  const uint64_t before = head::nn::AllocEvents();
  head::perception::TrainPredictor(model, samples, config);
  const int steps =
      (sample_count + config.batch_size - 1) / config.batch_size;
  return static_cast<double>(head::nn::AllocEvents() - before) / steps;
}

/// Env steps/sec collecting greedy episodes through an EnvPool of K envs on
/// the (already-overridden) global thread pool — the parallel-rollout axis
/// of the training hot path. Uses an untrained agent: rollout cost is
/// forward-pass + sim dominated and independent of weight values.
double MeasureRolloutThroughput(int num_envs, int episodes) {
  head::rl::EnvConfig env_config;
  env_config.sim.road.length_m = 400.0;
  env_config.sim.spawn.back_margin_m = 120.0;
  env_config.sim.spawn.front_margin_m = 120.0;
  Rng init(13);
  head::perception::LstGat predictor(head::perception::LstGatConfig{}, init);
  head::rl::PdqnConfig config;
  Rng agent_rng(19);
  auto agent = head::rl::MakeBpDqnAgent(config, agent_rng);

  head::parallel::EnvPool pool(num_envs, [&](int) {
    return std::make_unique<head::rl::DrivingEnv>(env_config, &predictor, 1);
  });
  head::parallel::EnvPool::RolloutOptions opts;
  opts.seed_base = 97;
  opts.max_steps_per_episode = 200;
  // Warm one round outside the timed region.
  pool.RunEpisodes(*agent, 0, num_envs, opts);
  const double t0 = Now();
  const auto results = pool.RunEpisodes(*agent, 0, episodes, opts);
  const double elapsed = Now() - t0;
  long steps = 0;
  for (const auto& r : results) steps += r.steps;
  return static_cast<double>(steps) / elapsed;
}

// ---- gemm_gflops axis ----
//
// Microkernel throughput on the exact GEMM shapes the training hot path
// runs (paper-scale widths: hidden 64, batch 64, LSTM 4·64 gates over the
// 6-area × 7-node graph). Measured per backend through the kernel entry
// points, so the numbers isolate the SIMD layer from autograd overhead.

namespace kernels = head::nn::kernels;

// The kernel layer's transposition enum doubles as the bench op key, so the
// flops math below and the profiler share kernels::FlopsFor — one formula.
using GemmOp = kernels::GemmKind;

struct GemmShape {
  const char* name;  // json-key fragment
  GemmOp op;
  int m, n, k;
};

// m×n×k per op; A is (k×m) for TN, B is (n×k) for NT — all row-major.
const GemmShape kGemmShapes[] = {
    // LSTM gate pre-activation x·W_ih for a 6-area × 64-sample batch.
    {"lstm_gate_fwd", GemmOp::kNN, 384, 256, 64},
    // LSTM weight gradient dW = xᵀ·dgates.
    {"lstm_gate_dw", GemmOp::kTN, 64, 256, 384},
    // LSTM input gradient dx = dgates·W_hhᵀ.
    {"lstm_gate_dx", GemmOp::kNT, 384, 64, 256},
    // GAT φ₁ node embedding over all nodes of a minibatch.
    {"phi_embed", GemmOp::kNN, 2688, 64, 4},
    // BranchEncoder layer 1 over a 64-transition critic batch (7 rows each).
    {"branch_l1", GemmOp::kNN, 448, 64, 4},
    // Q-net fusion layer on the merged features.
    {"q_fuse", GemmOp::kNN, 64, 64, 16},
    // Attention score row — the n==1 dot-kernel path.
    {"attn_score", GemmOp::kNN, 42, 1, 64},
};

double MeasureGemmGflops(const GemmShape& s, Rng& rng) {
  const int a_rows = s.op == GemmOp::kTN ? s.k : s.m;
  const int a_cols = s.op == GemmOp::kTN ? s.m : s.k;
  const int b_rows = s.op == GemmOp::kNT ? s.n : s.k;
  const int b_cols = s.op == GemmOp::kNT ? s.k : s.n;
  const head::nn::Tensor a =
      head::nn::Tensor::Uniform(a_rows, a_cols, -1.0, 1.0, rng);
  const head::nn::Tensor b =
      head::nn::Tensor::Uniform(b_rows, b_cols, -1.0, 1.0, rng);
  head::nn::Tensor c(s.m, s.n);
  const auto run = [&] {
    switch (s.op) {
      case GemmOp::kNN:
        kernels::GemmNN(s.m, s.n, s.k, a.data().data(), b.data().data(),
                        nullptr, kernels::GemmInit::kZero, c.data().data());
        break;
      case GemmOp::kTN:
        kernels::GemmTN(s.m, s.n, s.k, a.data().data(), b.data().data(),
                        kernels::GemmInit::kZero, c.data().data());
        break;
      case GemmOp::kNT:
        kernels::GemmNT(s.m, s.n, s.k, a.data().data(), b.data().data(),
                        c.data().data());
        break;
    }
  };
  const double flops =
      static_cast<double>(kernels::FlopsFor(s.op, s.m, s.n, s.k));
  run();  // warm caches + thread-local panel scratch
  // Calibrate the repeat count for a ~20ms timed region.
  int reps = 4;
  for (;;) {
    const double t0 = Now();
    for (int r = 0; r < reps; ++r) run();
    const double elapsed = Now() - t0;
    if (elapsed >= 0.02 || reps >= (1 << 20)) {
      return flops * reps / elapsed / 1e9;
    }
    reps *= 4;
  }
}

double ArgValue(int argc, char** argv, const std::string& flag,
                double fallback) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::atof(arg.c_str() + prefix.size());
  }
  return fallback;
}

std::string ArgString(int argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Best-of-N throughput: on a shared machine a single trial can be halved by
/// scheduling noise; the max over a few short trials is the stable signal the
/// regression gate needs.
double BestOf(int trials, const std::function<double()>& measure) {
  double best = 0.0;
  for (int t = 0; t < trials; ++t) best = std::max(best, measure());
  return best;
}

/// Minimal extraction of `"key":<number>` from a flat JSON file — enough for
/// the baseline format this binary itself writes.
bool ReadJsonNumber(const std::string& text, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::atof(text.c_str() + pos + needle.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* profile_env = std::getenv("HEAD_BENCH_PROFILE");
  const bool paper = profile_env && std::string(profile_env) == "paper";
  const int rl_updates = paper ? 200 : 30;
  const int pred_samples = paper ? 512 : 128;
  const int pred_epochs = paper ? 4 : 1;
  const int trials =
      static_cast<int>(ArgValue(argc, argv, "--trials", paper ? 2 : 3));
  const bool skip_per_sample = HasFlag(argc, argv, "--skip-per-sample");
  const int rollout_envs = paper ? 8 : 4;
  const int rollout_episodes = paper ? 32 : 12;

  // The threads axis: --threads=N routes every ParallelFor/EnvPool below
  // through an N-thread pool (default: HEAD_THREADS or hardware concurrency).
  const int threads = static_cast<int>(ArgValue(
      argc, argv, "--threads", head::parallel::ConfiguredThreadCount()));
  head::parallel::ThreadPool bench_pool(threads);
  head::parallel::GlobalPoolOverride pool_override(&bench_pool);

  // --kernel pins the SIMD backend for everything measured below.
  const std::string kernel_flag = ArgString(argc, argv, "--kernel");
  if (kernel_flag == "scalar") {
    kernels::SetActiveIsa(kernels::Isa::kScalar);
  } else if (kernel_flag == "avx2") {
    if (!kernels::SetActiveIsa(kernels::Isa::kAvx2)) {
      std::cerr << "--kernel=avx2 requested but this machine/binary has no "
                << "AVX2+FMA backend (cpu: " << kernels::CpuCapabilityString()
                << ")\n";
      return 1;
    }
  } else if (!kernel_flag.empty()) {
    std::cerr << "unknown --kernel=" << kernel_flag
              << " (expected scalar|avx2)\n";
    return 1;
  }
  const kernels::Isa bench_isa = kernels::ActiveIsa();

  std::cout << "profile: " << (paper ? "paper" : "fast") << " (best of "
            << trials << " trials, " << threads << " threads, kernel "
            << kernels::IsaName(bench_isa) << ", cpu "
            << kernels::CpuCapabilityString() << ")\n";

  // GEMM microkernel axis: both backends on the training-hot-path shapes.
  std::ostringstream gemm_json;
  gemm_json.precision(6);
  double speedup_log_sum = 0.0;
  int speedup_count = 0;
  double avx2_best = 0.0;
  if (!HasFlag(argc, argv, "--skip-gemm")) {
    const bool has_avx2 = kernels::CpuSupportsAvx2Fma();
    Rng gemm_rng(53);
    for (const GemmShape& s : kGemmShapes) {
      kernels::SetActiveIsa(kernels::Isa::kScalar);
      const double scalar_gflops =
          BestOf(trials, [&] { return MeasureGemmGflops(s, gemm_rng); });
      double avx2_gflops = 0.0;
      if (has_avx2) {
        kernels::SetActiveIsa(kernels::Isa::kAvx2);
        avx2_gflops =
            BestOf(trials, [&] { return MeasureGemmGflops(s, gemm_rng); });
        avx2_best = std::max(avx2_best, avx2_gflops);
        speedup_log_sum += std::log(avx2_gflops / scalar_gflops);
        ++speedup_count;
      }
      std::cout << "gemm " << s.name << " (" << s.m << "x" << s.n << "x"
                << s.k << "): scalar " << scalar_gflops << " gflops";
      if (has_avx2) {
        std::cout << ", avx2 " << avx2_gflops << " gflops (speedup "
                  << avx2_gflops / scalar_gflops << "x)";
      }
      std::cout << "\n";
      gemm_json << "\"gemm_" << s.name << "_scalar_gflops\":" << scalar_gflops
                << ",\"gemm_" << s.name << "_avx2_gflops\":" << avx2_gflops
                << ",";
    }
    kernels::SetActiveIsa(bench_isa);  // restore the --kernel selection
  }
  const double gemm_speedup_geomean =
      speedup_count > 0 ? std::exp(speedup_log_sum / speedup_count) : 0.0;
  if (speedup_count > 0) {
    std::cout << "gemm avx2 speedup geomean: " << gemm_speedup_geomean
              << "x\n";
  }

  const double rl_batched = BestOf(trials, [&] {
    return MeasureRlThroughput(/*batched=*/true, rl_updates);
  });
  std::cout << "rl batched:       " << rl_batched << " transitions/sec\n";
  const double pred_batched = BestOf(trials, [&] {
    return MeasurePredictionThroughput(/*batched=*/true, pred_samples,
                                       pred_epochs);
  });
  std::cout << "pred batched:     " << pred_batched << " samples/sec\n";
  const double rollout = BestOf(trials, [&] {
    return MeasureRolloutThroughput(rollout_envs, rollout_episodes);
  });
  std::cout << "rollout (K=" << rollout_envs << "): " << rollout
            << " env steps/sec\n";

  // Steady-state allocation audit: tape/pool heap events per update after
  // warmup. The arena + tensor-pool hot path is designed to make these 0.
  const double rl_allocs = MeasureRlSteadyAllocs(/*warmup_updates=*/4,
                                                 /*measured_updates=*/8);
  const double pred_allocs = MeasurePredSteadyAllocs(/*sample_count=*/32);
  std::cout << "rl steady allocs:   " << rl_allocs << " events/update\n";
  std::cout << "pred steady allocs: " << pred_allocs << " events/step\n";

  double rl_per_sample = 0.0;
  double pred_per_sample = 0.0;
  if (!skip_per_sample) {
    rl_per_sample = BestOf(trials, [&] {
      return MeasureRlThroughput(/*batched=*/false, rl_updates);
    });
    std::cout << "rl per-sample:    " << rl_per_sample
              << " transitions/sec (speedup "
              << rl_batched / rl_per_sample << "x)\n";
    pred_per_sample = BestOf(trials, [&] {
      return MeasurePredictionThroughput(/*batched=*/false, pred_samples,
                                         pred_epochs);
    });
    std::cout << "pred per-sample:  " << pred_per_sample
              << " samples/sec (speedup " << pred_batched / pred_per_sample
              << "x)\n";
  }

  std::ostringstream json;
  json.precision(6);
  json << "{\"profile\":\"" << (paper ? "paper" : "fast") << "\","
       << "\"threads\":" << threads << ","
       << "\"kernel\":\"" << kernels::IsaName(bench_isa) << "\","
       << "\"cpu_capability\":\"" << kernels::CpuCapabilityString() << "\","
       << "\"fast_math\":" << (kernels::FastMathEnabled() ? "true" : "false")
       << "," << gemm_json.str()
       << "\"gemm_avx2_speedup_geomean\":" << gemm_speedup_geomean << ","
       << "\"rollout_envs\":" << rollout_envs << ","
       << "\"rollout_env_steps_per_sec\":" << rollout << ","
       << "\"rl_transitions_per_sec_batched\":" << rl_batched << ","
       << "\"rl_transitions_per_sec_per_sample\":" << rl_per_sample << ","
       << "\"rl_speedup\":"
       << (rl_per_sample > 0 ? rl_batched / rl_per_sample : 0.0) << ","
       << "\"pred_samples_per_sec_batched\":" << pred_batched << ","
       << "\"pred_samples_per_sec_per_sample\":" << pred_per_sample << ","
       << "\"pred_speedup\":"
       << (pred_per_sample > 0 ? pred_batched / pred_per_sample : 0.0) << ","
       << "\"rl_allocs_per_step_steady\":" << rl_allocs << ","
       << "\"pred_allocs_per_step_steady\":" << pred_allocs << "}";

  const std::string json_out = ArgString(argc, argv, "--json-out");
  if (!json_out.empty()) {
    std::ofstream os(json_out);
    os << json.str() << "\n";
    if (!os.good()) {
      std::cerr << "failed to write " << json_out << "\n";
      return 1;
    }
  }
  std::cout << json.str() << "\n";

  // --metrics-out: export the full obs registry (including the nn_alloc_*
  // arena/pool gauges published here) as a metrics JSON snapshot.
  const std::string metrics_out = ArgString(argc, argv, "--metrics-out");
  if (!metrics_out.empty()) {
    head::nn::PublishAllocMetrics();
    // SIMD capability stamp + kernel-axis gauges for the snapshot.
    head::obs::GetGauge("nn.simd.kernel_avx2")
        .Set(bench_isa == kernels::Isa::kAvx2 ? 1.0 : 0.0);
    head::obs::GetGauge("nn.simd.cpu_avx2_fma")
        .Set(kernels::CpuSupportsAvx2Fma() ? 1.0 : 0.0);
    head::obs::GetGauge("nn.simd.fast_math")
        .Set(kernels::FastMathEnabled() ? 1.0 : 0.0);
    if (speedup_count > 0) {
      head::obs::GetGauge("nn.simd.gemm_gflops_avx2_best").Set(avx2_best);
      head::obs::GetGauge("nn.simd.gemm_avx2_speedup_geomean")
          .Set(gemm_speedup_geomean);
    }
    if (!head::obs::WriteMetricsJsonFile(metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << "metrics written to " << metrics_out << "\n";
  }

  // --require-zero-allocs: hard gate on the zero-allocation steady state.
  if (HasFlag(argc, argv, "--require-zero-allocs")) {
    if (rl_allocs != 0.0 || pred_allocs != 0.0) {
      std::cerr << "ALLOC REGRESSION: steady-state tape/pool alloc events "
                << "per step must be 0 (rl=" << rl_allocs
                << ", pred=" << pred_allocs << ")\n";
      return 1;
    }
    std::cout << "alloc gate ok: 0 tape/pool alloc events per steady step\n";
  }

  // Regression gate: current batched throughput must stay within
  // --max-regress of the checked-in baseline.
  const std::string baseline_path = ArgString(argc, argv, "--baseline");
  if (!baseline_path.empty()) {
    std::ifstream is(baseline_path);
    if (!is.good()) {
      std::cerr << "cannot read baseline " << baseline_path << "\n";
      return 1;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    const double max_regress = ArgValue(argc, argv, "--max-regress", 0.30);
    struct Gate {
      const char* key;
      double current;
    };
    const Gate gates[] = {
        {"rl_transitions_per_sec_batched", rl_batched},
        {"pred_samples_per_sec_batched", pred_batched},
        {"rollout_env_steps_per_sec", rollout},
    };
    for (const auto& gate : gates) {
      double expected = 0.0;
      if (!ReadJsonNumber(buf.str(), gate.key, &expected)) {
        std::cerr << "baseline missing key " << gate.key << "\n";
        return 1;
      }
      const double floor = expected * (1.0 - max_regress);
      if (gate.current < floor) {
        std::cerr << "PERF REGRESSION: " << gate.key << " = " << gate.current
                  << " < floor " << floor << " (baseline " << expected
                  << ", max regress " << max_regress * 100 << "%)\n";
        return 1;
      }
      std::cout << "perf gate ok: " << gate.key << " = " << gate.current
                << " >= " << floor << "\n";
    }
  }

  // --profile-out: one additional *profiled* pass over the training hot
  // paths. Kept separate from the timed measurements above so the perf gate
  // numbers are never polluted by profiler overhead.
  const std::string profile_out = ArgString(argc, argv, "--profile-out");
  if (!profile_out.empty()) {
    kernels::CalibrateProfilerRoofline();  // before Start: no stat pollution
    head::obs::StartProfiling();
    MeasureRlThroughput(/*batched=*/true, rl_updates);
    MeasurePredictionThroughput(/*batched=*/true, pred_samples, pred_epochs);
    MeasureRolloutThroughput(rollout_envs, std::max(2, rollout_episodes / 4));
    head::obs::StopProfiling();
    const head::obs::ProfileReport report = head::obs::CollectProfile();
    std::cout << head::obs::ProfileToText(report, /*top_n=*/10);
    std::ofstream os(profile_out);
    os << head::obs::ProfileToJson(report);
    if (!os.good()) {
      std::cerr << "failed to write " << profile_out << "\n";
      return 1;
    }
    std::cout << "profile written to " << profile_out << "\n";
    const double min_coverage =
        ArgValue(argc, argv, "--min-profile-coverage", 0.0);
    if (min_coverage > 0.0 && report.coverage < min_coverage) {
      std::cerr << "PROFILE COVERAGE: " << report.coverage
                << " below required " << min_coverage << "\n";
      return 1;
    }
  }
  return 0;
}
