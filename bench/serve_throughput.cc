// Serving-path throughput: requests/sec through DecisionService on the
// single-request path (max_batch=1 ping-pong) and the cross-client
// micro-batched path, the batching speedup between them, client-observed
// p50/p95/p99 latency under open-loop Poisson load at three operating
// points, and the steady-state allocation count per served request. Emits
// JSON (--json-out) and optionally gates against a
// checked-in baseline (--baseline, --max-regress) so CI catches serving
// regressions.
//
// Usage:
//   serve_throughput [--json-out=path] [--baseline=path] [--max-regress=0.30]
//                    [--threads=N] [--trials=N] [--batch=32] [--window-us=200]
//                    [--kernel=scalar|avx2]
//                    [--min-batch-speedup=X] [--require-zero-allocs]
//                    [--metrics-out=path]
//
// Gate semantics: throughput keys are floors (current >= baseline*(1-r));
// the p99 latency key at the mid load point is a ceiling (current <=
// baseline*(1+r)) — lower latency is better. --min-batch-speedup hard-fails
// when batched/single falls below the given ratio (0 = off).
//
// The alloc keys count tape/pool events inside ModelSnapshot::DecideBatch /
// PredictBatch only (the serving hot path); client-side request/future
// plumbing is plain heap by design, exactly like training_throughput's
// caller-side index vectors.
//
// HEAD_BENCH_PROFILE=paper scales up the measured work; the default (fast)
// sizes fit a CI smoke stage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/arena.h"
#include "nn/kernels/simd.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "rl/nets.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace {

using head::Rng;
namespace kernels = head::nn::kernels;
namespace serve = head::serve;

constexpr int kHidden = 64;      // paper-scale BP-DQN nets
constexpr double kAMax = 3.0;
constexpr int kHistoryDepth = 3;

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

head::perception::StGraph RandomGraph(Rng& rng) {
  head::perception::StGraph graph;
  graph.steps.resize(kHistoryDepth);
  for (head::perception::StepNodes& step : graph.steps) {
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

serve::ModelFactories PaperFactories() {
  serve::ModelFactories factories;
  factories.make_x = [](Rng& rng) {
    return std::make_unique<head::rl::BpXNet>(kHidden, kAMax, rng);
  };
  factories.make_q = [](Rng& rng) {
    return std::make_unique<head::rl::BpQNet>(kHidden, rng);
  };
  factories.make_predictor = [](Rng& rng) {
    return std::make_unique<head::perception::LstGat>(
        head::perception::LstGatConfig{}, rng);
  };
  return factories;
}

std::vector<head::rl::AugmentedState> StatePool(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<head::rl::AugmentedState> states;
  states.reserve(n);
  for (int i = 0; i < n; ++i) states.push_back(RandomState(rng));
  return states;
}

/// Closed-loop firehose: submit `wave_size` requests, wait for all replies,
/// repeat until `total` have been served. Every reply must be kOk (the wave
/// never exceeds queue capacity). Returns requests/sec.
double RunDecisionWaves(serve::DecisionService& service,
                        const std::vector<head::rl::AugmentedState>& states,
                        int wave_size, int total) {
  std::vector<std::future<serve::DecisionReply>> futures;
  futures.reserve(wave_size);
  size_t cursor = 0;
  int sent = 0;
  const double t0 = Now();
  while (sent < total) {
    const int n = std::min(wave_size, total - sent);
    futures.clear();
    for (int i = 0; i < n; ++i) {
      serve::DecisionRequest request;
      request.state = states[cursor++ % states.size()];
      futures.push_back(service.SubmitDecision(std::move(request)));
    }
    for (auto& f : futures) {
      const serve::DecisionReply reply = f.get();
      HEAD_CHECK_EQ(static_cast<int>(reply.status),
                    static_cast<int>(serve::ServeStatus::kOk));
    }
    sent += n;
  }
  return static_cast<double>(total) / (Now() - t0);
}

/// Single-request-at-a-time round trips: max_batch=1, one outstanding
/// request (submit, wait, repeat). The per-request cost here includes the
/// full admission/batcher/dispatch path — the honest unbatched reference.
double MeasureSingleRps(serve::ModelSnapshotRegistry& registry, int requests) {
  serve::ServeConfig config;
  config.max_batch = 1;
  config.batch_window_us = 0;
  serve::DecisionService service(&registry, config);
  const auto states = StatePool(64, 0xabcu);
  RunDecisionWaves(service, states, 1, 64);  // warm the arena and pool
  return RunDecisionWaves(service, states, 1, requests);
}

/// Saturating cross-client load: waves of 4*max_batch keep the admission
/// queue primed so the batcher always forms full batches. `mean_batch` is
/// read back from the serve.batch_size histogram delta across the run.
double MeasureBatchedRps(serve::ModelSnapshotRegistry& registry, int max_batch,
                         int64_t window_us, int requests, double* mean_batch) {
  serve::ServeConfig config;
  config.max_batch = max_batch;
  config.batch_window_us = window_us;
  const int wave = 4 * max_batch;
  config.queue_capacity = 2 * wave;
  serve::DecisionService service(&registry, config);
  const auto states = StatePool(64, 0xabcu);
  RunDecisionWaves(service, states, wave, 2 * wave);  // warm
  head::obs::Histogram& batch_size = head::obs::GetHistogram("serve.batch_size");
  const head::obs::HistogramSnapshot before = batch_size.Snapshot();
  const double rps = RunDecisionWaves(service, states, wave, requests);
  const head::obs::HistogramSnapshot after = batch_size.Snapshot();
  if (mean_batch != nullptr) {
    *mean_batch = after.count > before.count
                      ? (after.sum - before.sum) / (after.count - before.count)
                      : 0.0;
  }
  return rps;
}

struct LoadPoint {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  int64_t rejected = 0;
  int64_t deadline_missed = 0;
};

double QuantileUs(std::vector<double>& sorted_latencies_s, double q) {
  if (sorted_latencies_s.empty()) return 0.0;
  const double rank = q * (sorted_latencies_s.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_latencies_s.size() - 1);
  const double frac = rank - lo;
  return (sorted_latencies_s[lo] * (1.0 - frac) +
          sorted_latencies_s[hi] * frac) *
         1e6;
}

/// Open-loop Poisson load at `rate_rps`: one submitter draws exponential
/// inter-arrival gaps and never waits for replies (futures drain after the
/// arrival schedule completes), so queueing delay shows up in the client
/// latency instead of throttling the offered load. Latencies are
/// client-observed (reply.latency_s spans submit → scatter).
LoadPoint MeasureLoadPoint(serve::ModelSnapshotRegistry& registry,
                           int max_batch, int64_t window_us, double rate_rps,
                           int requests, uint64_t seed) {
  serve::ServeConfig config;
  config.max_batch = max_batch;
  config.batch_window_us = window_us;
  config.queue_capacity = 1024;
  serve::DecisionService service(&registry, config);
  const auto states = StatePool(64, seed);
  RunDecisionWaves(service, states, max_batch, 4 * max_batch);  // warm

  head::obs::Counter& rejected_counter = head::obs::GetCounter("serve.rejected");
  head::obs::Counter& deadline_counter =
      head::obs::GetCounter("serve.deadline_missed");
  const int64_t rejected_before = rejected_counter.value();
  const int64_t deadline_before = deadline_counter.value();

  Rng rng(seed * 2 + 1);
  std::vector<std::future<serve::DecisionReply>> futures;
  futures.reserve(requests);
  const double t0 = Now();
  double next_arrival = t0;
  for (int i = 0; i < requests; ++i) {
    next_arrival += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / rate_rps;
    while (Now() < next_arrival) std::this_thread::yield();
    serve::DecisionRequest request;
    request.state = states[i % states.size()];
    futures.push_back(service.SubmitDecision(std::move(request)));
  }

  LoadPoint point;
  std::vector<double> latencies;
  latencies.reserve(requests);
  for (auto& f : futures) {
    const serve::DecisionReply reply = f.get();
    if (reply.status == serve::ServeStatus::kOk) {
      latencies.push_back(reply.latency_s);
    }
  }
  const double elapsed = Now() - t0;
  std::sort(latencies.begin(), latencies.end());
  point.offered_rps = rate_rps;
  point.achieved_rps = static_cast<double>(latencies.size()) / elapsed;
  point.p50_us = QuantileUs(latencies, 0.50);
  point.p95_us = QuantileUs(latencies, 0.95);
  point.p99_us = QuantileUs(latencies, 0.99);
  point.rejected = rejected_counter.value() - rejected_before;
  point.deadline_missed = deadline_counter.value() - deadline_before;
  return point;
}

/// Tape/pool alloc events per served request once batches of every
/// power-of-two size up to max_batch have warmed each executing thread's
/// arena and pool. Counts only events inside DecideBatch / PredictBatch —
/// the serving hot path. Steady state must be exactly 0.
double MeasureServeAllocs(serve::ModelSnapshotRegistry& registry,
                          int max_batch, bool prediction) {
  serve::ServeConfig config;
  config.max_batch = max_batch;
  // Generous window: partial warmup waves must dispatch as one batch of the
  // wave's size rather than splitting.
  config.batch_window_us = 2000;
  config.queue_capacity = 8 * max_batch;
  serve::DecisionService service(&registry, config);
  const auto states = StatePool(64, 0xa110cu);
  Rng graph_rng(0xa110cu);
  std::vector<head::perception::StGraph> graphs;
  for (int i = 0; i < 8; ++i) graphs.push_back(RandomGraph(graph_rng));

  auto run_wave = [&](int n) {
    if (prediction) {
      std::vector<std::future<serve::PredictionReply>> futures;
      futures.reserve(n);
      for (int i = 0; i < n; ++i) {
        serve::PredictionRequest request;
        request.graph = graphs[i % graphs.size()];
        futures.push_back(service.SubmitPrediction(std::move(request)));
      }
      for (auto& f : futures) f.get();
    } else {
      RunDecisionWaves(service, states, n, n);
    }
  };

  for (int round = 0; round < 2; ++round) {
    for (int bucket = 1; bucket <= max_batch; bucket *= 2) run_wave(bucket);
  }

  head::obs::Counter& alloc_events = head::obs::GetCounter("serve.alloc_events");
  const int64_t before = alloc_events.value();
  const int measured_waves = 10;
  for (int w = 0; w < measured_waves; ++w) run_wave(max_batch);
  const int64_t after = alloc_events.value();
  return static_cast<double>(after - before) / (measured_waves * max_batch);
}

double BestOf(int trials, const std::function<double()>& measure) {
  double best = 0.0;
  for (int t = 0; t < trials; ++t) best = std::max(best, measure());
  return best;
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
  const int single_requests = paper ? 2000 : 400;
  const int batched_requests = paper ? 8192 : 2048;
  const int load_requests = paper ? 5000 : 1200;
  const int trials =
      static_cast<int>(ArgValue(argc, argv, "--trials", paper ? 2 : 3));
  const int max_batch =
      static_cast<int>(ArgValue(argc, argv, "--batch", 32));
  const int64_t window_us =
      static_cast<int64_t>(ArgValue(argc, argv, "--window-us", 200));

  const int threads = static_cast<int>(ArgValue(
      argc, argv, "--threads", head::parallel::ConfiguredThreadCount()));
  head::parallel::ThreadPool bench_pool(threads);
  head::parallel::GlobalPoolOverride pool_override(&bench_pool);

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
            << kernels::CpuCapabilityString() << ", max_batch " << max_batch
            << ", window " << window_us << "us)\n";

  // One registry (and thus one snapshot) for every phase: publication cost
  // is not what this bench measures.
  serve::ModelSnapshotRegistry registry(PaperFactories(), /*keep=*/2);
  {
    Rng rng(0x5e17e);
    const head::rl::BpXNet x(kHidden, kAMax, rng);
    const head::rl::BpQNet q(kHidden, rng);
    const head::perception::LstGat predictor(head::perception::LstGatConfig{},
                                             rng);
    registry.Publish(x, q, &predictor);
  }

  const double single_rps = BestOf(
      trials, [&] { return MeasureSingleRps(registry, single_requests); });
  std::cout << "serve single-request: " << single_rps << " req/s\n";

  double mean_batch = 0.0;
  const double batched_rps = BestOf(trials, [&] {
    return MeasureBatchedRps(registry, max_batch, window_us, batched_requests,
                             &mean_batch);
  });
  const double speedup = single_rps > 0.0 ? batched_rps / single_rps : 0.0;
  std::cout << "serve batched: " << batched_rps << " req/s (mean batch "
            << mean_batch << ", speedup " << speedup << "x vs single)\n";

  // Three open-loop operating points against the measured batched capacity:
  // comfortable (0.3x), mid (0.6x, the gated point), near-saturation (0.9x).
  const double load_fractions[3] = {0.3, 0.6, 0.9};
  LoadPoint loads[3];
  for (int i = 0; i < 3; ++i) {
    loads[i] = MeasureLoadPoint(registry, max_batch, window_us,
                                load_fractions[i] * batched_rps, load_requests,
                                0x10adu + i);
    std::cout << "load " << load_fractions[i] << "x (" << loads[i].offered_rps
              << " req/s offered): achieved " << loads[i].achieved_rps
              << " req/s, p50 " << loads[i].p50_us << "us, p95 "
              << loads[i].p95_us << "us, p99 " << loads[i].p99_us
              << "us, rejected " << loads[i].rejected << ", deadline_missed "
              << loads[i].deadline_missed << "\n";
  }

  const double decide_allocs =
      MeasureServeAllocs(registry, max_batch, /*prediction=*/false);
  const double predict_allocs =
      MeasureServeAllocs(registry, max_batch, /*prediction=*/true);
  std::cout << "steady-state allocs/request: decide " << decide_allocs
            << ", predict " << predict_allocs << "\n";

  std::ostringstream json;
  json.precision(6);
  json << "{\"profile\":\"" << (paper ? "paper" : "fast") << "\","
       << "\"threads\":" << threads << ","
       << "\"kernel\":\"" << kernels::IsaName(bench_isa) << "\","
       << "\"cpu_capability\":\"" << kernels::CpuCapabilityString() << "\","
       << "\"fast_math\":" << (kernels::FastMathEnabled() ? "true" : "false")
       << ","
       << "\"max_batch\":" << max_batch << ","
       << "\"window_us\":" << window_us << ","
       << "\"serve_single_rps\":" << single_rps << ","
       << "\"serve_batched_rps\":" << batched_rps << ","
       << "\"serve_batch_speedup\":" << speedup << ","
       << "\"serve_mean_batch_size\":" << mean_batch;
  for (int i = 0; i < 3; ++i) {
    const std::string k = "serve_load" + std::to_string(i + 1);
    json << ",\"" << k << "_offered_rps\":" << loads[i].offered_rps << ",\""
         << k << "_achieved_rps\":" << loads[i].achieved_rps << ",\"" << k
         << "_p50_us\":" << loads[i].p50_us << ",\"" << k
         << "_p95_us\":" << loads[i].p95_us << ",\"" << k
         << "_p99_us\":" << loads[i].p99_us << ",\"" << k
         << "_rejected\":" << loads[i].rejected << ",\"" << k
         << "_deadline_missed\":" << loads[i].deadline_missed;
  }
  json << ",\"serve_allocs_per_request_steady\":" << decide_allocs << ","
       << "\"serve_pred_allocs_per_request_steady\":" << predict_allocs
       << "}";

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

  const std::string metrics_out = ArgString(argc, argv, "--metrics-out");
  if (!metrics_out.empty()) {
    head::nn::PublishAllocMetrics();
    if (!head::obs::WriteMetricsJsonFile(metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << "metrics written to " << metrics_out << "\n";
  }

  const double min_speedup = ArgValue(argc, argv, "--min-batch-speedup", 0.0);
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cerr << "BATCHING REGRESSION: serve_batch_speedup = " << speedup
              << " < required " << min_speedup << "\n";
    return 1;
  }

  if (HasFlag(argc, argv, "--require-zero-allocs")) {
    if (decide_allocs != 0.0 || predict_allocs != 0.0) {
      std::cerr << "ALLOC REGRESSION: steady-state tape/pool alloc events "
                << "per served request must be 0 (decide=" << decide_allocs
                << ", predict=" << predict_allocs << ")\n";
      return 1;
    } else {
      std::cout
          << "alloc gate ok: 0 tape/pool alloc events per steady request\n";
    }
  }

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
      bool lower_is_better;  ///< latency ceiling instead of throughput floor
    };
    const std::vector<Gate> gates = {
        {"serve_single_rps", single_rps, false},
        {"serve_batched_rps", batched_rps, false},
        {"serve_load2_p99_us", loads[1].p99_us, true},
    };
    for (const Gate& gate : gates) {
      double expected = 0.0;
      if (!ReadJsonNumber(buf.str(), gate.key, &expected)) {
        std::cerr << "baseline missing key " << gate.key << "\n";
        return 1;
      }
      if (gate.lower_is_better) {
        const double ceiling = expected * (1.0 + max_regress);
        if (gate.current > ceiling) {
          std::cerr << "PERF REGRESSION: " << gate.key << " = " << gate.current
                    << " > ceiling " << ceiling << " (baseline " << expected
                    << ", max regress " << max_regress * 100 << "%)\n";
          return 1;
        }
        std::cout << "perf gate ok: " << gate.key << " = " << gate.current
                  << " <= " << ceiling << "\n";
      } else {
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
  }
  return 0;
}
