// head_serve — in-process load driver for the decision service. There is no
// network transport (the SubmitDecision/future API *is* the serving seam);
// this tool stands in for a fleet of clients and prints the latency /
// throughput / admission-control picture an operator would read off the
// serve.* metrics in production.
//
//   head_serve [flags]
//
// Load shape:
//   --requests=N     total requests to issue (default 2000)
//   --clients=C      closed-loop client threads, each submit-and-wait
//                    (default 4; ignored when --rate is set)
//   --rate=R         open-loop Poisson arrivals at R req/s from a single
//                    submitter that never waits for replies (default 0 = off)
//   --predict        issue prediction requests instead of decision requests
//
// Service config:
//   --batch=B        max_batch (default 32)
//   --window-us=T    batching window in µs (default 200)
//   --queue=N        admission queue capacity (default 1024)
//   --deadline-us=D  per-request deadline in µs (default 0 = none)
//   --threads=N      worker pool size (default HEAD_THREADS or hw threads)
//
// Hot swap:
//   --swap-ms=M      republish fresh weights every M ms while the load runs
//                    (default 0 = publish once and serve one version)
//
// Misc:
//   --seed=S         rng seed for weights and request payloads (default 17)
//   --metrics-out=P  write the full obs metrics snapshot as JSON on exit
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nn/kernels/simd.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "perception/lst_gat.h"
#include "rl/nets.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace {

using namespace head;

constexpr int kHidden = 64;
constexpr double kAMax = 3.0;
constexpr int kHistoryDepth = 3;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

serve::ModelFactories Factories() {
  serve::ModelFactories factories;
  factories.make_x = [](Rng& rng) {
    return std::make_unique<rl::BpXNet>(kHidden, kAMax, rng);
  };
  factories.make_q = [](Rng& rng) {
    return std::make_unique<rl::BpQNet>(kHidden, rng);
  };
  factories.make_predictor = [](Rng& rng) {
    return std::make_unique<perception::LstGat>(perception::LstGatConfig{},
                                                rng);
  };
  return factories;
}

/// What every client thread records per reply; merged for the final table.
struct ClientStats {
  std::vector<double> latencies_s;  ///< kOk replies only
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t deadline = 0;
  int64_t shutdown = 0;
  int64_t unavailable = 0;
  uint64_t min_version = 0;
  uint64_t max_version = 0;

  void Record(serve::ServeStatus status, double latency_s, uint64_t version) {
    switch (status) {
      case serve::ServeStatus::kOk:
        ++ok;
        latencies_s.push_back(latency_s);
        if (min_version == 0 || version < min_version) min_version = version;
        max_version = std::max(max_version, version);
        break;
      case serve::ServeStatus::kRejected:
        ++rejected;
        break;
      case serve::ServeStatus::kDeadlineExceeded:
        ++deadline;
        break;
      case serve::ServeStatus::kShutdown:
        ++shutdown;
        break;
      case serve::ServeStatus::kUnavailable:
        ++unavailable;
        break;
    }
  }

  void Merge(const ClientStats& other) {
    latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                       other.latencies_s.end());
    ok += other.ok;
    rejected += other.rejected;
    deadline += other.deadline;
    shutdown += other.shutdown;
    unavailable += other.unavailable;
    if (other.min_version != 0 &&
        (min_version == 0 || other.min_version < min_version)) {
      min_version = other.min_version;
    }
    max_version = std::max(max_version, other.max_version);
  }
};

double QuantileUs(const std::vector<double>& sorted_s, double q) {
  if (sorted_s.empty()) return 0.0;
  const double rank = q * (sorted_s.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_s.size() - 1);
  const double frac = rank - lo;
  return (sorted_s[lo] * (1.0 - frac) + sorted_s[hi] * frac) * 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const int requests = static_cast<int>(ArgValue(argc, argv, "--requests", 2000));
  const int clients = std::max(1, static_cast<int>(ArgValue(argc, argv, "--clients", 4)));
  const double rate = ArgValue(argc, argv, "--rate", 0.0);
  const bool predict = HasFlag(argc, argv, "--predict");
  const int64_t deadline_us =
      static_cast<int64_t>(ArgValue(argc, argv, "--deadline-us", 0));
  const int64_t swap_ms = static_cast<int64_t>(ArgValue(argc, argv, "--swap-ms", 0));
  const uint64_t seed = static_cast<uint64_t>(ArgValue(argc, argv, "--seed", 17));

  serve::ServeConfig config;
  config.max_batch = static_cast<int>(ArgValue(argc, argv, "--batch", 32));
  config.batch_window_us =
      static_cast<int64_t>(ArgValue(argc, argv, "--window-us", 200));
  config.queue_capacity = static_cast<int>(ArgValue(argc, argv, "--queue", 1024));
  config.default_deadline_us = deadline_us;

  const int threads = static_cast<int>(
      ArgValue(argc, argv, "--threads", parallel::ConfiguredThreadCount()));
  parallel::ThreadPool pool(threads);
  parallel::GlobalPoolOverride pool_override(&pool);

  namespace kernels = nn::kernels;
  std::cout << "head_serve: " << requests << " " << (predict ? "prediction" : "decision")
            << " requests, "
            << (rate > 0.0 ? "open-loop @" + std::to_string(rate) + " req/s"
                           : std::to_string(clients) + " closed-loop clients")
            << ", max_batch " << config.max_batch << ", window "
            << config.batch_window_us << "us, queue " << config.queue_capacity
            << ", deadline "
            << (deadline_us > 0 ? std::to_string(deadline_us) + "us" : "none")
            << ", swap "
            << (swap_ms > 0 ? "every " + std::to_string(swap_ms) + "ms" : "off")
            << ", " << threads << " threads, kernel "
            << kernels::IsaName(kernels::ActiveIsa()) << "\n";

  serve::ModelSnapshotRegistry registry(Factories(), /*keep=*/2, seed);
  Rng weights_rng(seed);
  rl::BpXNet x(kHidden, kAMax, weights_rng);
  rl::BpQNet q(kHidden, weights_rng);
  const perception::LstGat predictor(perception::LstGatConfig{}, weights_rng);
  registry.Publish(x, q, &predictor);

  serve::DecisionService service(&registry, config);

  // Request payload pools (shared, read-only once built).
  Rng payload_rng(seed + 1);
  std::vector<rl::AugmentedState> states;
  std::vector<perception::StGraph> graphs;
  for (int i = 0; i < 64; ++i) states.push_back(RandomState(payload_rng));
  for (int i = 0; i < 16; ++i) graphs.push_back(RandomGraph(payload_rng));

  // Optional hot-swap publisher: keeps republishing perturbed weights while
  // the load runs, so replies span several model_versions.
  std::atomic<bool> done{false};
  std::thread publisher;
  if (swap_ms > 0) {
    publisher = std::thread([&] {
      Rng swap_rng(seed + 2);
      while (!done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(swap_ms));
        rl::BpXNet fresh_x(kHidden, kAMax, swap_rng);
        rl::BpQNet fresh_q(kHidden, swap_rng);
        registry.Publish(fresh_x, fresh_q, &predictor);
      }
    });
  }

  auto submit_decision = [&](int i) {
    serve::DecisionRequest request;
    request.state = states[i % states.size()];
    return service.SubmitDecision(std::move(request));
  };
  auto submit_prediction = [&](int i) {
    serve::PredictionRequest request;
    request.graph = graphs[i % graphs.size()];
    return service.SubmitPrediction(std::move(request));
  };

  ClientStats stats;
  const double t0 = Now();
  if (rate > 0.0) {
    // Open loop: fixed Poisson arrival schedule, replies drained afterwards.
    Rng arrival_rng(seed + 3);
    std::vector<std::future<serve::DecisionReply>> decision_futures;
    std::vector<std::future<serve::PredictionReply>> prediction_futures;
    double next_arrival = Now();
    for (int i = 0; i < requests; ++i) {
      next_arrival += -std::log(1.0 - arrival_rng.Uniform(0.0, 1.0)) / rate;
      while (Now() < next_arrival) std::this_thread::yield();
      if (predict) {
        prediction_futures.push_back(submit_prediction(i));
      } else {
        decision_futures.push_back(submit_decision(i));
      }
    }
    for (auto& f : decision_futures) {
      const serve::DecisionReply r = f.get();
      stats.Record(r.status, r.latency_s, r.model_version);
    }
    for (auto& f : prediction_futures) {
      const serve::PredictionReply r = f.get();
      stats.Record(r.status, r.latency_s, r.model_version);
    }
  } else {
    // Closed loop: each client thread keeps exactly one request in flight.
    std::vector<ClientStats> per_client(clients);
    std::vector<std::thread> threads_vec;
    threads_vec.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads_vec.emplace_back([&, c] {
        ClientStats& mine = per_client[c];
        const int n = requests / clients + (c < requests % clients ? 1 : 0);
        for (int i = 0; i < n; ++i) {
          if (predict) {
            const serve::PredictionReply r = submit_prediction(c * 7919 + i).get();
            mine.Record(r.status, r.latency_s, r.model_version);
          } else {
            const serve::DecisionReply r = submit_decision(c * 7919 + i).get();
            mine.Record(r.status, r.latency_s, r.model_version);
          }
        }
      });
    }
    for (auto& t : threads_vec) t.join();
    for (const ClientStats& c : per_client) stats.Merge(c);
  }
  const double elapsed = Now() - t0;
  done.store(true, std::memory_order_release);
  if (publisher.joinable()) publisher.join();

  std::sort(stats.latencies_s.begin(), stats.latencies_s.end());
  const obs::HistogramSnapshot batch_hist =
      obs::GetHistogram("serve.batch_size").Snapshot();

  std::cout << "served " << stats.ok << "/" << requests << " ok in " << elapsed
            << "s (" << static_cast<double>(stats.ok) / elapsed << " req/s)\n"
            << "rejected " << stats.rejected << ", deadline_exceeded "
            << stats.deadline << ", shutdown " << stats.shutdown
            << ", unavailable " << stats.unavailable << "\n"
            << "latency p50 " << QuantileUs(stats.latencies_s, 0.50)
            << "us, p90 " << QuantileUs(stats.latencies_s, 0.90) << "us, p95 "
            << QuantileUs(stats.latencies_s, 0.95) << "us, p99 "
            << QuantileUs(stats.latencies_s, 0.99) << "us\n"
            << "batches " << batch_hist.count << " (mean size "
            << batch_hist.Mean() << ")\n"
            << "model versions served: " << stats.min_version << ".."
            << stats.max_version << " (published "
            << registry.current_version() << ")\n";

  const std::string metrics_out = ArgString(argc, argv, "--metrics-out");
  if (!metrics_out.empty()) {
    if (!obs::WriteMetricsJsonFile(metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << "metrics written to " << metrics_out << "\n";
  }
  return 0;
}
