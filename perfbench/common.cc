#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "common/rng.h"
#include "nn/kernels/simd.h"
#include "nn/plan.h"
#include "parallel/thread_pool.h"
#include "sensor/sensor_model.h"
#include "sim/scenario.h"

namespace perfbench {

namespace hd = head;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2.0;
}

void StampRun(int pool_threads, Result* result) {
  namespace kernels = hd::nn::kernels;
  result->stamp["nproc"] = std::to_string(hd::parallel::HardwareThreads());
  result->stamp["pool_threads"] = std::to_string(pool_threads);
  result->stamp["kernel_isa"] = kernels::IsaName(kernels::ActiveIsa());
  result->stamp["cpu"] = kernels::CpuCapabilityString();
  result->stamp["fast_math"] = kernels::FastMathEnabled() ? "on" : "off";
  result->stamp["plans"] = hd::nn::PlansEnabled() ? "on" : "off";
}

hd::sim::SimConfig DriveScenario() { return hd::sim::DenseTrafficScenario(); }

HeadModels MakeHeadModels(const hd::sim::SimConfig& sim, uint64_t seed) {
  HeadModels models;
  models.config.road = sim.road;
  models.config.pdqn.a_max = sim.road.a_max_mps2;
  hd::Rng rng(hd::SplitMix(seed, 0x4ead));
  models.predictor = std::make_shared<hd::perception::LstGat>(
      models.config.lst_gat, rng);
  models.agent = hd::rl::MakeBpDqnAgent(models.config.pdqn, rng);
  return models;
}

SceneStream::SceneStream(const hd::sim::SimConfig& sim, uint64_t seed)
    : config_(sim),
      seed_(seed),
      sim_(std::make_unique<hd::sim::Simulation>(config_,
                                                 hd::SplitMix(seed, 0))),
      baseline_(hd::decision::RuleBasedConfig::ForRoad(sim.road)) {
  baseline_.OnEpisodeStart();
  Observe();
}

void SceneStream::Observe() {
  view_.ego = sim_->ego_state();
  view_.observed = hd::sensor::Observe(sim_->GlobalSnapshot(), view_.ego,
                                       sensor_, config_.road);
}

hd::Maneuver SceneStream::BaselineManeuver() {
  return baseline_.Decide(view_);
}

bool SceneStream::Advance(const hd::Maneuver& maneuver) {
  double step_s = 0.0;
  double observe_s = 0.0;
  return AdvanceTimed(maneuver, &step_s, &observe_s);
}

bool SceneStream::AdvanceTimed(const hd::Maneuver& maneuver, double* step_s,
                               double* observe_s) {
  const double t0 = NowS();
  const hd::sim::EpisodeStatus status = sim_->Step(maneuver);
  const double t1 = NowS();
  bool restarted = false;
  if (status != hd::sim::EpisodeStatus::kRunning) {
    sim_->Reset(hd::SplitMix(seed_, ++episode_));
    baseline_.OnEpisodeStart();
    restarted = true;
  }
  const double t2 = NowS();
  Observe();
  view_.prev_accel_mps2 = restarted ? 0.0 : maneuver.accel_mps2;
  *step_s = t1 - t0;
  *observe_s = NowS() - t2;
  return restarted;
}

}  // namespace perfbench
