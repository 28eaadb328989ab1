#include "eval/episode_runner.h"

#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "obs/recorder.h"
#include "obs/span.h"
#include "rl/reward.h"

namespace head::eval {

namespace {

/// Trace steps keep every vehicle within this distance of the ego.
constexpr double kTraceNearbyWindowM = 120.0;

struct FollowerStat {
  double sum_v = 0.0;
  long steps = 0;
  bool qualified = false;
};

}  // namespace

EpisodeRecord RunEpisode(decision::Policy& policy, const RunnerConfig& config,
                         uint64_t seed, int episode_index,
                         EpisodeTrace* trace) {
  if (obs::RecordingEnabled()) {
    obs::EpisodeContext ctx;
    ctx.scenario = config.scenario_name;
    ctx.policy = policy.name();
    ctx.seed = seed;
    ctx.episode_index = episode_index;
    obs::BeginEpisode(ctx);
  }
  if (trace != nullptr) {
    *trace = EpisodeTrace{};
    trace->policy_name = policy.name();
    trace->seed = seed;
  }

  sim::Simulation sim(config.sim, seed);
  // The Eq. 28 reward the policy's training env would have given each step;
  // baseline policies compute none themselves. Feeds traces and dumps.
  const rl::RewardConfig* trained_reward = policy.reward_config();
  const rl::RewardFunction reward_fn(
      trained_reward != nullptr ? *trained_reward : rl::RewardConfig{},
      config.sim.road);
  // Rear conventional vehicle (for #-CA / D-CA and Eq. 30) before each step.
  std::optional<sim::VehicleSnapshot> rear = rl::RearVehicle(sim);
  policy.OnEpisodeStart();

  EpisodeRecord rec;
  double prev_accel = 0.0;
  double sum_v = 0.0;
  double sum_jerk = 0.0;
  long steps = 0;
  double min_ttc = std::numeric_limits<double>::infinity();
  double rear_decel_sum = 0.0;
  long rear_decel_steps = 0;
  std::unordered_map<VehicleId, FollowerStat> followers;

  while (sim.status() == sim::EpisodeStatus::kRunning) {
    HEAD_SPAN("episode.step");
    const VehicleState ego_before = sim.ego_state();

    // The policy only sees the sensor output.
    decision::EgoView view;
    view.ego = ego_before;
    view.observed = sensor::Observe(sim.GlobalSnapshot(), ego_before,
                                    config.sensor, config.sim.road);
    view.prev_accel_mps2 = prev_accel;
    const Maneuver maneuver = policy.Decide(view);

    sim.Step(maneuver);
    ++steps;

    const VehicleState ego_after = sim.ego_state();
    const rl::RewardObservation robs = rl::ObserveTransition(
        sim, &rear, maneuver.accel_mps2, prev_accel);
    // The scratch already holds perception + decision fills from
    // policy.Decide and the ego outcome from sim.Step; Compute adds the
    // reward decomposition, then the record is sealed.
    const rl::RewardTerms reward = reward_fn.Compute(robs);
    if (obs::RecordingEnabled()) obs::CommitStepRecord();

    if (trace != nullptr) {
      TraceStep& step = trace->steps.emplace_back();
      step.time_s = sim.time_s();
      step.ego = ego_after;
      step.maneuver = maneuver;
      step.reward = reward;
      step.observed_vehicles = static_cast<int>(view.observed.size());
      for (const sim::VehicleSnapshot& v : sim.GlobalSnapshot()) {
        if (std::fabs(DLon(v.state, ego_after)) <= kTraceNearbyWindowM) {
          step.nearby.push_back(v);
        }
      }
    }

    sum_v += ego_after.v_mps;
    sum_jerk += std::fabs(maneuver.accel_mps2 - prev_accel);
    prev_accel = maneuver.accel_mps2;

    // TTC with the front vehicle after the step.
    if (robs.front_next.has_value()) {
      const std::optional<double> ttc =
          rl::TimeToCollision(*robs.front_next, ego_after);
      if (ttc.has_value()) min_ttc = std::min(min_ttc, *ttc);
    }

    // Rear-vehicle impact.
    if (robs.rear_v_next_mps.has_value()) {
      const double drop = *robs.rear_v_now_mps - *robs.rear_v_next_mps;
      if (drop > 0.5) ++rec.rear_decel_events;
      if (drop > 0.0) {
        rear_decel_sum += drop;
        ++rear_decel_steps;
      }
    }

    // Follower statistics for AvgDT-C.
    for (const sim::Vehicle& v : sim.conventional_vehicles()) {
      const double lon = v.state.lon_m;
      if (lon < 0.0 || lon > config.sim.road.length_m) continue;
      FollowerStat& stat = followers[v.id];
      stat.sum_v += v.state.v_mps;
      ++stat.steps;
      const double d = lon - ego_after.lon_m;
      if (d < 0.0 && d > -config.follower_window_m) stat.qualified = true;
    }
  }

  if (obs::RecordingEnabled()) {
    obs::EndEpisode(sim::ToEpisodeEnd(sim.status()));
  }
  if (trace != nullptr) trace->final_status = sim.status();

  rec.completed = sim.status() == sim::EpisodeStatus::kReachedDestination;
  rec.collided = sim.status() == sim::EpisodeStatus::kCollision;
  rec.driving_time_s = sim.time_s();
  rec.mean_v_mps = steps > 0 ? sum_v / steps : 0.0;
  rec.mean_jerk_mps2 = steps > 0 ? sum_jerk / steps : 0.0;
  rec.min_ttc_s = std::isfinite(min_ttc) ? min_ttc : -1.0;
  rec.mean_rear_decel_mps =
      rear_decel_steps > 0 ? rear_decel_sum / rear_decel_steps : -1.0;

  double dt_c_sum = 0.0;
  for (const auto& [id, stat] : followers) {
    if (!stat.qualified || stat.steps < config.min_follower_steps) continue;
    const double mean_v = stat.sum_v / stat.steps;
    if (mean_v < 0.5) continue;
    dt_c_sum += config.sim.road.length_m / mean_v;
    ++rec.followers;
  }
  rec.mean_follower_dt_s = rec.followers > 0 ? dt_c_sum / rec.followers : 0.0;
  return rec;
}

AggregateMetrics RunPolicy(decision::Policy& policy,
                           const RunnerConfig& config) {
  std::vector<EpisodeRecord> records;
  records.reserve(config.episodes);
  for (int ep = 0; ep < config.episodes; ++ep) {
    records.push_back(RunEpisode(policy, config, config.seed_base + ep, ep));
  }
  return AggregateMetrics::FromRecords(records);
}

}  // namespace head::eval
