#include "sim/simulation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/acc.h"
#include "sim/idm.h"
#include "sim/krauss.h"
#include "sim/lane_change.h"

namespace head::sim {

const char* ToString(EpisodeStatus s) {
  switch (s) {
    case EpisodeStatus::kRunning:
      return "running";
    case EpisodeStatus::kReachedDestination:
      return "reached_destination";
    case EpisodeStatus::kCollision:
      return "collision";
    case EpisodeStatus::kTimeout:
      return "timeout";
  }
  return "?";
}

obs::EpisodeEnd ToEpisodeEnd(EpisodeStatus s) {
  switch (s) {
    case EpisodeStatus::kRunning:
      return obs::EpisodeEnd::kRunning;
    case EpisodeStatus::kReachedDestination:
      return obs::EpisodeEnd::kArrived;
    case EpisodeStatus::kCollision:
      return obs::EpisodeEnd::kCollision;
    case EpisodeStatus::kTimeout:
      return obs::EpisodeEnd::kTimeout;
  }
  return obs::EpisodeEnd::kRunning;
}

Simulation::Simulation(const SimConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {
  HEAD_CHECK_GT(config_.road.num_lanes, 0);
  HEAD_CHECK_GT(config_.road.length_m, 0.0);
  Reset(seed);
}

void Simulation::Reset(uint64_t seed) {
  HEAD_SPAN("sim.reset");  // fleet respawn, nested under the episode scope
  rng_ = Rng(seed);
  status_ = EpisodeStatus::kRunning;
  step_count_ = 0;
  last_accels_.clear();

  ego_.id = kEgoVehicleId;
  ego_.state.lane = rng_.UniformInt(1, config_.road.num_lanes);
  ego_.state.lon_m = 0.0;
  ego_.state.v_mps = std::clamp(config_.ego_init_speed_mps,
                                config_.road.v_min_mps,
                                config_.road.v_max_mps);
  fleet_ = SpawnInitialTraffic(config_.road, config_.spawn, ego_.state.lane,
                               ego_.state.lon_m, rng_);
  // Static obstacles: clear any spawned vehicle overlapping them, then
  // append with fresh ids.
  VehicleId next_id = 1;
  for (const Vehicle& v : fleet_) next_id = std::max(next_id, v.id + 1);
  for (Vehicle obstacle : config_.static_obstacles) {
    obstacle.id = next_id++;
    obstacle.stationary = true;
    std::erase_if(fleet_, [&](const Vehicle& v) {
      return v.state.lane == obstacle.state.lane &&
             std::fabs(v.state.lon_m - obstacle.state.lon_m) <
                 3.0 * kVehicleLengthM;
    });
    fleet_.push_back(std::move(obstacle));
  }
}

std::vector<VehicleSnapshot> Simulation::GlobalSnapshot() const {
  std::vector<VehicleSnapshot> out;
  out.reserve(fleet_.size() + 1);
  out.push_back({ego_.id, ego_.state});
  for (const Vehicle& v : fleet_) out.push_back({v.id, v.state});
  return out;
}

RoadView Simulation::View() const { return RoadView(GlobalSnapshot()); }

double Simulation::ConventionalAccel(const Vehicle& v, const RoadView& view) {
  const VehicleSnapshot* leader =
      view.Leader(v.state.lane, v.state.lon_m, v.id);
  const double gap =
      leader != nullptr ? Gap(leader->state.lon_m, v.state.lon_m) : 1e9;
  const double leader_v =
      leader != nullptr ? leader->state.v_mps : v.state.v_mps;
  const double dv = v.state.v_mps - leader_v;
  double a = 0.0;
  switch (v.model) {
    case CarFollowModel::kIdm:
      a = IdmAccel(v.params, v.state.v_mps, gap, dv);
      break;
    case CarFollowModel::kAcc: {
      AccGains gains;
      a = AccAccel(v.params, gains, v.state.v_mps, gap, dv);
      break;
    }
    case CarFollowModel::kKrauss:
      a = KraussAccel(v.params, v.state.v_mps, leader_v, gap,
                      config_.road.dt_s, rng_);
      break;
  }
  return std::clamp(a, -config_.road.a_max_mps2, config_.road.a_max_mps2);
}

void Simulation::ApplyLaneChanges(const Maneuver& ego_maneuver) {
  // Ego first: its lane change is part of the externally decided maneuver.
  ego_.state.lane += LaneDelta(ego_maneuver.lane_change);

  if (!config_.conventional_lane_changes) return;

  // All conventional changes are decided against one post-ego-change
  // snapshot (simultaneous decisions, as in SUMO's sub-steps), then
  // proposals that would merge into the same gap are conflict-resolved by
  // keeping only the front-most vehicle.
  const RoadView view = View();
  struct Proposal {
    size_t index;
    int target_lane;
    double lon;
  };
  std::vector<Proposal> proposals;
  for (size_t i = 0; i < fleet_.size(); ++i) {
    Vehicle& v = fleet_[i];
    if (v.stationary) continue;
    if (v.lane_change_cooldown > 0) {
      --v.lane_change_cooldown;
      continue;
    }
    // Beyond the destination nothing interacts with the ego anymore.
    if (v.state.lon_m > config_.road.length_m + 50.0) continue;
    const std::optional<LaneChange> change = MobilDecide(view, v, config_.road);
    if (change.has_value()) {
      proposals.push_back(
          {i, v.state.lane + LaneDelta(*change), v.state.lon_m});
    }
  }
  std::sort(proposals.begin(), proposals.end(),
            [](const Proposal& a, const Proposal& b) {
              if (a.target_lane != b.target_lane) {
                return a.target_lane < b.target_lane;
              }
              return a.lon > b.lon;  // front-most first
            });
  constexpr double kConflictGapM = 2.0 * kVehicleLengthM;
  double last_lon = 1e18;
  int last_lane = -1;
  for (const Proposal& p : proposals) {
    if (p.target_lane == last_lane && last_lon - p.lon < kConflictGapM) {
      continue;  // would merge into the slot just taken
    }
    Vehicle& v = fleet_[p.index];
    v.state.lane = p.target_lane;
    v.lane_change_cooldown = config_.lane_change_cooldown_steps;
    last_lane = p.target_lane;
    last_lon = p.lon;
  }
}

bool Simulation::EgoCollided(double ego_prev_lon,
                             const std::vector<double>& prev_lons) const {
  if (!config_.road.IsValidLane(ego_.state.lane)) return true;  // boundary hit
  for (size_t i = 0; i < fleet_.size(); ++i) {
    const Vehicle& v = fleet_[i];
    if (v.state.lane != ego_.state.lane) continue;
    const double d_now = v.state.lon_m - ego_.state.lon_m;
    if (std::fabs(d_now) < kVehicleLengthM) return true;
    // Tunneling guard: relative position sign flipped within the step.
    const double d_prev = prev_lons[i] - ego_prev_lon;
    if (d_prev * d_now < 0.0) return true;
  }
  return false;
}

EpisodeStatus Simulation::Step(const Maneuver& ego_maneuver) {
  if (status_ != EpisodeStatus::kRunning) return status_;
  static obs::Counter& steps_counter = obs::GetCounter("sim.steps");
  static obs::Histogram& step_latency = obs::LatencyHistogram("sim.step");
  HEAD_SPAN("sim.step", step_latency);
  steps_counter.Add();

  if (std::fabs(ego_maneuver.accel_mps2) > config_.road.a_max_mps2) {
    HEAD_LOG_EVERY_N(Warning, 200)
        << "ego accel " << ego_maneuver.accel_mps2
        << " m/s^2 exceeds road a_max " << config_.road.a_max_mps2
        << "; kinematics will clamp it";
  }

  const double ego_prev_lon = ego_.state.lon_m;
  std::vector<double> prev_lons(fleet_.size());
  for (size_t i = 0; i < fleet_.size(); ++i) {
    prev_lons[i] = fleet_[i].state.lon_m;
  }

  // Phase 1: lateral moves (ego maneuver + MOBIL for conventional fleet).
  ApplyLaneChanges(ego_maneuver);

  // Phase 2: longitudinal accelerations against the post-change layout.
  const RoadView view = View();
  last_accels_.resize(fleet_.size());
  for (size_t i = 0; i < fleet_.size(); ++i) {
    last_accels_[i] =
        fleet_[i].stationary ? 0.0 : ConventionalAccel(fleet_[i], view);
  }

  // Phase 3: integrate.
  const Maneuver keep_lane_only{LaneChange::kKeep, ego_maneuver.accel_mps2};
  ego_.state = StepKinematics(ego_.state, keep_lane_only, config_.road);
  for (size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_[i].stationary) continue;
    fleet_[i].state = StepKinematics(
        fleet_[i].state, Maneuver{LaneChange::kKeep, last_accels_[i]},
        config_.road);
  }

  ++step_count_;

  // Phase 4: episode termination.
  if (EgoCollided(ego_prev_lon, prev_lons)) {
    status_ = EpisodeStatus::kCollision;
  } else if (ego_.state.lon_m >= config_.road.length_m) {
    status_ = EpisodeStatus::kReachedDestination;
  } else if (step_count_ >= config_.max_steps) {
    status_ = EpisodeStatus::kTimeout;
  }

  if (obs::RecordingEnabled()) {
    // The flight recorder's view of the applied maneuver and its immediate
    // outcome; perception/decision layers fill their slices upstream and the
    // step loop commits downstream.
    obs::StepRecord& rec = obs::ScratchRecord();
    rec.step = step_count_;
    rec.time_s = time_s();
    rec.ego_lane = ego_.state.lane;
    rec.ego_lon_m = ego_.state.lon_m;
    rec.ego_v_mps = ego_.state.v_mps;
    rec.lane_change = static_cast<int8_t>(LaneDelta(ego_maneuver.lane_change));
    rec.accel_mps2 = ego_maneuver.accel_mps2;
    rec.end = ToEpisodeEnd(status_);
  }
  return status_;
}

}  // namespace head::sim
