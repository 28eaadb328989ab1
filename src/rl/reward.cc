#include "rl/reward.h"

#include <algorithm>
#include <cmath>

#include "obs/recorder.h"

namespace head::rl {

std::optional<double> TimeToCollision(const VehicleState& front,
                                      const VehicleState& ego) {
  const double closing = ego.v_mps - front.v_mps;  // −v(C2, A)
  if (closing <= 0.0) return std::nullopt;         // not approaching
  const double d = DLon(front, ego);
  if (d < 0.0) return std::nullopt;
  return d / closing;
}

std::optional<sim::VehicleSnapshot> RearVehicle(const sim::Simulation& sim) {
  const sim::RoadView view = sim.View();
  const VehicleState& ego = sim.ego_state();
  const sim::VehicleSnapshot* rear =
      view.Follower(ego.lane, ego.lon_m, kEgoVehicleId);
  if (rear == nullptr) return std::nullopt;
  return *rear;
}

RewardObservation ObserveTransition(
    const sim::Simulation& sim,
    const std::optional<sim::VehicleSnapshot>& rear_before,
    double accel_now_mps2, double accel_prev_mps2) {
  RewardObservation obs;
  obs.collision = sim.status() == sim::EpisodeStatus::kCollision;
  obs.ego_next = sim.ego_state();
  obs.accel_now_mps2 = accel_now_mps2;
  obs.accel_prev_mps2 = accel_prev_mps2;
  {
    // The view must outlive the Leader() pointer into it.
    const sim::RoadView view = sim.View();
    const sim::VehicleSnapshot* front =
        view.Leader(obs.ego_next.lane, obs.ego_next.lon_m, kEgoVehicleId);
    if (front != nullptr) obs.front_next = front->state;
  }
  if (rear_before.has_value()) {
    obs.rear_v_now_mps = rear_before->state.v_mps;
    // Track the same vehicle after the step (it may have changed lanes or
    // fallen out of being "the" follower — what matters is its slowdown).
    for (const sim::Vehicle& v : sim.conventional_vehicles()) {
      if (v.id == rear_before->id) {
        obs.rear_v_next_mps = v.state.v_mps;
        break;
      }
    }
  }
  return obs;
}

RewardTerms RewardFunction::Compute(const RewardObservation& obs) const {
  RewardTerms r;

  // Safety (Eq. 29).
  if (obs.collision) {
    r.safety = -3.0;
  } else if (obs.front_next.has_value()) {
    const std::optional<double> ttc =
        TimeToCollision(*obs.front_next, obs.ego_next);
    if (ttc.has_value() && *ttc < config_.ttc_scale_s) {
      r.safety = std::max(
          -3.0, std::log(std::max(*ttc, 1e-9) / config_.ttc_scale_s));
    }
  }

  // Efficiency.
  r.efficiency = (obs.ego_next.v_mps - road_.v_min_mps) /
                 (road_.v_max_mps - road_.v_min_mps);
  r.efficiency = std::clamp(r.efficiency, 0.0, 1.0);

  // Comfort (jerk proxy |a^t − a^{t−1}| / 2a').
  r.comfort = -std::fabs(obs.accel_now_mps2 - obs.accel_prev_mps2) /
              (2.0 * road_.a_max_mps2);

  // Impact (Eq. 30) — only when the rear conventional vehicle decelerated
  // by more than v_thr across the step.
  if (config_.use_impact && obs.rear_v_now_mps.has_value() &&
      obs.rear_v_next_mps.has_value()) {
    const double drop = *obs.rear_v_now_mps - *obs.rear_v_next_mps;
    if (drop > config_.impact_v_thr_mps) {
      r.impact = std::max(-1.0, -drop / (2.0 * road_.a_max_mps2 * road_.dt_s));
    }
  }

  const RewardWeights& w = config_.weights;
  r.total = w.safety * r.safety + w.efficiency * r.efficiency +
            w.comfort * r.comfort +
            (config_.use_impact ? w.impact * r.impact : 0.0);

  if (obs::RecordingEnabled()) {
    // Flight recorder: the reward decomposition + the TTC the safety term
    // saw (the impact-risk trigger watches this field).
    obs::StepRecord& rec = obs::ScratchRecord();
    rec.r_safety = r.safety;
    rec.r_efficiency = r.efficiency;
    rec.r_comfort = r.comfort;
    rec.r_impact = r.impact;
    rec.r_total = r.total;
    rec.has_reward = 1;
    if (!obs.collision && obs.front_next.has_value()) {
      const std::optional<double> ttc =
          TimeToCollision(*obs.front_next, obs.ego_next);
      rec.ttc_s = ttc.has_value() ? *ttc : -1.0;
    }
  }
  return r;
}

}  // namespace head::rl
