// The common decision-making interface of Table I: every method — the
// traditional baselines, TP-BTS, and HEAD itself — maps the ego's sensor
// view to a maneuver once per Δt.
#ifndef HEAD_DECISION_POLICY_H_
#define HEAD_DECISION_POLICY_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "sim/road.h"

namespace head::rl {
struct RewardConfig;
}  // namespace head::rl

namespace head::decision {

/// What the ego knows at a time step: its own state plus the sensor-filtered
/// snapshots of surrounding conventional vehicles.
struct EgoView {
  VehicleState ego;
  std::vector<sim::VehicleSnapshot> observed;
  double prev_accel_mps2 = 0.0;
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Called when a new episode begins (clears internal history).
  virtual void OnEpisodeStart() {}

  virtual Maneuver Decide(const EgoView& view) = 0;

  /// The Eq. 28 reward this policy was trained under, which the evaluation
  /// runner scores its steps with; nullptr means rl::RewardConfig{}.
  virtual const rl::RewardConfig* reward_config() const { return nullptr; }
};

}  // namespace head::decision

#endif  // HEAD_DECISION_POLICY_H_
