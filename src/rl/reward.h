// The hybrid reward function of Sec. IV-C (Eqs. 28–30): a weighted sum of
// safety (TTC-based), efficiency (normalized speed), comfort (jerk) and
// impact (forced deceleration of the rear conventional vehicle).
#ifndef HEAD_RL_REWARD_H_
#define HEAD_RL_REWARD_H_

#include <optional>

#include "common/types.h"
#include "sim/simulation.h"

namespace head::rl {

struct RewardWeights {
  double safety = 0.9;      ///< w1 (best of the Table VII grid search)
  double efficiency = 0.8;  ///< w2
  double comfort = 0.6;     ///< w3
  double impact = 0.2;      ///< w4
};

struct RewardConfig {
  RewardWeights weights;
  double ttc_scale_s = 4.0;        ///< scaling threshold 𝒢 (paper Sec. V-A)
  double impact_v_thr_mps = 0.5;   ///< v_thr for the impact term
  bool use_impact = true;          ///< false = HEAD-w/o-IMP ablation
};

/// Everything the reward needs about the transition (ground truth from the
/// simulator after the action was applied).
struct RewardObservation {
  bool collision = false;          ///< vehicle crash or boundary hit
  VehicleState ego_next;           ///< A^{t+1}
  /// Front conventional vehicle C_2 at t+1 (nullopt ⇒ no real front vehicle;
  /// phantom TTC is masked, Eq. 29).
  std::optional<VehicleState> front_next;
  /// Rear conventional vehicle C_5 velocities at t and t+1 (same vehicle);
  /// nullopt ⇒ no real rear vehicle (impact masked, Eq. 30).
  std::optional<double> rear_v_now_mps;
  std::optional<double> rear_v_next_mps;
  double accel_now_mps2 = 0.0;   ///< A^t.a
  double accel_prev_mps2 = 0.0;  ///< A^{t−1}.a
};

/// The conventional vehicle directly behind the ego (C_5), or nullopt.
/// Taken once at episode start; ObserveTransition carries it from there.
std::optional<sim::VehicleSnapshot> RearVehicle(const sim::Simulation& sim);

/// Builds the transition's reward observation from the simulator state just
/// after sim.Step and `*rear`, the follower just before it; then sets `*rear`
/// to the follower just after it, which is the next step's (nothing moves
/// the simulation between steps), so one RoadView per step serves both. The
/// one place any loop derives the front/rear vehicles the reward sees, so
/// training and evaluation score a step identically.
RewardObservation ObserveTransition(
    const sim::Simulation& sim, std::optional<sim::VehicleSnapshot>* rear,
    double accel_now_mps2, double accel_prev_mps2);

struct RewardTerms {
  double safety = 0.0;      ///< r1 ∈ [−3, 0]
  double efficiency = 0.0;  ///< r2 ∈ [0, 1]
  double comfort = 0.0;     ///< r3 ∈ [−1, 0]
  double impact = 0.0;      ///< r4 ∈ [−1, 0]
  double total = 0.0;       ///< Eq. (28)
};

/// Time-to-collision with the front vehicle (Eq. 29's precondition):
/// d_lon / closing speed, or nullopt when not closing.
std::optional<double> TimeToCollision(const VehicleState& front,
                                      const VehicleState& ego);

class RewardFunction {
 public:
  explicit RewardFunction(const RewardConfig& config, const RoadConfig& road)
      : config_(config), road_(road) {}

  RewardTerms Compute(const RewardObservation& obs) const;

  const RewardConfig& config() const { return config_; }

 private:
  RewardConfig config_;
  RoadConfig road_;
};

}  // namespace head::rl

#endif  // HEAD_RL_REWARD_H_
