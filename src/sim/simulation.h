// The microscopic traffic simulation engine — the project's SUMO substitute.
// One ego (externally controlled through Step(maneuver), mirroring TraCI) and
// a fleet of conventional vehicles driven by IDM/ACC/Krauss + MOBIL lane
// changes. Advances in Δt ticks; detects ego collisions (vehicle crash or
// road-boundary hit) and arrival at the destination.
#ifndef HEAD_SIM_SIMULATION_H_
#define HEAD_SIM_SIMULATION_H_

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/recorder.h"
#include "sim/road.h"
#include "sim/spawner.h"
#include "sim/vehicle.h"

namespace head::sim {

struct SimConfig {
  RoadConfig road;
  SpawnConfig spawn;
  /// Lane-change cooldown for conventional drivers, in steps.
  int lane_change_cooldown_steps = 4;
  /// Ego initial speed; lane is drawn uniformly at Reset.
  double ego_init_speed_mps = 15.0;
  /// Hard episode cap (steps) as a divergence guard.
  int max_steps = 4000;
  /// Static obstacles added to every episode (lane closures, stalled
  /// vehicles — see sim/scenario.h). Ids are reassigned on Reset.
  std::vector<Vehicle> static_obstacles;
};

enum class EpisodeStatus {
  kRunning,
  kReachedDestination,
  kCollision,
  kTimeout,
};

const char* ToString(EpisodeStatus s);

/// Maps the sim status onto the flight recorder's layer-neutral outcome.
obs::EpisodeEnd ToEpisodeEnd(EpisodeStatus s);

class Simulation {
 public:
  /// Builds and immediately resets to a fresh episode derived from `seed`.
  Simulation(const SimConfig& config, uint64_t seed);

  /// Starts a new episode: fresh fleet, ego at the origin on a random lane.
  void Reset(uint64_t seed);

  const SimConfig& config() const { return config_; }
  EpisodeStatus status() const { return status_; }
  int step_count() const { return step_count_; }
  double time_s() const { return step_count_ * config_.road.dt_s; }

  const VehicleState& ego_state() const { return ego_.state; }
  const std::vector<Vehicle>& conventional_vehicles() const { return fleet_; }

  /// Ground-truth snapshot of every vehicle (ego id 0 included) — what an
  /// oracle would see; the sensor model filters this.
  std::vector<VehicleSnapshot> GlobalSnapshot() const;

  /// Indexed view over GlobalSnapshot().
  RoadView View() const;

  /// Advances one Δt with the given ego maneuver. No-op once terminal.
  EpisodeStatus Step(const Maneuver& ego_maneuver);

  /// Acceleration each conventional vehicle applied during the last Step
  /// (parallel to conventional_vehicles()); empty before the first step.
  const std::vector<double>& last_conventional_accels() const {
    return last_accels_;
  }

 private:
  double ConventionalAccel(const Vehicle& v, const RoadView& view);
  void ApplyLaneChanges(const Maneuver& ego_maneuver);
  bool EgoCollided(double ego_prev_lon,
                   const std::vector<double>& prev_lons) const;

  SimConfig config_;
  Rng rng_;
  Vehicle ego_;  // id 0; params unused (externally controlled)
  std::vector<Vehicle> fleet_;
  std::vector<double> last_accels_;
  EpisodeStatus status_ = EpisodeStatus::kRunning;
  int step_count_ = 0;
};

}  // namespace head::sim

#endif  // HEAD_SIM_SIMULATION_H_
