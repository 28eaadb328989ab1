// Onboard-sensor simulation: filters the ground-truth snapshot down to what
// the ego can actually perceive — limited detection radius R plus geometric
// occlusion. The paper simulates the same limitations on top of SUMO's
// global state ("we use the geometry [66]", Sec. V-A).
#ifndef HEAD_SENSOR_SENSOR_MODEL_H_
#define HEAD_SENSOR_SENSOR_MODEL_H_

#include <vector>

#include "common/types.h"
#include "sim/road.h"

namespace head::sensor {

struct SensorConfig {
  double range_m = 100.0;      ///< detection radius R (paper Sec. V-A)
  bool model_occlusion = true; ///< line-of-sight shadowing by other vehicles
};

/// Conventional vehicles visible to the ego at this instant, in snapshot
/// order. The ego itself (id 0) is never part of the output. Only vehicles
/// within range_m + one vehicle length of the ego, lengthwise, are tested
/// as blockers: no other vehicle can cross a sight line of length range_m.
std::vector<sim::VehicleSnapshot> Observe(
    const std::vector<sim::VehicleSnapshot>& global_snapshot,
    const VehicleState& ego, const SensorConfig& sensor,
    const RoadConfig& road);

/// True iff `target` is within range and unobstructed for an ego at `ego`.
/// `others` are potential blockers (entries equal to target/ego are skipped).
bool IsVisible(const VehicleState& ego, const sim::VehicleSnapshot& target,
               const std::vector<sim::VehicleSnapshot>& others,
               const SensorConfig& sensor, const RoadConfig& road);

}  // namespace head::sensor

#endif  // HEAD_SENSOR_SENSOR_MODEL_H_
