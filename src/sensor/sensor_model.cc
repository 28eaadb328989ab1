#include "sensor/sensor_model.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/span.h"
#include "sensor/occlusion.h"

namespace head::sensor {

bool IsVisible(const VehicleState& ego, const sim::VehicleSnapshot& target,
               const std::vector<sim::VehicleSnapshot>& others,
               const SensorConfig& sensor, const RoadConfig& road) {
  const double dx = DLon(target.state, ego);
  const double dy = DLat(target.state, ego, road.lane_width_m);
  if (dx * dx + dy * dy > sensor.range_m * sensor.range_m) return false;
  if (!sensor.model_occlusion) return true;
  for (const sim::VehicleSnapshot& blocker : others) {
    if (blocker.id == target.id || blocker.id == kEgoVehicleId) continue;
    // Blockers further away than the target along the sight line cannot
    // occlude it; Occludes() handles that through the segment test.
    if (Occludes(ego, target.state, blocker.state, road.lane_width_m)) {
      return false;
    }
  }
  return true;
}

std::vector<sim::VehicleSnapshot> Observe(
    const std::vector<sim::VehicleSnapshot>& global_snapshot,
    const VehicleState& ego, const SensorConfig& sensor,
    const RoadConfig& road) {
  HEAD_SPAN("sensor.observe");
  static obs::Counter& observations = obs::GetCounter("sensor.observations");
  observations.Add();
  // A sight line is at most range_m long, so only vehicles within range_m
  // plus one body length of the ego, lengthwise, can be in range or block
  // one. They are the candidate targets and blockers, in snapshot order.
  thread_local std::vector<sim::VehicleSnapshot> band;
  band.clear();
  const double reach = sensor.range_m + kVehicleLengthM;
  for (const sim::VehicleSnapshot& v : global_snapshot) {
    if (v.id != kEgoVehicleId && std::fabs(DLon(v.state, ego)) <= reach) {
      band.push_back(v);
    }
  }
  std::vector<sim::VehicleSnapshot> out;
  for (const sim::VehicleSnapshot& v : band) {
    if (IsVisible(ego, v, band, sensor, road)) out.push_back(v);
  }
  return out;
}

}  // namespace head::sensor
