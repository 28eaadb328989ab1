#include "eval/trace.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace head::eval {

void WriteTraceCsv(const EpisodeTrace& trace, std::ostream& os) {
  os << "time_s,lane,lon_m,v_mps,lane_change,accel_mps2,"
        "r_safety,r_efficiency,r_comfort,r_impact,r_total,observed\n";
  for (const TraceStep& s : trace.steps) {
    os << s.time_s << "," << s.ego.lane << "," << s.ego.lon_m << ","
       << s.ego.v_mps << "," << ToString(s.maneuver.lane_change) << ","
       << s.maneuver.accel_mps2 << "," << s.reward.safety << ","
       << s.reward.efficiency << "," << s.reward.comfort << ","
       << s.reward.impact << "," << s.reward.total << ","
       << s.observed_vehicles << "\n";
  }
}

std::string RenderStep(const TraceStep& step, const RoadConfig& road,
                       double window_m) {
  HEAD_CHECK_GT(window_m, 0.0);
  const int width = 61;  // odd so the ego sits on the center column
  const double meters_per_col = 2.0 * window_m / (width - 1);
  std::vector<std::string> rows(road.num_lanes, std::string(width, '.'));

  auto put = [&](const VehicleState& v, char symbol) {
    if (!road.IsValidLane(v.lane)) return;
    const double d = DLon(v, step.ego);
    if (std::fabs(d) > window_m) return;
    const int col = static_cast<int>(
        std::lround((d + window_m) / meters_per_col));
    rows[v.lane - 1][std::clamp(col, 0, width - 1)] = symbol;
  };
  for (const sim::VehicleSnapshot& v : step.nearby) {
    if (v.id != kEgoVehicleId) put(v.state, 'o');
  }
  put(step.ego, 'E');

  std::ostringstream os;
  os << "t=" << step.time_s << "s  v=" << step.ego.v_mps << "m/s  a="
     << step.maneuver.accel_mps2 << "  " << ToString(step.maneuver.lane_change)
     << "  r=" << step.reward.total << "\n";
  for (int lane = 0; lane < road.num_lanes; ++lane) {
    os << "lane " << lane + 1 << " |" << rows[lane] << "|\n";
  }
  return os.str();
}

}  // namespace head::eval
