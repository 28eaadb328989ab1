// Episode traces: every step of a policy-driven episode (ego state,
// maneuver, reward terms, neighborhood) as recorded by eval::RunEpisode,
// for offline analysis — CSV export and a terminal renderer for quick
// visual inspection.
#ifndef HEAD_EVAL_TRACE_H_
#define HEAD_EVAL_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "rl/reward.h"
#include "sim/simulation.h"

namespace head::eval {

/// One recorded simulation step.
struct TraceStep {
  double time_s = 0.0;
  VehicleState ego;
  Maneuver maneuver;
  rl::RewardTerms reward;
  int observed_vehicles = 0;
  /// Snapshot of every vehicle within ±120 m of the ego (for rendering).
  std::vector<sim::VehicleSnapshot> nearby;
};

struct EpisodeTrace {
  std::string policy_name;
  uint64_t seed = 0;
  sim::EpisodeStatus final_status = sim::EpisodeStatus::kRunning;
  std::vector<TraceStep> steps;
};

/// Writes the trace as CSV (one row per step; nearby vehicles omitted).
void WriteTraceCsv(const EpisodeTrace& trace, std::ostream& os);

/// Renders one step as an ASCII top-down road strip centered on the ego
/// (`E`; conventional vehicles `o`), one text line per lane.
std::string RenderStep(const TraceStep& step, const RoadConfig& road,
                       double window_m = 60.0);

}  // namespace head::eval

#endif  // HEAD_EVAL_TRACE_H_
