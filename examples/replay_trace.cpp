// Trace & replay: records a full episode of a chosen policy in a chosen
// scenario, writes the per-step CSV, and replays a few frames as an ASCII
// top-down view of the road around the ego.
//
//   ./build/examples/replay_trace [scenario] [seed]
//   scenarios: paper | dense | bottleneck | stop_and_go
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "decision/idm_lc.h"
#include "eval/episode_runner.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace head;

  const std::string scenario = argc > 1 ? argv[1] : "bottleneck";
  const uint64_t seed = argc > 2 ? std::atoll(argv[2]) : 99;

  eval::RunnerConfig config;
  config.sim = sim::ScenarioByName(scenario);
  config.sim.road.length_m = std::min(config.sim.road.length_m, 800.0);

  decision::IdmLcPolicy policy(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  std::printf("recording one %s episode of %s (seed %llu)...\n",
              scenario.c_str(), policy.name().c_str(),
              static_cast<unsigned long long>(seed));
  eval::EpisodeTrace trace;
  eval::RunEpisode(policy, config, seed, /*episode_index=*/0, &trace);
  std::printf("episode %s after %.1fs (%zu steps)\n",
              ToString(trace.final_status),
              trace.steps.empty() ? 0.0 : trace.steps.back().time_s,
              trace.steps.size());

  const std::string csv_path = "trace_" + scenario + ".csv";
  std::ofstream csv(csv_path);
  eval::WriteTraceCsv(trace, csv);
  std::printf("per-step CSV written to %s\n\n", csv_path.c_str());

  // Replay a handful of frames spread across the episode.
  const size_t n = trace.steps.size();
  for (size_t k = 0; k < 4 && n > 0; ++k) {
    const size_t idx = std::min(n - 1, k * (n / 4 + 1));
    std::cout << eval::RenderStep(trace.steps[idx], config.sim.road) << "\n";
  }
  std::printf("('E' = ego, 'o' = conventional vehicle, window ±60 m)\n");
  return 0;
}
