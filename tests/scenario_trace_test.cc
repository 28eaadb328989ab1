// Scenario presets and the episode trace recorder.
#include <sstream>

#include <gtest/gtest.h>

#include "decision/idm_lc.h"
#include "eval/episode_runner.h"
#include "sim/scenario.h"

namespace head {
namespace {

TEST(ScenarioTest, NamesRoundTrip) {
  for (const std::string& name : sim::ScenarioNames()) {
    const sim::SimConfig config = sim::ScenarioByName(name);
    EXPECT_GT(config.road.length_m, 0.0) << name;
  }
}

TEST(ScenarioTest, UnknownNameAborts) {
  EXPECT_DEATH(sim::ScenarioByName("nope"), "unknown scenario");
}

TEST(ScenarioTest, BottleneckBlocksRequestedLanes) {
  const sim::SimConfig config = sim::BottleneckScenario(800.0, 2, 400.0, 100.0);
  ASSERT_FALSE(config.static_obstacles.empty());
  for (const sim::Vehicle& v : config.static_obstacles) {
    EXPECT_TRUE(v.stationary);
    EXPECT_GE(v.state.lane, config.road.num_lanes - 1);
    EXPECT_GE(v.state.lon_m, 400.0);
    EXPECT_LE(v.state.lon_m, 500.0 + 1e-9);
    EXPECT_DOUBLE_EQ(v.state.v_mps, 0.0);
  }
}

TEST(ScenarioTest, StaticObstaclesNeverMove) {
  sim::SimConfig config = sim::BottleneckScenario(500.0, 1, 250.0, 60.0);
  config.spawn.back_margin_m = 100.0;
  config.spawn.front_margin_m = 100.0;
  sim::Simulation sim(config, 3);
  std::vector<double> lons;
  for (const sim::Vehicle& v : sim.conventional_vehicles()) {
    if (v.stationary) lons.push_back(v.state.lon_m);
  }
  ASSERT_FALSE(lons.empty());
  for (int i = 0; i < 20 && sim.status() == sim::EpisodeStatus::kRunning;
       ++i) {
    sim.Step(Maneuver{LaneChange::kKeep, 0.0});
  }
  size_t k = 0;
  for (const sim::Vehicle& v : sim.conventional_vehicles()) {
    if (!v.stationary) continue;
    EXPECT_DOUBLE_EQ(v.state.lon_m, lons[k++]);
    EXPECT_DOUBLE_EQ(v.state.v_mps, 0.0);
  }
}

TEST(ScenarioTest, TrafficQueuesBehindBottleneck) {
  // After a while, vehicles in the closed lane upstream of the closure are
  // slower than free-flow — the shockwave the intro describes.
  sim::SimConfig config = sim::BottleneckScenario(800.0, 2, 400.0, 100.0);
  config.spawn.back_margin_m = 150.0;
  config.spawn.front_margin_m = 150.0;
  sim::Simulation sim(config, 9);
  for (int i = 0; i < 120 && sim.status() == sim::EpisodeStatus::kRunning;
       ++i) {
    sim.Step(Maneuver{LaneChange::kKeep, -1.0});
  }
  double queued_v_sum = 0.0;
  int queued = 0;
  for (const sim::Vehicle& v : sim.conventional_vehicles()) {
    if (v.stationary) continue;
    if (v.state.lane >= config.road.num_lanes - 1 && v.state.lon_m > 250.0 &&
        v.state.lon_m < 400.0) {
      queued_v_sum += v.state.v_mps;
      ++queued;
    }
  }
  if (queued > 0) {
    EXPECT_LT(queued_v_sum / queued, 15.0);
  }
}

eval::RunnerConfig SmallRunnerConfig() {
  eval::RunnerConfig config;
  config.sim.road.length_m = 300.0;
  config.sim.spawn.back_margin_m = 100.0;
  config.sim.spawn.front_margin_m = 100.0;
  return config;
}

TEST(TraceTest, RecordsEveryStepWithRewards) {
  const eval::RunnerConfig config = SmallRunnerConfig();
  decision::IdmLcPolicy policy(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  eval::EpisodeTrace trace;
  eval::RunEpisode(policy, config, /*seed=*/7, /*episode_index=*/0, &trace);
  ASSERT_FALSE(trace.steps.empty());
  EXPECT_NE(trace.final_status, sim::EpisodeStatus::kRunning);
  EXPECT_EQ(trace.policy_name, "IDM-LC");
  double t_prev = 0.0;
  for (const eval::TraceStep& s : trace.steps) {
    EXPECT_GT(s.time_s, t_prev);
    t_prev = s.time_s;
    EXPECT_LE(s.reward.total, 0.8 + 1e-9);
    EXPECT_GE(s.reward.total, -4.5);
  }
}

TEST(TraceTest, CsvHasHeaderAndOneRowPerStep) {
  const eval::RunnerConfig config = SmallRunnerConfig();
  decision::IdmLcPolicy policy(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  eval::EpisodeTrace trace;
  eval::RunEpisode(policy, config, /*seed=*/7, /*episode_index=*/0, &trace);
  std::ostringstream os;
  eval::WriteTraceCsv(trace, os);
  const std::string csv = os.str();
  size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, trace.steps.size() + 1);
  EXPECT_EQ(csv.rfind("time_s,lane,", 0), 0u);
}

TEST(TraceTest, RenderMarksEgoOncePerFrame) {
  const eval::RunnerConfig config = SmallRunnerConfig();
  decision::IdmLcPolicy policy(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  eval::EpisodeTrace trace;
  eval::RunEpisode(policy, config, /*seed=*/7, /*episode_index=*/0, &trace);
  const std::string frame =
      eval::RenderStep(trace.steps.front(), config.sim.road);
  size_t egos = 0;
  for (char c : frame) egos += c == 'E';
  EXPECT_EQ(egos, 1u);
  // One row per lane plus the status line.
  size_t lines = 0;
  for (char c : frame) lines += c == '\n';
  EXPECT_EQ(lines, static_cast<size_t>(config.sim.road.num_lanes) + 1);
}

}  // namespace
}  // namespace head
