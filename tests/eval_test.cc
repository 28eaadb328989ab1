// Evaluation harness: metric aggregation, table printing, episode runner.
#include <sstream>

#include <gtest/gtest.h>

#include "decision/idm_lc.h"
#include "eval/episode_runner.h"
#include "eval/table.h"
#include "eval/timer.h"

namespace head::eval {
namespace {

TEST(MetricsTest, AggregationAverages) {
  EpisodeRecord a;
  a.completed = true;
  a.driving_time_s = 100.0;
  a.mean_v_mps = 20.0;
  a.mean_jerk_mps2 = 0.4;
  a.min_ttc_s = 3.0;
  a.rear_decel_events = 10;
  a.mean_rear_decel_mps = 0.2;
  a.mean_follower_dt_s = 150.0;
  a.followers = 5;
  EpisodeRecord b = a;
  b.driving_time_s = 140.0;
  b.min_ttc_s = 5.0;
  b.rear_decel_events = 20;
  const AggregateMetrics m = AggregateMetrics::FromRecords({a, b});
  EXPECT_DOUBLE_EQ(m.avg_dt_a_s, 120.0);
  EXPECT_DOUBLE_EQ(m.min_ttc_a_s, 4.0);
  EXPECT_DOUBLE_EQ(m.avg_num_ca, 15.0);
  EXPECT_EQ(m.completed, 2);
  EXPECT_EQ(m.collisions, 0);
}

TEST(MetricsTest, IncompleteEpisodesExcludedFromDtA) {
  EpisodeRecord done;
  done.completed = true;
  done.driving_time_s = 100.0;
  EpisodeRecord crash;
  crash.collided = true;
  crash.driving_time_s = 10.0;
  crash.min_ttc_s = -1.0;            // never valid
  crash.mean_rear_decel_mps = -1.0;  // no rear vehicle
  const AggregateMetrics m = AggregateMetrics::FromRecords({done, crash});
  EXPECT_DOUBLE_EQ(m.avg_dt_a_s, 100.0);
  EXPECT_EQ(m.collisions, 1);
}

TEST(MetricsTest, EmptyRecordsAreSafe) {
  const AggregateMetrics m = AggregateMetrics::FromRecords({});
  EXPECT_EQ(m.episodes, 0);
  EXPECT_DOUBLE_EQ(m.avg_dt_a_s, 0.0);
}

TEST(TableTest, AlignsColumnsAndPrintsAllRows) {
  TablePrinter table({"Method", "Metric"});
  table.AddRow({"IDM-LC", "1.25"});
  table.AddRow({"a-very-long-method-name", "2"});
  std::ostringstream os;
  table.Print(os, "Title");
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("IDM-LC"), std::string::npos);
  EXPECT_NE(out.find("a-very-long-method-name"), std::string::npos);
  // Every data line has the same width.
  std::istringstream lines(out);
  std::string line;
  size_t width = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') continue;
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
}

TEST(TimerTest, MeasuresRoughly) {
  const double ms = MeasureAvgMillis(
      [] {
        volatile double x = 0;
        for (int i = 0; i < 10000; ++i) x = x + i;
      },
      5);
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 100.0);
}

TEST(EpisodeRunnerTest, RuleBasedPolicyProducesSaneMetrics) {
  RunnerConfig config;
  config.sim.road.length_m = 400.0;
  config.sim.spawn.back_margin_m = 120.0;
  config.sim.spawn.front_margin_m = 120.0;
  config.episodes = 2;
  decision::IdmLcPolicy policy(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  const AggregateMetrics m = RunPolicy(policy, config);
  EXPECT_EQ(m.episodes, 2);
  EXPECT_GT(m.completed, 0);
  EXPECT_GT(m.avg_v_a_mps, 2.0);
  EXPECT_LT(m.avg_v_a_mps, 25.0);
  EXPECT_GT(m.avg_dt_a_s, 10.0);
  if (m.avg_dt_c_s > 0.0) {
    EXPECT_GT(m.avg_dt_c_s, 10.0);
  }
}

TEST(EpisodeRunnerTest, DeterministicForSameSeed) {
  RunnerConfig config;
  config.sim.road.length_m = 300.0;
  config.sim.spawn.back_margin_m = 100.0;
  config.sim.spawn.front_margin_m = 100.0;
  config.episodes = 1;
  decision::IdmLcPolicy p1(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  decision::IdmLcPolicy p2(
      decision::RuleBasedConfig::ForRoad(config.sim.road));
  const EpisodeRecord a = RunEpisode(p1, config, 5);
  const EpisodeRecord b = RunEpisode(p2, config, 5);
  EXPECT_DOUBLE_EQ(a.driving_time_s, b.driving_time_s);
  EXPECT_DOUBLE_EQ(a.mean_v_mps, b.mean_v_mps);
  EXPECT_EQ(a.rear_decel_events, b.rear_decel_events);
}

}  // namespace
}  // namespace head::eval
