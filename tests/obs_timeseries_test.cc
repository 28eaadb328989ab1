// Metrics time series: schema growth, ring wrap accounting, CSV/JSON
// export, the registry sampling bridge, and the rl::Trainer integration
// (per-episode training curves).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "parallel/env_pool.h"
#include "parallel/thread_pool.h"
#include "rl/env.h"
#include "rl/pdqn_agent.h"
#include "rl/trainer.h"

namespace head::obs {
namespace {

TEST(TimeSeriesTest, AppendGrowsSchemaAndBackfillsWithNaN) {
  TimeSeries ts(16);
  ts.Append(0.0, {{"loss", 1.0}});
  ts.Append(1.0, {{"loss", 0.5}, {"epsilon", 0.9}});
  EXPECT_EQ(ts.rows(), 2);
  EXPECT_EQ(ts.appended(), 2);
  EXPECT_EQ(ts.columns(), (std::vector<std::string>{"loss", "epsilon"}));

  const std::string csv = ts.ToCsv();
  // Row 0 has no epsilon: its cell is empty.
  EXPECT_NE(csv.find("t,loss,epsilon\n"), std::string::npos);
  EXPECT_NE(csv.find("0,1,\n"), std::string::npos);
  EXPECT_NE(csv.find("1,0.5,0.9\n"), std::string::npos);

  const std::string json = ts.ToJson();
  EXPECT_NE(json.find("\"columns\":[\"t\",\"loss\",\"epsilon\"]"),
            std::string::npos);
  EXPECT_NE(json.find("[0,1,null]"), std::string::npos);
}

TEST(TimeSeriesTest, RingWrapDropsOldestAndCountsOverwrites) {
  TimeSeries ts(4);
  const int64_t counter_before =
      GetCounter("obs.timeseries.overwritten").value();
  for (int i = 0; i < 10; ++i) {
    ts.Append(i, {{"v", static_cast<double>(i)}});
  }
  EXPECT_EQ(ts.rows(), 4);
  EXPECT_EQ(ts.appended(), 10);
  EXPECT_EQ(ts.overwritten(), 6);
  EXPECT_EQ(GetCounter("obs.timeseries.overwritten").value() - counter_before,
            6);
  const std::string csv = ts.ToCsv();
  EXPECT_EQ(csv.find("\n5,"), std::string::npos) << "row 5 was overwritten";
  // Oldest surviving row first.
  EXPECT_NE(csv.find("t,v\n6,6\n7,7\n8,8\n9,9\n"), std::string::npos) << csv;
}

TEST(TimeSeriesTest, ClearDropsRowsButKeepsColumns) {
  TimeSeries ts(4);
  ts.Append(0.0, {{"v", 1.0}});
  ts.Clear();
  EXPECT_EQ(ts.rows(), 0);
  EXPECT_EQ(ts.columns(), (std::vector<std::string>{"v"}));
  ts.Append(1.0, {{"v", 2.0}});
  EXPECT_EQ(ts.rows(), 1);
}

TEST(TimeSeriesTest, SampleRegistryCapturesCountersGaugesHistograms) {
  GetCounter("ts_test.counter").Reset();
  GetCounter("ts_test.counter").Add(5);
  GetGauge("ts_test.gauge").Set(2.5);
  Histogram& h = GetHistogram("ts_test.hist", {1.0, 10.0});
  h.Reset();
  h.Observe(2.0);
  h.Observe(4.0);

  TimeSeries ts(8);
  ts.SampleRegistry(1.0, "ts_test.");
  EXPECT_EQ(ts.rows(), 1);
  const std::string csv = ts.ToCsv();
  EXPECT_NE(csv.find("ts_test.counter"), std::string::npos);
  EXPECT_NE(csv.find("ts_test.gauge"), std::string::npos);
  EXPECT_NE(csv.find("ts_test.hist.count"), std::string::npos);
  EXPECT_NE(csv.find("ts_test.hist.mean"), std::string::npos);
  // The prefix filter keeps unrelated registry metrics out of the schema.
  for (const std::string& col : ts.columns()) {
    EXPECT_EQ(col.rfind("ts_test.", 0), 0u) << col;
  }
  EXPECT_NE(csv.find(",5,"), std::string::npos) << "counter value " << csv;
  EXPECT_NE(csv.find(",3\n"), std::string::npos) << "hist mean " << csv;
}

TEST(TimeSeriesTest, RegistrySamplerHonorsInterval) {
  GetCounter("ts_sampler.counter").Add(1);
  TimeSeries ts(32);
  RegistrySampler sampler(&ts, /*interval_s=*/10.0, "ts_sampler.");
  EXPECT_TRUE(sampler.Tick(0.0)) << "first tick always samples";
  EXPECT_FALSE(sampler.Tick(5.0));
  EXPECT_FALSE(sampler.Tick(9.9));
  EXPECT_TRUE(sampler.Tick(10.0));
  EXPECT_FALSE(sampler.Tick(15.0));
  EXPECT_TRUE(sampler.Tick(21.0));
  EXPECT_EQ(sampler.samples(), 3);
  EXPECT_EQ(ts.rows(), 3);
}

TEST(TimeSeriesTest, WriteFilesRoundTrip) {
  TimeSeries ts(4);
  ts.Append(0.5, {{"v", 1.25}});
  const std::string csv_path = ::testing::TempDir() + "/ts_test.csv";
  const std::string json_path = ::testing::TempDir() + "/ts_test.json";
  ASSERT_TRUE(ts.WriteCsvFile(csv_path));
  ASSERT_TRUE(ts.WriteJsonFile(json_path));
  EXPECT_FALSE(ts.WriteCsvFile("/nonexistent_dir_xyz/ts.csv"));
}

/// rl::TrainAgent over `num_envs` environments with a timeseries sink emits
/// one row per episode, with the documented curve columns.
void ExpectPerEpisodeCurves(int num_envs) {
  rl::EnvConfig env_config;
  env_config.sim.road.length_m = 400.0;
  env_config.sim.spawn.back_margin_m = 120.0;
  env_config.sim.spawn.front_margin_m = 120.0;
  env_config.use_prediction = false;

  rl::PdqnConfig agent_config;
  agent_config.batch_size = 8;
  agent_config.warmup_transitions = 20;
  agent_config.update_every = 1;
  Rng rng(7);
  auto agent = rl::MakePDqnAgent(agent_config, rng);

  parallel::ThreadPool pool(2);
  parallel::EnvPool envs(
      num_envs,
      [&](int) {
        return std::make_unique<rl::DrivingEnv>(env_config, nullptr, 1);
      },
      &pool);

  TimeSeries curves;
  rl::RlTrainConfig train;
  train.episodes = 4;
  train.max_steps_per_episode = 30;
  train.seed = 5;
  train.timeseries = &curves;
  rl::TrainAgent(*agent, envs, train);

  EXPECT_EQ(curves.rows(), 4);
  const std::vector<std::string> cols = curves.columns();
  for (const char* expected :
       {"episode", "reward", "epsilon", "reward.safety", "reward.efficiency",
        "reward.comfort", "reward.impact", "critic_loss"}) {
    bool found = false;
    for (const std::string& c : cols) found = found || c == expected;
    EXPECT_TRUE(found) << "missing column " << expected;
  }
  const std::string json = curves.ToJson();
  EXPECT_NE(json.find("\"columns\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
}

/// Single-environment training feeds the sink.
TEST(TimeSeriesTest, TrainerEmitsPerEpisodeCurves) {
  ExpectPerEpisodeCurves(1);
}

/// One row per episode regardless of collection-round batching.
TEST(TimeSeriesTest, ParallelTrainerEmitsPerEpisodeCurves) {
  ExpectPerEpisodeCurves(2);
}

}  // namespace
}  // namespace head::obs
