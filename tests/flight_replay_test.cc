// The replay-parity contract (the ctest acceptance target for the flight
// recorder): a forced-collision episode dumps a JSONL black box whose
// deterministic replay reproduces the recorded ego trajectory, maneuvers,
// rewards, and RNG cursors bitwise.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "eval/episode_runner.h"
#include "eval/replay.h"
#include "nn/kernels/simd.h"
#include "obs/recorder.h"
#include "parallel/env_pool.h"
#include "parallel/thread_pool.h"
#include "rl/env.h"
#include "rl/pdqn_agent.h"
#include "sim/scenario.h"

namespace head {
namespace {

/// Saves/restores the global recorder state and provides a per-test dump
/// directory.
class FlightReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The bitwise replay contract is defined over the scalar kernel
    // schedules: a black box may be replayed by a different build (e.g. a
    // scalar-only debug binary), so the parity suite pins fast_math off.
    // See DESIGN.md "SIMD kernel dispatch" determinism matrix.
    saved_fast_math_ = nn::kernels::FastMathEnabled();
    nn::kernels::SetFastMath(false);
    saved_enabled_ = obs::RecordingEnabled();
    saved_config_ = obs::GetRecorderConfig();
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("flight_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    nn::kernels::SetFastMath(saved_fast_math_);
    obs::ConfigureRecorder(saved_config_);
    obs::SetRecordingEnabled(saved_enabled_);
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::string> DumpManifests() const {
    std::vector<std::string> out;
    if (!std::filesystem::exists(dir_)) return out;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      const std::string p = e.path().string();
      if (p.size() >= 14 &&
          p.compare(p.size() - 14, 14, ".manifest.json") == 0) {
        out.push_back(p);
      }
    }
    return out;
  }

  /// Records one episode of `policy_name` on `scenario` into dir_ and
  /// returns its episode record.
  eval::EpisodeRecord RunRecorded(const std::string& scenario,
                                  const std::string& policy_name,
                                  uint64_t seed) {
    obs::RecorderConfig cfg;
    cfg.dump_dir = dir_;
    obs::ConfigureRecorder(cfg);
    obs::SetRecordingEnabled(true);

    eval::RunnerConfig runner;
    runner.sim = sim::ScenarioByName(scenario);
    runner.scenario_name = scenario;
    auto policy = eval::MakeNamedPolicy(policy_name, runner.sim.road);
    EXPECT_NE(policy, nullptr);
    const eval::EpisodeRecord rec =
        eval::RunEpisode(*policy, runner, seed, /*episode_index=*/0);
    obs::SetRecordingEnabled(false);
    return rec;
  }

  std::string dir_;
  bool saved_enabled_ = false;
  bool saved_fast_math_ = true;
  obs::RecorderConfig saved_config_;
};

TEST_F(FlightReplayTest, ForcedCollisionDumpReplaysBitwise) {
  // The crash policy floors the throttle and never changes lane: it rams
  // the car ahead, so the collision trigger must produce exactly one dump.
  const eval::EpisodeRecord rec = RunRecorded("dense", "crash", 1234);
  ASSERT_TRUE(rec.collided);
  const std::vector<std::string> manifests = DumpManifests();
  ASSERT_EQ(manifests.size(), 1u);

  obs::FlightDump dump;
  std::string error;
  ASSERT_TRUE(obs::LoadFlightDump(manifests[0], &dump, &error)) << error;
  EXPECT_EQ(dump.ctx.scenario, "dense");
  EXPECT_EQ(dump.ctx.policy, "crash");
  EXPECT_EQ(dump.ctx.seed, 1234u);
  EXPECT_EQ(dump.trigger, obs::DumpTrigger::kCollision);
  EXPECT_EQ(dump.end, obs::EpisodeEnd::kCollision);
  ASSERT_FALSE(dump.records.empty());
  EXPECT_EQ(dump.records.back().end, obs::EpisodeEnd::kCollision);
  // The eval runner fills the reward decomposition; perception sections
  // stay absent for rule-based policies (only HEAD runs the pipeline).
  EXPECT_EQ(dump.records.back().has_reward, 1);
  EXPECT_EQ(dump.records.back().has_neighbors, 0);

  const eval::ReplayResult r = eval::ReplayAndVerify(dump);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records_compared, static_cast<int>(dump.records.size()));
  EXPECT_EQ(r.replay_end, obs::EpisodeEnd::kCollision);
  EXPECT_EQ(r.first_mismatch_step, -1);
}

TEST_F(FlightReplayTest, ReplayFileMatchesInMemoryReplay) {
  RunRecorded("dense", "crash", 77);
  const std::vector<std::string> manifests = DumpManifests();
  ASSERT_EQ(manifests.size(), 1u);
  const eval::ReplayResult r = eval::ReplayFile(manifests[0]);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.records_compared, 0);
}

TEST_F(FlightReplayTest, RuleBasedPolicyReplaysBitwise) {
  // A longer, maneuver-rich episode: IDM-LC on the paper scenario, dumped
  // manually (IDM usually completes without a collision).
  obs::RecorderConfig cfg;
  cfg.dump_dir = dir_;
  cfg.capacity = 4096;
  obs::ConfigureRecorder(cfg);
  obs::SetRecordingEnabled(true);

  eval::RunnerConfig runner;
  runner.sim = sim::ScenarioByName("paper");
  runner.scenario_name = "paper";
  auto policy = eval::MakeNamedPolicy("idm", runner.sim.road);
  ASSERT_NE(policy, nullptr);
  eval::RunEpisode(*policy, runner, /*seed=*/5, /*episode_index=*/3);

  std::string manifest_path;
  ASSERT_TRUE(obs::DumpNow(&manifest_path));
  obs::SetRecordingEnabled(false);

  const eval::ReplayResult r = eval::ReplayFile(manifest_path);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.records_compared, 20);
}

TEST_F(FlightReplayTest, TailOnlyDumpStillAlignsByStepIndex) {
  // With a tiny ring the dump holds only the last few steps of the episode;
  // replay re-runs from step 0 and must align on step indices.
  obs::RecorderConfig cfg;
  cfg.dump_dir = dir_;
  cfg.capacity = 4;
  obs::ConfigureRecorder(cfg);
  obs::SetRecordingEnabled(true);

  eval::RunnerConfig runner;
  runner.sim = sim::ScenarioByName("dense");
  runner.scenario_name = "dense";
  auto policy = eval::MakeNamedPolicy("crash", runner.sim.road);
  ASSERT_NE(policy, nullptr);
  eval::RunEpisode(*policy, runner, /*seed=*/1234, /*episode_index=*/0);
  obs::SetRecordingEnabled(false);

  const std::vector<std::string> manifests = DumpManifests();
  ASSERT_EQ(manifests.size(), 1u);
  obs::FlightDump dump;
  ASSERT_TRUE(obs::LoadFlightDump(manifests[0], &dump));
  ASSERT_EQ(dump.records.size(), 4u);
  EXPECT_GT(dump.records.front().step, 1) << "ring must have wrapped";

  const eval::ReplayResult r = eval::ReplayAndVerify(dump);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records_compared, 4);
  EXPECT_GT(r.steps_replayed, 4);
}

TEST_F(FlightReplayTest, TamperedDumpIsDetected) {
  RunRecorded("dense", "crash", 1234);
  const std::vector<std::string> manifests = DumpManifests();
  ASSERT_EQ(manifests.size(), 1u);
  obs::FlightDump dump;
  ASSERT_TRUE(obs::LoadFlightDump(manifests[0], &dump));

  // Nudge one recorded velocity by 1 ulp-ish amount: bitwise comparison
  // must flag the exact step.
  obs::StepRecord& victim = dump.records[dump.records.size() / 2];
  victim.ego_v_mps += 1e-13;
  const eval::ReplayResult r = eval::ReplayAndVerify(dump);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.first_mismatch_step, victim.step);
  EXPECT_NE(r.error.find("ego_v_mps"), std::string::npos) << r.error;
}

TEST_F(FlightReplayTest, UnknownScenarioAndPolicyAreRejected) {
  obs::FlightDump dump;
  dump.ctx.scenario = "no_such_scenario";
  dump.ctx.policy = "idm";
  dump.records.resize(1);
  dump.records[0].step = 1;
  eval::ReplayResult r = eval::ReplayAndVerify(dump);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown scenario"), std::string::npos);

  dump.ctx.scenario = "dense";
  dump.ctx.policy = "no_such_policy";
  r = eval::ReplayAndVerify(dump);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown policy"), std::string::npos);

  r = eval::ReplayAndVerify(obs::FlightDump{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no records"), std::string::npos);
}

TEST_F(FlightReplayTest, MultiThreadedEnvPoolRecordsWithoutRacing) {
  // The TSan target of tools/check.sh: concurrent EnvPool rollouts with
  // recording enabled. Rings are thread-local and dumps serialize through
  // atomics only, so parallel episodes must neither race nor corrupt the
  // shared commit/overwrite/dump accounting.
  obs::RecorderConfig cfg;
  cfg.dump_dir = dir_;
  cfg.capacity = 64;
  obs::ConfigureRecorder(cfg);
  obs::SetRecordingEnabled(true);
  const int64_t committed_before = obs::CommittedRecords();

  rl::EnvConfig env_config;
  env_config.sim.road.length_m = 400.0;
  env_config.sim.spawn.back_margin_m = 120.0;
  env_config.sim.spawn.front_margin_m = 120.0;
  env_config.use_prediction = false;
  rl::PdqnConfig agent_config;
  agent_config.batch_size = 8;
  agent_config.warmup_transitions = 20;
  Rng rng(77);
  auto agent = rl::MakePDqnAgent(agent_config, rng);

  parallel::ThreadPool pool(4);
  parallel::EnvPool envs(
      3,
      [&](int) {
        return std::make_unique<rl::DrivingEnv>(env_config, nullptr, 1);
      },
      &pool);
  parallel::EnvPool::RolloutOptions opts;
  opts.seed_base = 55;
  opts.max_steps_per_episode = 40;
  opts.scenario_name = "";  // custom config: recorded but not replayable
  const auto results = envs.RunEpisodes(*agent, 0, 8, opts);
  obs::SetRecordingEnabled(false);

  long total_steps = 0;
  for (const auto& r : results) total_steps += r.steps;
  EXPECT_EQ(obs::CommittedRecords() - committed_before, total_steps);
  // Any collision dumps written concurrently must still be well-formed.
  for (const std::string& manifest : DumpManifests()) {
    obs::FlightDump dump;
    std::string error;
    EXPECT_TRUE(obs::LoadFlightDump(manifest, &dump, &error)) << error;
    EXPECT_FALSE(dump.records.empty());
  }
}

TEST_F(FlightReplayTest, ReplayRestoresRecorderState) {
  RunRecorded("dense", "crash", 1234);
  const std::vector<std::string> manifests = DumpManifests();
  ASSERT_EQ(manifests.size(), 1u);

  obs::RecorderConfig marker;
  marker.capacity = 123;
  marker.dump_dir = dir_;
  marker.ttc_trigger_s = 3.25;
  obs::ConfigureRecorder(marker);
  obs::SetRecordingEnabled(false);

  ASSERT_TRUE(eval::ReplayFile(manifests[0]).ok);
  EXPECT_FALSE(obs::RecordingEnabled()) << "replay must restore the switch";
  const obs::RecorderConfig after = obs::GetRecorderConfig();
  EXPECT_EQ(after.capacity, 123);
  EXPECT_EQ(after.dump_dir, dir_);
  EXPECT_DOUBLE_EQ(after.ttc_trigger_s, 3.25);
  // The replay itself must not have produced new dump files.
  EXPECT_EQ(DumpManifests().size(), 1u);
}

}  // namespace
}  // namespace head
