// Quickstart: the minimal end-to-end HEAD pipeline.
//
// 1. Generate a small REAL-surrogate trajectory corpus and train the
//    LST-GAT one-step state predictor on it.
// 2. Train the BP-DQN maneuver-decision agent over a pool of simulated
//    environments with the hybrid (safety/efficiency/comfort/impact) reward.
// 3. Drive one test episode with the trained HEAD agent (eval::RunEpisode
//    with a per-step trace) and print what it does step by step.
//
// Run:  ./build/examples/quickstart
//
// Set HEAD_TRACE_OUT=trace.json to record a Chrome trace of the whole run
// (open it in chrome://tracing or https://ui.perfetto.dev).
#include <cstdio>
#include <cstdlib>

#include "core/head_agent.h"
#include "obs/span.h"
#include "data/real_dataset.h"
#include "eval/episode_runner.h"
#include "eval/workbench.h"
#include "perception/trainer.h"
#include "nn/serialize.h"
#include "rl/trainer.h"

int main() {
  using namespace head;

  const char* trace_out = std::getenv("HEAD_TRACE_OUT");
  if (trace_out != nullptr && trace_out[0] != '\0') {
    obs::SetTracingEnabled(true);
  }

  // A deliberately tiny profile so the whole demo runs in well under a
  // minute; see bench/ for the real experiment harness.
  eval::BenchProfile profile = eval::BenchProfile::Fast();
  profile.name = "quickstart";
  profile.real.episodes = 2;
  profile.real.max_steps_per_episode = 120;
  profile.pred_train.epochs = 3;
  profile.rl_sim.road.length_m = 500.0;
  profile.rl_train.episodes = 12;
  profile.pdqn.warmup_transitions = 200;

  std::printf("== 1. training the LST-GAT state predictor ==\n");
  const data::RealDataset dataset = eval::BuildRealDataset(profile);
  std::printf("   REAL surrogate: %zu train / %zu test samples\n",
              dataset.train.size(), dataset.test.size());
  Rng rng(7);
  auto predictor = std::make_shared<perception::LstGat>(
      perception::LstGatConfig(), rng);
  const perception::PredictionTrainResult pred_result =
      perception::TrainPredictor(*predictor, dataset.train,
                                 profile.pred_train);
  const perception::PredictionMetrics metrics =
      perception::EvaluatePredictor(*predictor, dataset.test);
  std::printf("   trained %d epochs in %.1fs — test MAE=%.3f RMSE=%.3f\n",
              profile.pred_train.epochs, pred_result.total_seconds,
              metrics.mae, metrics.rmse);

  std::printf("== 2. training the BP-DQN maneuver-decision agent ==\n");
  const core::HeadVariant variant = core::HeadVariant::Full();
  const core::HeadConfig head_config = eval::MakeHeadConfig(profile, variant);
  Rng agent_rng(11);
  std::shared_ptr<rl::PdqnAgent> agent =
      rl::MakeBpDqnAgent(head_config.pdqn, agent_rng);
  parallel::EnvPool envs = eval::MakeEnvPool(profile, variant, predictor);
  const rl::RlTrainResult rl_result =
      rl::TrainAgent(*agent, envs, profile.rl_train);
  std::printf("   %d episodes in %.1fs — last mean step reward %.3f\n",
              profile.rl_train.episodes, rl_result.total_seconds,
              rl_result.episode_rewards.back());

  std::printf("== 3. driving one test episode with HEAD ==\n");
  // The 12-episode agent above is a toy; if a fully trained policy exists in
  // the bench cache (e.g. after running the benches or pretrain_all), drive
  // with that one instead so the demo shows converged behavior.
  std::shared_ptr<rl::PdqnAgent> demo_agent = agent;
  {
    eval::BenchProfile fast = eval::BenchProfile::Fast();
    fast.rl_sim.road = profile.rl_sim.road;
    Rng cache_rng(11);
    auto cached = rl::MakeBpDqnAgent(
        eval::MakeHeadConfig(fast, variant).pdqn, cache_rng);
    // Reuse the workbench cache path convention.
    class Both : public nn::Module {
     public:
      explicit Both(rl::PdqnAgent& a) : a_(a) {}
      std::vector<nn::Var> Params() const override {
        std::vector<nn::Var> p = a_.x_net().Params();
        for (const nn::Var& v : a_.q_net().Params()) p.push_back(v);
        return p;
      }
     private:
      rl::PdqnAgent& a_;
    } params(*cached);
    if (nn::LoadParamsFromFile(params, ".head_cache/policy_HEAD_fast.bin")) {
      cached->SyncTargets();
      demo_agent = std::move(cached);
      std::printf("   (driving with the fully trained cached policy)\n");
    } else {
      std::printf("   (driving with the 12-episode toy policy — expect "
                  "rough maneuvers; run examples/pretrain_all first for a "
                  "converged one)\n");
    }
  }
  auto policy = eval::MakePolicy(profile, variant, predictor, demo_agent);
  eval::RunnerConfig runner;
  runner.sim = profile.rl_sim;
  runner.sensor = head_config.sensor;
  eval::EpisodeTrace trace;
  eval::RunEpisode(*policy, runner, /*seed=*/4242, /*episode_index=*/0,
                   &trace);
  int lane_changes = 0;
  for (size_t i = 0; i < trace.steps.size(); ++i) {
    const eval::TraceStep& step = trace.steps[i];
    if (step.maneuver.lane_change != LaneChange::kKeep) ++lane_changes;
    if (i % 20 == 0) {
      std::printf(
          "   t=%5.1fs lane=%d lon=%6.1fm v=%4.1fm/s (%d vehicles seen) "
          "-> %s a=%+.2f r=%+.3f\n",
          step.time_s, step.ego.lane, step.ego.lon_m, step.ego.v_mps,
          step.observed_vehicles, ToString(step.maneuver.lane_change),
          step.maneuver.accel_mps2, step.reward.total);
    }
  }
  std::printf("   episode over: %s after %.1fs (%d lane changes)\n",
              ToString(trace.final_status),
              trace.steps.empty() ? 0.0 : trace.steps.back().time_s,
              lane_changes);
  if (trace_out != nullptr && trace_out[0] != '\0') {
    if (obs::WriteChromeTraceFile(trace_out)) {
      std::printf("   wrote Chrome trace to %s\n", trace_out);
    } else {
      std::fprintf(stderr, "   failed to write trace to %s\n", trace_out);
      return 1;
    }
  }
  return 0;
}
