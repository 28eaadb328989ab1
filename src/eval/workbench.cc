#include "eval/workbench.h"

#include <cstdlib>
#include <filesystem>

#include "common/logging.h"
#include "nn/kernels/simd.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace head::eval {

namespace {

/// XNet+QNet of a PdqnAgent viewed as one module for checkpointing.
class AgentParams : public nn::Module {
 public:
  explicit AgentParams(rl::PdqnAgent& agent) : agent_(agent) {}
  std::vector<nn::Var> Params() const override {
    std::vector<nn::Var> p = agent_.x_net().Params();
    for (const nn::Var& v : agent_.q_net().Params()) p.push_back(v);
    return p;
  }

 private:
  rl::PdqnAgent& agent_;
};

std::string CachePath(const BenchProfile& profile, const std::string& key) {
  std::filesystem::create_directories(profile.cache_dir);
  return profile.cache_dir + "/" + key + "_" + profile.name + ".bin";
}

/// Dumps (and resets) the global metrics next to a just-trained cached
/// model, so a bench run's BENCH_*.json can be joined with the internal
/// latency/telemetry of the training that produced its weights.
void DumpTrainingMetrics(const BenchProfile& profile, const std::string& key) {
  const std::string path =
      profile.cache_dir + "/metrics_" + key + "_" + profile.name + ".json";
  if (obs::WriteMetricsJsonFile(path, /*reset=*/true)) {
    HEAD_LOG(Info) << "metrics snapshot written to " << path;
  } else {
    HEAD_LOG(Warning) << "failed to write metrics snapshot to " << path;
  }
}

/// Profiles one TrainOrLoad* training region when HEAD_PROFILE_OUT names a
/// directory: the op profiler runs across the wrapped training and the
/// per-(op, shape) JSON lands next to the cached weights' metrics snapshot
/// as <dir>/profile_<key>_<profile>.json. Unset env ⇒ zero effect.
class ScopedTrainingProfile {
 public:
  ScopedTrainingProfile(const BenchProfile& profile, const std::string& key) {
    const char* dir = std::getenv("HEAD_PROFILE_OUT");
    if (dir == nullptr || dir[0] == '\0') return;
    path_ = std::string(dir) + "/profile_" + key + "_" + profile.name +
            ".json";
    std::filesystem::create_directories(dir);
    nn::kernels::CalibrateProfilerRoofline();
    obs::StartProfiling();
  }
  ~ScopedTrainingProfile() {
    if (path_.empty()) return;
    obs::StopProfiling();
    if (obs::WriteProfileJsonFile(path_)) {
      HEAD_LOG(Info) << "op profile written to " << path_;
    } else {
      HEAD_LOG(Warning) << "failed to write op profile to " << path_;
    }
  }
  ScopedTrainingProfile(const ScopedTrainingProfile&) = delete;
  ScopedTrainingProfile& operator=(const ScopedTrainingProfile&) = delete;

 private:
  std::string path_;
};

}  // namespace

BenchProfile BenchProfile::Fast() {
  BenchProfile p;
  p.name = "fast";
  p.real.episodes = 3;
  p.real.max_steps_per_episode = 220;
  p.pred_train.epochs = 10;
  p.pred_train.batch_size = 64;

  p.rl_sim.road.length_m = 800.0;
  p.rl_sim.spawn.back_margin_m = 250.0;
  p.rl_sim.spawn.front_margin_m = 250.0;
  p.rl_sim.max_steps = 1200;

  p.rl_train.episodes = 600;
  p.rl_train.epsilon_end = 0.02;
  p.rl_train.epsilon_decay_fraction = 0.5;
  p.rl_train.verbose = false;

  p.pdqn.batch_size = 32;
  p.pdqn.update_every = 2;
  p.pdqn.warmup_transitions = 300;

  p.test_episodes = 20;
  return p;
}

BenchProfile BenchProfile::Paper() {
  BenchProfile p;
  p.name = "paper";
  p.real.episodes = 20;
  p.real.max_steps_per_episode = 400;
  p.pred_train.epochs = 15;

  p.rl_sim.road.length_m = 3000.0;
  p.rl_train.episodes = 4000;

  p.pdqn.batch_size = 64;
  p.pdqn.update_every = 1;
  p.pdqn.warmup_transitions = 1000;

  p.test_episodes = 500;
  return p;
}

BenchProfile BenchProfile::FromEnv() {
  const char* env = std::getenv("HEAD_BENCH_PROFILE");
  if (env != nullptr && std::string(env) == "paper") return Paper();
  return Fast();
}

core::HeadConfig MakeHeadConfig(const BenchProfile& profile,
                                const core::HeadVariant& variant) {
  core::HeadConfig config;
  config.road = profile.rl_sim.road;
  config.pdqn = profile.pdqn;
  config.pdqn.a_max = config.road.a_max_mps2;
  config.variant = variant;
  return config;
}

data::RealDataset BuildRealDataset(const BenchProfile& profile) {
  return data::GenerateRealDataset(profile.real);
}

parallel::EnvPool MakeEnvPool(
    const BenchProfile& profile, const core::HeadVariant& variant,
    const std::shared_ptr<perception::LstGat>& predictor, int num_envs) {
  const core::HeadConfig head = MakeHeadConfig(profile, variant);
  const rl::EnvConfig env_config = head.MakeEnvConfig(profile.rl_sim);
  perception::LstGat* pred =
      variant.use_lst_gat ? predictor.get() : nullptr;
  const int k = num_envs > 0 ? num_envs : profile.rollout_envs;
  return parallel::EnvPool(k, [&](int) {
    return std::make_unique<rl::DrivingEnv>(env_config, pred, profile.seed);
  });
}

std::shared_ptr<perception::LstGat> TrainOrLoadLstGat(
    const BenchProfile& profile, bool use_cache) {
  Rng rng(profile.seed);
  auto model =
      std::make_shared<perception::LstGat>(perception::LstGatConfig(), rng);
  const std::string path = CachePath(profile, "lstgat");
  if (use_cache && nn::LoadParamsFromFile(*model, path)) {
    HEAD_LOG(Info) << "LST-GAT: loaded cached weights from " << path;
    return model;
  }
  HEAD_LOG(Info) << "LST-GAT: training on the REAL surrogate ("
                 << profile.name << " profile)";
  ScopedTrainingProfile prof(profile, "lstgat");
  const data::RealDataset dataset = BuildRealDataset(profile);
  perception::TrainPredictor(*model, dataset.train, profile.pred_train);
  nn::SaveParamsToFile(*model, path);
  DumpTrainingMetrics(profile, "lstgat");
  return model;
}

std::shared_ptr<rl::PdqnAgent> TrainOrLoadHeadPolicy(
    const BenchProfile& profile, const core::HeadVariant& variant,
    std::shared_ptr<perception::LstGat> predictor,
    rl::RlTrainResult* train_result, bool use_cache) {
  const core::HeadConfig head = MakeHeadConfig(profile, variant);
  Rng rng(profile.seed + 17);
  std::shared_ptr<rl::PdqnAgent> agent =
      variant.use_bp_dqn ? rl::MakeBpDqnAgent(head.pdqn, rng)
                         : rl::MakePDqnAgent(head.pdqn, rng);

  std::string key = std::string("policy_") + variant.Name();
  for (char& c : key) {
    if (c == '/' || c == '-') c = '_';
  }
  const std::string path = CachePath(profile, key);
  AgentParams params(*agent);
  if (train_result == nullptr && use_cache &&
      nn::LoadParamsFromFile(params, path)) {
    agent->SyncTargets();
    HEAD_LOG(Info) << variant.Name() << ": loaded cached weights from "
                   << path;
    return agent;
  }

  HEAD_LOG(Info) << variant.Name() << ": training ("
                 << profile.rl_train.episodes << " episodes, "
                 << profile.name << " profile, K=" << profile.rollout_envs
                 << " rollout envs)";
  ScopedTrainingProfile prof(profile, key);
  rl::RlTrainConfig train = profile.rl_train;
  train.seed = profile.seed + 29;
  parallel::EnvPool envs = MakeEnvPool(profile, variant, predictor);
  const rl::RlTrainResult result = rl::TrainAgent(*agent, envs, train);
  if (train_result != nullptr) *train_result = result;
  nn::SaveParamsToFile(params, path);
  DumpTrainingMetrics(profile, key);
  return agent;
}

std::shared_ptr<rl::DrlScAgent> TrainOrLoadDrlSc(
    const BenchProfile& profile, std::shared_ptr<perception::LstGat> predictor,
    bool use_cache) {
  (void)predictor;  // DRL-SC perceives without future-state augmentation
  rl::DrlScConfig config;
  config.road = profile.rl_sim.road;
  config.batch_size = profile.pdqn.batch_size;
  config.update_every = profile.pdqn.update_every;
  config.warmup_transitions = profile.pdqn.warmup_transitions;
  Rng rng(profile.seed + 23);
  auto agent = std::make_shared<rl::DrlScAgent>(config, rng);

  const std::string path = CachePath(profile, "policy_DRL_SC");
  if (use_cache && nn::LoadParamsFromFile(agent->q_mlp(), path)) {
    agent->SyncTargets();
    HEAD_LOG(Info) << "DRL-SC: loaded cached weights from " << path;
    return agent;
  }
  HEAD_LOG(Info) << "DRL-SC: training (" << profile.rl_train.episodes
                 << " episodes, " << profile.name << " profile, K="
                 << profile.rollout_envs << " rollout envs)";
  ScopedTrainingProfile prof(profile, "policy_DRL_SC");
  const core::HeadVariant variant = core::HeadVariant::WithoutLstGat();
  rl::RlTrainConfig train = profile.rl_train;
  train.seed = profile.seed + 31;
  parallel::EnvPool envs = MakeEnvPool(profile, variant, nullptr);
  rl::TrainAgent(*agent, envs, train);
  nn::SaveParamsToFile(agent->q_mlp(), path);
  DumpTrainingMetrics(profile, "policy_DRL_SC");
  return agent;
}

std::unique_ptr<core::HeadAgent> MakePolicy(
    const BenchProfile& profile, const core::HeadVariant& variant,
    std::shared_ptr<perception::LstGat> predictor,
    std::shared_ptr<rl::PamdpAgent> agent) {
  const core::HeadConfig config = MakeHeadConfig(profile, variant);
  return std::make_unique<core::HeadAgent>(config, std::move(predictor),
                                           std::move(agent));
}

}  // namespace head::eval
