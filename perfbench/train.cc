// train: the paper's training pipeline at the fast profile, repeated. Each
// repetition pretrains LST-GAT on the REAL-surrogate dataset (built at
// set-up), trains BP-DQN with rl::TrainAgent over an EnvPool of the
// profile-pinned K = 4 envs for a fixed episode count, and finishes with a
// greedy EvaluateAgent. Every repetition starts from the same seeds, so
// the evaluation statistics of any two repetitions must be identical.
#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/real_dataset.h"
#include "eval/workbench.h"
#include "nn/arena.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "perception/trainer.h"
#include "rl/trainer.h"
#include "stats.h"

namespace perfbench {

namespace hd = head;

namespace {

constexpr int kPretrainEpochs = 3;
constexpr double kEpisodesPerSecond = 7.0;  // of --seconds, per repetition
// Training episodes stop here, so the work per episode depends little on
// how well the seed's agent happens to drive.
constexpr int kMaxStepsPerEpisode = 100;
constexpr int kEvalEpisodes = 8;
constexpr int kEvalMaxSteps = 400;
// Work is counted, not timed: three repetitions (two untraced and one
// traced when the run is traced), each sized from --seconds. A run then
// does the same work on every commit, and memory the pipeline keeps after
// a repetition adds up the same way.
constexpr int kRepetitions = 3;

/// Forwarding PamdpAgent that times Act on every thread and, when traced,
/// Remember and Update on the learner thread.
class TimedAgent : public hd::rl::PamdpAgent {
 public:
  TimedAgent(hd::rl::PamdpAgent& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  std::string name() const override { return inner_.name(); }

  hd::rl::AgentAction Act(const hd::rl::AugmentedState& state, double epsilon,
                          hd::Rng& rng) override {
    const double t0 = NowS();
    hd::rl::AgentAction action = inner_.Act(state, epsilon, rng);
    const double dt = NowS() - t0;
    std::lock_guard<std::mutex> lock(mu_);
    act_s_[std::this_thread::get_id()].push_back(dt);
    return action;
  }

  void Remember(const hd::rl::AugmentedState& state,
                const hd::rl::AgentAction& action, double reward,
                const hd::rl::AugmentedState& next_state,
                bool terminal) override {
    ++transitions_;
    const double t0 = traced_ ? NowS() : 0.0;
    inner_.Remember(state, action, reward, next_state, terminal);
    if (traced_) learner_s_ += NowS() - t0;
  }

  void Update(hd::Rng& rng) override {
    if (!traced_) return inner_.Update(rng);
    const double t0 = NowS();
    inner_.Update(rng);
    const double dt = NowS() - t0;
    update_s_.push_back(dt);
    learner_s_ += dt;
  }

  void ScaleLearningRate(double factor) override {
    inner_.ScaleLearningRate(factor);
  }

  /// Act latencies of every thread, pooled.
  std::vector<double> ActSeconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> all;
    for (const auto& [thread, samples] : act_s_) {
      all.insert(all.end(), samples.begin(), samples.end());
    }
    return all;
  }
  int64_t transitions() const { return transitions_; }
  const std::vector<double>& update_s() const { return update_s_; }
  double learner_s() const { return learner_s_; }

 private:
  hd::rl::PamdpAgent& inner_;
  const bool traced_;
  mutable std::mutex mu_;
  std::map<std::thread::id, std::vector<double>> act_s_;
  // Remember/Update run on the learner thread only.
  int64_t transitions_ = 0;
  std::vector<double> update_s_;
  double learner_s_ = 0.0;
};

hd::eval::BenchProfile Profile(uint64_t seed, double seconds) {
  hd::eval::BenchProfile profile = hd::eval::BenchProfile::Fast();
  // The workload seed picks the REAL-surrogate dataset. Model initialisation
  // and the RL run keep the profile's own seeds: how long training episodes
  // last follows the learning trajectory, and a seed-dependent trajectory
  // would let the work per run, not the code, set env steps per second.
  profile.real.seed = hd::SplitMix(seed, 0xda7a);
  profile.pred_train.epochs = kPretrainEpochs;
  // Whole collection rounds of K envs.
  const int k = profile.rollout_envs;
  profile.rl_train.episodes =
      std::max(4 * k, static_cast<int>(kEpisodesPerSecond * seconds) / k * k);
  profile.rl_train.max_steps_per_episode = kMaxStepsPerEpisode;
  profile.test_episodes = kEvalEpisodes;
  return profile;
}

/// Episodes until the 20-episode trailing mean reward first comes within 5%
/// of its best-to-worst range of the best — the rule rl::TrainAgent uses
/// for the convergence time.
int EpisodesToQuality(const std::vector<double>& rewards) {
  const size_t window = std::min<size_t>(20, rewards.size());
  if (window == 0) return 0;
  std::vector<double> trailing;
  for (size_t e = window - 1; e < rewards.size(); ++e) {
    double s = 0.0;
    for (size_t k = 0; k < window; ++k) s += rewards[e - k];
    trailing.push_back(s / window);
  }
  const double best = *std::max_element(trailing.begin(), trailing.end());
  const double worst = *std::min_element(trailing.begin(), trailing.end());
  const double threshold = best - 0.05 * std::max(best - worst, 1e-9);
  for (size_t i = 0; i < trailing.size(); ++i) {
    if (trailing[i] >= threshold) return static_cast<int>(i + window);
  }
  return static_cast<int>(rewards.size());
}

struct Repetition {
  double pretrain_s = 0.0;
  int64_t pretrain_samples = 0;
  std::vector<double> epoch_losses;
  std::vector<double> epoch_s;
  uint64_t pretrain_allocs = 0;
  int64_t pretrain_steps = 0;
  double rl_s = 0.0;
  int64_t transitions = 0;
  std::vector<double> act_s;
  std::vector<double> update_s;
  double learner_s = 0.0;
  std::vector<double> episode_rewards;
  double critic_loss_sum = 0.0;  // of the critic losses the agent reported
  hd::rl::RewardStats eval;
};

Repetition RunRepetition(const hd::eval::BenchProfile& profile,
                         const hd::data::RealDataset& dataset, bool traced) {
  Repetition rep;
  hd::Rng rng(profile.seed);
  auto predictor = std::make_shared<hd::perception::LstGat>(
      hd::perception::LstGatConfig(), rng);
  const uint64_t allocs_before = hd::nn::AllocEvents();
  double t0 = NowS();
  const hd::perception::PredictionTrainResult pre =
      hd::perception::TrainPredictor(*predictor, dataset.train,
                                     profile.pred_train);
  rep.pretrain_s = NowS() - t0;
  rep.pretrain_allocs = hd::nn::AllocEvents() - allocs_before;
  const int64_t n = static_cast<int64_t>(dataset.train.size());
  const int64_t batch = profile.pred_train.batch_size;
  rep.pretrain_samples = n * profile.pred_train.epochs;
  rep.pretrain_steps = (n + batch - 1) / batch * profile.pred_train.epochs;
  rep.epoch_losses = pre.epoch_losses;
  double prev = 0.0;
  for (double elapsed : pre.epoch_elapsed_seconds) {
    rep.epoch_s.push_back(elapsed - prev);
    prev = elapsed;
  }

  const hd::core::HeadVariant variant = hd::core::HeadVariant::Full();
  const hd::core::HeadConfig head = hd::eval::MakeHeadConfig(profile, variant);
  hd::Rng agent_rng(profile.seed + 17);
  std::shared_ptr<hd::rl::PdqnAgent> agent =
      hd::rl::MakeBpDqnAgent(head.pdqn, agent_rng);
  // The envs predict with LST-GAT's initial weights, not the pretrained
  // ones: those follow the seed's dataset, and the agent's episodes, and
  // so the env steps a run takes, would follow them (1.7x between seeds).
  // The compute per step is the same with either.
  hd::Rng env_rng(profile.seed);
  const auto env_predictor = std::make_shared<hd::perception::LstGat>(
      hd::perception::LstGatConfig(), env_rng);
  hd::parallel::EnvPool envs =
      hd::eval::MakeEnvPool(profile, variant, env_predictor);
  TimedAgent timed(*agent, traced);
  hd::rl::RlTrainConfig train = profile.rl_train;
  train.seed = profile.seed + 29;
  hd::obs::Histogram& critic_loss = hd::obs::GetHistogram("rl.critic_loss");
  const double critic_before = critic_loss.Snapshot().sum;
  t0 = NowS();
  const hd::rl::RlTrainResult result = hd::rl::TrainAgent(timed, envs, train);
  rep.rl_s = NowS() - t0;
  rep.critic_loss_sum = critic_loss.Snapshot().sum - critic_before;
  rep.transitions = timed.transitions();
  rep.act_s = timed.ActSeconds();
  rep.update_s = timed.update_s();
  rep.learner_s = timed.learner_s();
  rep.episode_rewards = result.episode_rewards;
  rep.eval = hd::rl::EvaluateAgent(*agent, envs, profile.test_episodes,
                                   profile.seed + 1000,
                                   kEvalMaxSteps);
  return rep;
}

bool SameStats(const hd::rl::RewardStats& a, const hd::rl::RewardStats& b) {
  return a.min_reward == b.min_reward && a.max_reward == b.max_reward &&
         a.avg_reward == b.avg_reward && a.steps == b.steps &&
         a.collisions == b.collisions;
}

double Us(double seconds) { return seconds * 1e6; }

template <typename Fn>
std::vector<double> Each(const std::vector<Repetition>& reps, Fn&& fn) {
  std::vector<double> out;
  for (const Repetition& rep : reps) out.push_back(fn(rep));
  return out;
}

}  // namespace

Result RunTrain(const Options& options) {
  Result result;
  const int threads = hd::parallel::HardwareThreads();
  hd::parallel::ThreadPool pool(threads);
  hd::parallel::GlobalPoolOverride pool_override(&pool);
  StampRun(threads, &result);

  const hd::eval::BenchProfile profile =
      Profile(options.seed, options.seconds);
  result.stamp["rollout_envs"] = std::to_string(profile.rollout_envs);
  result.stamp["episodes"] = std::to_string(profile.rl_train.episodes);
  result.stamp["pretrain_epochs"] = std::to_string(kPretrainEpochs);

  hd::data::RealDataset dataset;
  const double setup_s = MedianSetupSeconds(
      kSetups, [&] { dataset = hd::eval::BuildRealDataset(profile); });
  result.Set("setup_s", setup_s, "s");
  result.Set("data.dataset_build_s", setup_s, "s");
  result.stamp["train_samples"] = std::to_string(dataset.train.size());

  auto run_reps = [&](int count, bool traced) {
    std::vector<Repetition> reps;
    while (static_cast<int>(reps.size()) < count) {
      reps.push_back(RunRepetition(profile, dataset, traced));
    }
    return reps;
  };
  const std::vector<Repetition> plain =
      run_reps(options.trace ? kRepetitions - 1 : kRepetitions, false);

  for (const Repetition& rep : plain) {
    result.attempted += rep.transitions;
    bool finite = true;
    for (double v : rep.epoch_losses) finite &= std::isfinite(v);
    for (double v : rep.episode_rewards) finite &= std::isfinite(v);
    finite &= std::isfinite(rep.critic_loss_sum) &&
              std::isfinite(rep.eval.avg_reward) &&
              std::isfinite(rep.eval.min_reward) &&
              std::isfinite(rep.eval.max_reward);
    if (!finite) {
      ++result.failed;
      result.Fail("non-finite loss, reward or evaluation statistic");
    }
    if (!SameStats(rep.eval, plain.front().eval)) {
      ++result.failed;
      result.Fail("evaluation statistics differ between repetitions");
    }
  }

  std::vector<double> act_s;
  for (const Repetition& rep : plain) {
    act_s.insert(act_s.end(), rep.act_s.begin(), rep.act_s.end());
  }
  if (act_s.size() < SamplesForQuantile(0.99)) {
    result.Fail("too few decisions for a p99");
  }
  const double env_steps_per_s = Median(Each(plain, [](const Repetition& r) {
    return r.transitions / r.rl_s;
  }));
  const double pretrain_per_s = Median(Each(plain, [](const Repetition& r) {
    return r.pretrain_samples / r.pretrain_s;
  }));
  result.Set("decide_p50_us", Us(Quantile(act_s, 0.5)), "us");
  result.Set("rl.act_us", Us(Quantile(act_s, 0.5)), "us");
  result.Set("rl.act_us.p99", Us(Quantile(act_s, 0.99)), "us");
  result.Set("throughput_per_s", env_steps_per_s, "1/s");
  result.Set("train_env_steps_per_s", env_steps_per_s, "1/s");
  result.Set("pretrain_samples_per_s", pretrain_per_s, "1/s");
  result.stamp["repetitions"] = std::to_string(plain.size());
  result.stamp["eval_avg_reward"] = std::to_string(plain.front().eval.avg_reward);

  if (options.trace) {
    hd::obs::Histogram& sim_step = hd::obs::LatencyHistogram("sim.step");
    hd::obs::Histogram& episode = hd::obs::LatencyHistogram(
        "parallel.envpool.episode");
    const hd::obs::HistogramSnapshot step_before = sim_step.Snapshot();
    const hd::obs::HistogramSnapshot episode_before = episode.Snapshot();
    hd::obs::Counter& updates = hd::obs::GetCounter("rl.updates");
    const int64_t updates_before = updates.value();
    hd::obs::DrainTraceEvents();
    hd::obs::SetTracingEnabled(true);
    const std::vector<Repetition> traced = run_reps(1, true);
    hd::obs::SetTracingEnabled(false);
    const std::vector<hd::obs::TraceEvent> events = hd::obs::DrainTraceEvents();
    const hd::obs::HistogramSnapshot step_after = sim_step.Snapshot();
    const hd::obs::HistogramSnapshot episode_after = episode.Snapshot();

    std::vector<double> observe, predict;
    for (const hd::obs::TraceEvent& e : events) {
      const std::string name = e.name;
      if (name == "sensor.observe") observe.push_back(e.dur_ns * 1e-9);
      if (name == "perception.predict") predict.push_back(e.dur_ns * 1e-9);
    }
    const int64_t steps = step_after.count - step_before.count;
    result.Set("sim.step_us",
               steps > 0 ? Us((step_after.sum - step_before.sum) / steps) : 0.0,
               "us");
    result.Set("sensor.observe_us", Us(Median(observe)), "us");
    result.Set("perception.predict_us.p50", Us(Quantile(predict, 0.5)), "us");
    result.Set("perception.predict_us.p99", Us(Quantile(predict, 0.99)), "us");
    const int64_t episodes = episode_after.count - episode_before.count;
    result.Set("parallel.envpool_episode_s",
               episodes > 0
                   ? (episode_after.sum - episode_before.sum) / episodes
                   : 0.0,
               "s");

    std::vector<double> epoch_s, update_s;
    for (const Repetition& rep : traced) {
      epoch_s.insert(epoch_s.end(), rep.epoch_s.begin(), rep.epoch_s.end());
      update_s.insert(update_s.end(), rep.update_s.begin(), rep.update_s.end());
    }
    result.Set("perception.train_epoch_s", Median(epoch_s), "s");
    result.Set("nn.alloc_events_per_pretrain_step",
               Median(Each(traced, [](const Repetition& r) {
                 return static_cast<double>(r.pretrain_allocs) /
                        r.pretrain_steps;
               })),
               "count");
    // Update is a no-op until the replay memory warms and between every
    // update_every-th call, so its time is shared over the gradient steps
    // the agent reports (rl.updates).
    double update_total = 0.0;
    for (double u : update_s) update_total += u;
    const int64_t gradient_steps = updates.value() - updates_before;
    result.Set("rl.update_us",
               gradient_steps > 0 ? Us(update_total / gradient_steps) : 0.0,
               "us");
    result.Set("rl.update_share", Median(Each(traced, [](const Repetition& r) {
                 double sum = 0.0;
                 for (double u : r.update_s) sum += u;
                 return sum / r.rl_s;
               })),
               "ratio");
    result.Set("rl.rollout_share", Median(Each(traced, [](const Repetition& r) {
                 return 1.0 - r.learner_s / r.rl_s;
               })),
               "ratio");
    result.Set("rl.episodes_to_quality",
               Median(Each(traced, [](const Repetition& r) {
                 return static_cast<double>(EpisodesToQuality(r.episode_rewards));
               })),
               "count");
    result.Set("rl.final_eval_reward", traced.front().eval.avg_reward, "reward");
    const double traced_steps_per_s = Median(Each(
        traced, [](const Repetition& r) { return r.transitions / r.rl_s; }));
    result.Set("trace.overhead_pct",
               (env_steps_per_s / traced_steps_per_s - 1.0) * 100.0, "%");
    for (const Repetition& rep : traced) {
      result.attempted += rep.transitions;
      if (!SameStats(rep.eval, plain.front().eval)) {
        ++result.failed;
        result.Fail("traced evaluation statistics differ from untraced");
      }
    }
    result.stamp["dropped_spans"] =
        std::to_string(hd::obs::DroppedTraceEvents());
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
