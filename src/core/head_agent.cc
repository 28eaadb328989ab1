#include "core/head_agent.h"

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/span.h"

namespace head::core {

HeadAgent::HeadAgent(const HeadConfig& config,
                     std::shared_ptr<const perception::StatePredictor> predictor,
                     std::shared_ptr<rl::PamdpAgent> agent)
    : config_(config),
      reward_(config.TrainingReward()),
      predictor_(std::move(predictor)),
      agent_(std::move(agent)),
      perception_(config.road, config.sensor.range_m, config.scale,
                  config.history_z, config.variant.use_pvc,
                  config.variant.use_lst_gat ? predictor_.get() : nullptr),
      act_rng_(0xC0FFEE) {
  HEAD_CHECK(agent_ != nullptr);
  if (config_.variant.use_lst_gat) {
    HEAD_CHECK_MSG(predictor_ != nullptr,
                   "LST-GAT variant requires a predictor");
  }
}

std::string HeadAgent::name() const { return config_.variant.Name(); }

void HeadAgent::OnEpisodeStart() { perception_.Clear(); }

rl::AugmentedState HeadAgent::Perceive(const decision::EgoView& view) {
  return perception_.Perceive({view.ego, view.observed});
}

Maneuver HeadAgent::Decide(const decision::EgoView& view) {
  static obs::Histogram& latency = obs::LatencyHistogram("agent.act");
  static obs::Counter& decisions = obs::GetCounter("agent.decisions");
  HEAD_SPAN("agent.act", latency);
  decisions.Add();
  last_state_ = Perceive(view);
  const rl::AgentAction action =
      agent_->Act(last_state_, /*epsilon=*/0.0, act_rng_);
  if (obs::RecordingEnabled()) {
    obs::ScratchRecord().rng_cursor = act_rng_.draws();
  }
  return action.maneuver;
}

}  // namespace head::core
