// End-to-end observability: runs a HEAD-agent episode with tracing on (the
// same code path `head_cli --trace-out=` exercises), writes the Chrome
// trace-event JSON, re-parses it, and asserts the span tree is well formed —
// sensor / prediction / decision spans nested inside each episode step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/head_agent.h"
#include "eval/episode_runner.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace head {
namespace {

/// One event re-parsed from the emitted Chrome trace JSON.
struct ParsedEvent {
  std::string name;
  int tid = -1;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Minimal parser for the exact JSON we emit ({"traceEvents":[{...},...]}).
std::vector<ParsedEvent> ParseChromeTrace(const std::string& json) {
  std::vector<ParsedEvent> events;
  EXPECT_NE(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            std::string::npos);
  auto field = [&json](size_t obj, const std::string& key) {
    const size_t k = json.find("\"" + key + "\":", obj);
    EXPECT_NE(k, std::string::npos) << "missing " << key;
    return k + key.size() + 3;
  };
  size_t pos = json.find("[");
  while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
    ParsedEvent e;
    const size_t name_begin = pos + 9;
    const size_t name_end = json.find('"', name_begin);
    e.name = json.substr(name_begin, name_end - name_begin);
    e.tid = std::stoi(json.substr(field(pos, "tid")));
    e.ts_us = std::stod(json.substr(field(pos, "ts")));
    e.dur_us = std::stod(json.substr(field(pos, "dur")));
    EXPECT_NE(json.find("\"ph\":\"X\"", pos), std::string::npos);
    events.push_back(std::move(e));
    pos = name_end;
  }
  return events;
}

/// True when `inner` lies within `outer` (with a small slack for the
/// microsecond rounding of the export).
bool Contains(const ParsedEvent& outer, const ParsedEvent& inner) {
  constexpr double kSlackUs = 0.002;
  return inner.ts_us >= outer.ts_us - kSlackUs &&
         inner.ts_us + inner.dur_us <=
             outer.ts_us + outer.dur_us + kSlackUs;
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTracingEnabled(false);
    obs::DrainTraceEvents();  // drop spans left over from other tests
  }
  void TearDown() override { obs::SetTracingEnabled(false); }
};

TEST_F(ObsTraceTest, HeadEpisodeEmitsWellFormedNestedTrace) {
  core::HeadConfig config;
  config.pdqn.hidden = 8;
  Rng net_rng(1);
  std::shared_ptr<rl::PamdpAgent> agent =
      rl::MakeBpDqnAgent(config.pdqn, net_rng);
  Rng pred_rng(2);
  auto predictor = std::make_shared<perception::LstGat>(
      perception::LstGatConfig{.d_phi1 = 8, .d_phi3 = 8, .d_lstm = 8},
      pred_rng);
  core::HeadAgent head(config, predictor, agent);

  eval::RunnerConfig runner;
  runner.sim.road = config.road;
  runner.sim.road.length_m = 150.0;
  runner.sim.max_steps = 30;

  obs::SetTracingEnabled(true);
  eval::EpisodeTrace episode;
  eval::RunEpisode(head, runner, /*seed=*/7, /*episode_index=*/0, &episode);
  obs::SetTracingEnabled(false);
  ASSERT_GT(episode.steps.size(), 0u);

  const std::string path =
      ::testing::TempDir() + "/obs_trace_test_trace.json";
  ASSERT_TRUE(obs::WriteChromeTraceFile(path));
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::vector<ParsedEvent> events = ParseChromeTrace(buffer.str());
  std::remove(path.c_str());

  // Every pipeline stage shows up.
  std::map<std::string, int> counts;
  for (const ParsedEvent& e : events) ++counts[e.name];
  const long steps = static_cast<long>(episode.steps.size());
  EXPECT_EQ(counts["episode.step"], steps);
  EXPECT_EQ(counts["sensor.observe"], steps);
  EXPECT_EQ(counts["agent.act"], steps);
  EXPECT_EQ(counts["sim.step"], steps);
  EXPECT_EQ(counts["perception.phantom"], steps);
  EXPECT_EQ(counts["perception.graph"], steps);
  EXPECT_EQ(counts["perception.predict"], steps);
  EXPECT_EQ(counts["perception.lstgat.forward"], steps);
  EXPECT_EQ(counts["rl.act"], steps);

  // Nesting is well formed per thread: sorting by start, every event either
  // contains the next or is disjoint from it (no partial overlap), checked
  // with an interval stack.
  std::map<int, std::vector<ParsedEvent>> by_tid;
  for (const ParsedEvent& e : events) by_tid[e.tid].push_back(e);
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(),
              [](const ParsedEvent& a, const ParsedEvent& b) {
                if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                return a.dur_us > b.dur_us;  // parents before children
              });
    std::vector<ParsedEvent> stack;
    for (const ParsedEvent& e : list) {
      while (!stack.empty() && !Contains(stack.back(), e)) {
        EXPECT_LE(stack.back().ts_us + stack.back().dur_us,
                  e.ts_us + 0.002)
            << "partial overlap: " << stack.back().name << " vs " << e.name;
        stack.pop_back();
      }
      stack.push_back(e);
    }
  }

  // The per-stage spans nest inside an episode step / the decision span.
  std::vector<ParsedEvent> step_spans;
  for (const ParsedEvent& e : events) {
    if (e.name == "episode.step") step_spans.push_back(e);
  }
  auto inside_a = [&step_spans](const ParsedEvent& e) {
    for (const ParsedEvent& s : step_spans) {
      if (Contains(s, e)) return true;
    }
    return false;
  };
  std::vector<ParsedEvent> act_spans;
  for (const ParsedEvent& e : events) {
    if (e.name == "sensor.observe" || e.name == "agent.act" ||
        e.name == "sim.step") {
      EXPECT_TRUE(inside_a(e)) << e.name << " not inside an episode.step";
    }
    if (e.name == "agent.act") act_spans.push_back(e);
  }
  for (const ParsedEvent& e : events) {
    if (e.name != "perception.predict" && e.name != "rl.act" &&
        e.name != "perception.phantom" && e.name != "perception.graph") {
      continue;
    }
    bool inside_act = false;
    for (const ParsedEvent& a : act_spans) {
      if (Contains(a, e)) inside_act = true;
    }
    EXPECT_TRUE(inside_act) << e.name << " not inside an agent.act span";
  }
}

TEST_F(ObsTraceTest, EpisodeUpdatesMetricsRegistry) {
  const int64_t steps_before =
      obs::GetCounter("sim.steps").value();
  core::HeadConfig config;
  config.pdqn.hidden = 8;
  Rng net_rng(3);
  std::shared_ptr<rl::PamdpAgent> agent =
      rl::MakeBpDqnAgent(config.pdqn, net_rng);
  Rng pred_rng(4);
  auto predictor = std::make_shared<perception::LstGat>(
      perception::LstGatConfig{.d_phi1 = 8, .d_phi3 = 8, .d_lstm = 8},
      pred_rng);
  core::HeadAgent head(config, predictor, agent);

  eval::RunnerConfig runner;
  runner.sim.road = config.road;
  runner.sim.road.length_m = 150.0;
  runner.sim.max_steps = 20;
  eval::EpisodeTrace episode;
  eval::RunEpisode(head, runner, /*seed=*/11, /*episode_index=*/0, &episode);

  EXPECT_EQ(obs::GetCounter("sim.steps").value() - steps_before,
            static_cast<int64_t>(episode.steps.size()));
  const obs::HistogramSnapshot lat =
      obs::LatencyHistogram("agent.act").Snapshot();
  EXPECT_GE(lat.count, static_cast<int64_t>(episode.steps.size()));
  EXPECT_GT(lat.Quantile(0.5), 0.0);
}

}  // namespace
}  // namespace head
