// Sensor model: detection radius and line-of-sight occlusion geometry.
#include "sensor/sensor_model.h"

#include <vector>

#include <gtest/gtest.h>

#include "sensor/occlusion.h"
#include "sim/scenario.h"
#include "sim/simulation.h"

namespace head::sensor {
namespace {

RoadConfig DefaultRoad() { return RoadConfig{}; }

TEST(OcclusionGeometryTest, SegmentRectIntersection) {
  // Horizontal segment crossing a unit box at the origin.
  EXPECT_TRUE(SegmentIntersectsRect(-2, 0, 2, 0, 0, 0, 1, 1));
  // Segment passing above the box.
  EXPECT_FALSE(SegmentIntersectsRect(-2, 2, 2, 2, 0, 0, 1, 1));
  // Segment ending before the box.
  EXPECT_FALSE(SegmentIntersectsRect(-3, 0, -2, 0, 0, 0, 1, 1));
  // Diagonal through a corner region.
  EXPECT_TRUE(SegmentIntersectsRect(-2, -2, 2, 2, 0, 0, 1, 1));
  // Degenerate segment inside the box.
  EXPECT_TRUE(SegmentIntersectsRect(0.1, 0.1, 0.1, 0.1, 0, 0, 1, 1));
}

TEST(OcclusionTest, SameLaneBlockerHidesVehicleBehindIt) {
  const RoadConfig road = DefaultRoad();
  const VehicleState observer{3, 0.0, 20.0};
  const VehicleState blocker{3, 30.0, 20.0};
  const VehicleState target{3, 60.0, 20.0};
  EXPECT_TRUE(Occludes(observer, target, blocker, road.lane_width_m));
}

TEST(OcclusionTest, AdjacentLaneVehicleDoesNotHideSameLaneTarget) {
  const RoadConfig road = DefaultRoad();
  const VehicleState observer{3, 0.0, 20.0};
  const VehicleState blocker{2, 30.0, 20.0};  // one lane over
  const VehicleState target{3, 60.0, 20.0};
  EXPECT_FALSE(Occludes(observer, target, blocker, road.lane_width_m));
}

TEST(OcclusionTest, DiagonalShadowMatchesFig4Geometry) {
  const RoadConfig road = DefaultRoad();
  // Fig. 4, case (1,1): C1 front-left of A; C11 beyond it on the same ray
  // (one more lane left, double the longitudinal distance).
  const VehicleState a{3, 0.0, 20.0};
  const VehicleState c1{2, 20.0, 20.0};
  const VehicleState c11{1, 40.0, 20.0};
  EXPECT_TRUE(Occludes(a, c11, c1, road.lane_width_m));
}

TEST(OcclusionTest, BlockerBehindTargetDoesNotOcclude) {
  const RoadConfig road = DefaultRoad();
  const VehicleState observer{3, 0.0, 20.0};
  const VehicleState target{3, 30.0, 20.0};
  const VehicleState blocker{3, 60.0, 20.0};  // beyond the target
  EXPECT_FALSE(Occludes(observer, target, blocker, road.lane_width_m));
}

TEST(SensorTest, RangeCutoff) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  sensor.range_m = 100.0;
  sensor.model_occlusion = false;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {
      {0, ego},
      {1, {3, 99.0, 20.0}},
      {2, {3, 101.0, 20.0}},
      {3, {3, -99.0, 20.0}},
  };
  const auto observed = Observe(global, ego, sensor, road);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].id, 1);
  EXPECT_EQ(observed[1].id, 3);
}

TEST(SensorTest, RangeIsEuclideanAcrossLanes) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  sensor.range_m = 10.0;
  sensor.model_occlusion = false;
  const VehicleState ego{1, 0.0, 20.0};
  // 9.9 m ahead but 3 lanes over (9.6 m lateral): distance ≈ 13.8 > 10.
  std::vector<sim::VehicleSnapshot> global = {{1, {4, 9.9, 20.0}}};
  EXPECT_TRUE(Observe(global, ego, sensor, road).empty());
}

TEST(SensorTest, OcclusionRemovesHiddenVehicle) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {
      {1, {3, 30.0, 20.0}},
      {2, {3, 60.0, 20.0}},  // hidden behind 1
      {3, {2, 40.0, 20.0}},  // visible, other lane
  };
  const auto observed = Observe(global, ego, sensor, road);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].id, 1);
  EXPECT_EQ(observed[1].id, 3);
}

TEST(SensorTest, EgoNeverObservesItself) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {{kEgoVehicleId, ego}};
  EXPECT_TRUE(Observe(global, ego, sensor, road).empty());
}

TEST(SensorTest, DisablingOcclusionRestoresHiddenVehicle) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  sensor.model_occlusion = false;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {
      {1, {3, 30.0, 20.0}},
      {2, {3, 60.0, 20.0}},
  };
  EXPECT_EQ(Observe(global, ego, sensor, road).size(), 2u);
}

// Reference sensor: every vehicle of the snapshot is a candidate blocker of
// every in-range target — no band, no shortcut.
std::vector<VehicleId> BruteForceObserve(
    const std::vector<sim::VehicleSnapshot>& global, const VehicleState& ego,
    const SensorConfig& sensor, const RoadConfig& road) {
  std::vector<VehicleId> ids;
  for (const sim::VehicleSnapshot& target : global) {
    if (target.id == kEgoVehicleId) continue;
    const double dx = DLon(target.state, ego);
    const double dy = DLat(target.state, ego, road.lane_width_m);
    if (dx * dx + dy * dy > sensor.range_m * sensor.range_m) continue;
    bool visible = true;
    if (sensor.model_occlusion) {
      for (const sim::VehicleSnapshot& blocker : global) {
        if (blocker.id == target.id || blocker.id == kEgoVehicleId) continue;
        if (Occludes(ego, target.state, blocker.state, road.lane_width_m)) {
          visible = false;
          break;
        }
      }
    }
    if (visible) ids.push_back(target.id);
  }
  return ids;
}

// Observe keeps only the vehicles near the ego as candidate blockers; on
// seeded dense traffic its output (ids and order) must equal the reference
// for every range and with occlusion on and off.
TEST(SensorTest, ObserveMatchesBruteForceOnDenseTraffic) {
  const sim::SimConfig config = sim::DenseTrafficScenario();
  int compared = 0;
  for (const uint64_t seed : {3u, 11u, 29u}) {
    sim::Simulation sim(config, seed);
    for (int step = 0; step < 60; ++step) {
      if (step % 6 == 0) {
        const std::vector<sim::VehicleSnapshot> global = sim.GlobalSnapshot();
        // The ego itself, plus a few conventional vehicles as observers
        // at other spots along the road.
        std::vector<VehicleState> observers = {sim.ego_state()};
        for (size_t i = 1; i < global.size(); i += global.size() / 4 + 1) {
          observers.push_back(global[i].state);
        }
        for (const VehicleState& ego : observers) {
          for (const double range : {50.0, 75.0, 100.0, 150.0}) {
            for (const bool occlusion : {true, false}) {
              SensorConfig sensor;
              sensor.range_m = range;
              sensor.model_occlusion = occlusion;
              std::vector<VehicleId> got;
              for (const sim::VehicleSnapshot& v :
                   Observe(global, ego, sensor, config.road)) {
                got.push_back(v.id);
              }
              ASSERT_EQ(got,
                        BruteForceObserve(global, ego, sensor, config.road))
                  << "seed " << seed << " step " << step << " range "
                  << range << " occlusion " << occlusion;
              ++compared;
            }
          }
        }
      }
      if (sim.Step(Maneuver{LaneChange::kKeep, 0.0}) !=
          sim::EpisodeStatus::kRunning) {
        break;
      }
    }
  }
  EXPECT_GT(compared, 100);
}

}  // namespace
}  // namespace head::sensor
