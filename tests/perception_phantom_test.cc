// Phantom vehicle construction (paper Sec. III-B, Eqs. 4–6) and neighbor
// selection (Fig. 2) invariants.
#include "perception/phantom.h"

#include <gtest/gtest.h>

#include "perception/neighbor.h"

namespace head::perception {
namespace {

constexpr double kRange = 100.0;

RoadConfig DefaultRoad() { return RoadConfig{}; }

ObservationFrame MakeFrame(const VehicleState& ego,
                           std::vector<sim::VehicleSnapshot> observed) {
  return ObservationFrame{ego, std::move(observed)};
}

HistoryBuffer BufferWith(int z, const ObservationFrame& frame) {
  HistoryBuffer buffer(z);
  for (int i = 0; i < z; ++i) buffer.Push(frame);
  return buffer;
}

TEST(NeighborTest, SelectsNearestPerArea) {
  const VehicleState center{3, 100.0, 20.0};
  std::vector<sim::VehicleSnapshot> candidates = {
      {1, {3, 130.0, 20.0}},  // front (farther)
      {2, {3, 110.0, 20.0}},  // front (nearest)
      {3, {2, 120.0, 20.0}},  // front-left
      {4, {4, 90.0, 20.0}},   // rear-right
      {5, {3, 80.0, 20.0}},   // rear
      {6, {1, 100.0, 20.0}},  // two lanes away → ignored
  };
  const NeighborSet set = SelectNeighbors(candidates, center);
  ASSERT_TRUE(set[kFront].has_value());
  EXPECT_EQ(set[kFront]->id, 2);
  ASSERT_TRUE(set[kFrontLeft].has_value());
  EXPECT_EQ(set[kFrontLeft]->id, 3);
  ASSERT_TRUE(set[kRearRight].has_value());
  EXPECT_EQ(set[kRearRight]->id, 4);
  ASSERT_TRUE(set[kRear].has_value());
  EXPECT_EQ(set[kRear]->id, 5);
  EXPECT_FALSE(set[kRearLeft].has_value());
  EXPECT_FALSE(set[kFrontRight].has_value());
}

TEST(NeighborTest, MirrorAreaPairs) {
  EXPECT_EQ(MirrorArea(kFrontLeft), kRearRight);
  EXPECT_EQ(MirrorArea(kFront), kRear);
  EXPECT_EQ(MirrorArea(kFrontRight), kRearLeft);
  EXPECT_EQ(MirrorArea(kRearRight), kFrontLeft);
}

TEST(HistoryBufferTest, WarmupRepeatsOldestFrame) {
  HistoryBuffer buffer(5);
  buffer.Push(MakeFrame({1, 10.0, 20.0}, {}));
  buffer.Push(MakeFrame({1, 20.0, 20.0}, {}));
  // Logical frames 0..2 are the oldest pushed frame; 3,4 the real ones.
  EXPECT_DOUBLE_EQ(buffer.frame(0).ego.lon_m, 10.0);
  EXPECT_DOUBLE_EQ(buffer.frame(2).ego.lon_m, 10.0);
  EXPECT_DOUBLE_EQ(buffer.frame(3).ego.lon_m, 10.0);
  EXPECT_DOUBLE_EQ(buffer.frame(4).ego.lon_m, 20.0);
}

TEST(HistoryBufferTest, EvictsBeyondCapacity) {
  HistoryBuffer buffer(3);
  for (int i = 0; i < 5; ++i) {
    buffer.Push(MakeFrame({1, 10.0 * i, 20.0}, {}));
  }
  EXPECT_EQ(buffer.size(), 3);
  EXPECT_DOUBLE_EQ(buffer.frame(0).ego.lon_m, 20.0);
  EXPECT_DOUBLE_EQ(buffer.latest().ego.lon_m, 40.0);
}

TEST(FillHistoryTest, InterpolatesInteriorGap) {
  HistoryBuffer buffer(4);
  buffer.Push(MakeFrame({3, 0.0, 20.0}, {{7, {2, 100.0, 10.0}}}));
  buffer.Push(MakeFrame({3, 10.0, 20.0}, {}));  // vehicle 7 occluded
  buffer.Push(MakeFrame({3, 20.0, 20.0}, {}));
  buffer.Push(MakeFrame({3, 30.0, 20.0}, {{7, {2, 130.0, 16.0}}}));
  const auto states = FillHistory(buffer, 7, 0.5);
  ASSERT_EQ(states.size(), 4u);
  EXPECT_DOUBLE_EQ(states[1].lon_m, 110.0);
  EXPECT_DOUBLE_EQ(states[2].lon_m, 120.0);
  EXPECT_DOUBLE_EQ(states[1].v_mps, 12.0);
  EXPECT_DOUBLE_EQ(states[2].v_mps, 14.0);
}

TEST(FillHistoryTest, ExtrapolatesLeadingGapBackwards) {
  HistoryBuffer buffer(3);
  buffer.Push(MakeFrame({3, 0.0, 20.0}, {}));
  buffer.Push(MakeFrame({3, 10.0, 20.0}, {}));
  buffer.Push(MakeFrame({3, 20.0, 20.0}, {{7, {2, 100.0, 10.0}}}));
  const auto states = FillHistory(buffer, 7, 0.5);
  // Constant-velocity backwards: 100 − 10·0.5·k.
  EXPECT_DOUBLE_EQ(states[2].lon_m, 100.0);
  EXPECT_DOUBLE_EQ(states[1].lon_m, 95.0);
  EXPECT_DOUBLE_EQ(states[0].lon_m, 90.0);
}

TEST(PhantomTest, EmptyRoadConstructsRangeAndInherentPhantoms) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{1, 500.0, 20.0};  // leftmost lane
  const HistoryBuffer buffer = BufferWith(5, MakeFrame(ego, {}));
  const CompletedScene scene = ConstructPhantoms(buffer, road, kRange);

  // Front-left and rear-left are inherent (ego in lane 1) → lane 0.
  EXPECT_EQ(scene.targets[kFrontLeft].kind, MissingKind::kInherent);
  EXPECT_EQ(scene.targets[kFrontLeft].states.back().lane, 0);
  EXPECT_DOUBLE_EQ(scene.targets[kFrontLeft].states.back().lon_m, 500.0);
  EXPECT_EQ(scene.targets[kRearLeft].kind, MissingKind::kInherent);

  // Front/front-right are range phantoms at ±R (Eq. 4).
  EXPECT_EQ(scene.targets[kFront].kind, MissingKind::kRange);
  EXPECT_DOUBLE_EQ(scene.targets[kFront].states.back().lon_m, 600.0);
  EXPECT_EQ(scene.targets[kFront].states.back().lane, 1);
  EXPECT_EQ(scene.targets[kFrontRight].states.back().lane, 2);
  EXPECT_EQ(scene.targets[kRear].kind, MissingKind::kRange);
  EXPECT_DOUBLE_EQ(scene.targets[kRear].states.back().lon_m, 400.0);

  // Phantom velocities co-move with the ego (Eq. 4/5).
  for (int i = 0; i < kNumAreas; ++i) {
    for (const VehicleState& s : scene.targets[i].states) {
      EXPECT_DOUBLE_EQ(s.v_mps, 20.0);
    }
  }
}

TEST(PhantomTest, PhantomTargetsGetZeroPaddedSurroundingsExceptEgoSlot) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{3, 500.0, 20.0};
  const HistoryBuffer buffer = BufferWith(5, MakeFrame(ego, {}));
  const CompletedScene scene = ConstructPhantoms(buffer, road, kRange);
  for (int i = 0; i < kNumAreas; ++i) {
    ASSERT_TRUE(scene.targets[i].is_phantom());
    for (int j = 0; j < kNumAreas; ++j) {
      if (j == MirrorArea(i)) {
        EXPECT_EQ(scene.surroundings[i][j].kind, MissingKind::kEgo);
        EXPECT_EQ(scene.surroundings[i][j].id, kEgoVehicleId);
      } else {
        EXPECT_EQ(scene.surroundings[i][j].kind, MissingKind::kZeroPad);
      }
    }
  }
}

TEST(PhantomTest, OcclusionPhantomMirroredBeyondTarget) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{3, 500.0, 20.0};
  // One real front vehicle 40 m ahead; the slot beyond it (its own front)
  // is missing → occlusion phantom at double distance (Eq. 6, case (2,2)).
  const VehicleState front{3, 540.0, 18.0};
  const HistoryBuffer buffer =
      BufferWith(5, MakeFrame(ego, {{7, front}}));
  const CompletedScene scene = ConstructPhantoms(buffer, road, kRange);
  ASSERT_EQ(scene.targets[kFront].kind, MissingKind::kNone);
  const VehicleHistory& occ = scene.surroundings[kFront][kFront];
  EXPECT_EQ(occ.kind, MissingKind::kOcclusion);
  EXPECT_EQ(occ.states.back().lane, 3);
  EXPECT_DOUBLE_EQ(occ.states.back().lon_m, 540.0 + 40.0);
  EXPECT_DOUBLE_EQ(occ.states.back().v_mps, 18.0);
}

TEST(PhantomTest, EgoFillsMirrorSlotOfRealTarget) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{3, 500.0, 20.0};
  const VehicleState front{3, 540.0, 18.0};
  const HistoryBuffer buffer =
      BufferWith(5, MakeFrame(ego, {{7, front}}));
  const CompletedScene scene = ConstructPhantoms(buffer, road, kRange);
  const VehicleHistory& rear_of_front =
      scene.surroundings[kFront][MirrorArea(kFront)];
  EXPECT_EQ(rear_of_front.kind, MissingKind::kEgo);
  EXPECT_DOUBLE_EQ(rear_of_front.states.back().lon_m, 500.0);
}

TEST(PhantomTest, ObservedNeighborsArePreferredOverPhantoms) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{3, 500.0, 20.0};
  std::vector<sim::VehicleSnapshot> observed = {
      {7, {3, 540.0, 18.0}},   // front target
      {8, {3, 580.0, 17.0}},   // front of front — real, no occlusion phantom
  };
  const HistoryBuffer buffer = BufferWith(5, MakeFrame(ego, observed));
  const CompletedScene scene = ConstructPhantoms(buffer, road, kRange);
  EXPECT_EQ(scene.surroundings[kFront][kFront].kind, MissingKind::kNone);
  EXPECT_EQ(scene.surroundings[kFront][kFront].id, 8);
}

TEST(PhantomTest, WithoutPhantomsEverythingMissingIsZeroPadded) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{1, 500.0, 20.0};
  const HistoryBuffer buffer = BufferWith(5, MakeFrame(ego, {}));
  const CompletedScene scene =
      ConstructPhantoms(buffer, road, kRange, /*use_phantoms=*/false);
  for (int i = 0; i < kNumAreas; ++i) {
    EXPECT_EQ(scene.targets[i].kind, MissingKind::kZeroPad);
  }
}

TEST(PhantomTest, AllTargetsHaveFullHistories) {
  const RoadConfig road = DefaultRoad();
  const VehicleState ego{4, 500.0, 20.0};
  std::vector<sim::VehicleSnapshot> observed = {
      {7, {4, 540.0, 18.0}},
      {8, {3, 520.0, 21.0}},
      {9, {5, 470.0, 19.0}},
  };
  const HistoryBuffer buffer = BufferWith(5, MakeFrame(ego, observed));
  const CompletedScene scene = ConstructPhantoms(buffer, road, kRange);
  for (int i = 0; i < kNumAreas; ++i) {
    EXPECT_EQ(scene.targets[i].states.size(), 5u) << "target " << i;
    for (int j = 0; j < kNumAreas; ++j) {
      const VehicleHistory& s = scene.surroundings[i][j];
      if (s.kind != MissingKind::kZeroPad) {
        EXPECT_EQ(s.states.size(), 5u) << "surrounding " << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace head::perception
