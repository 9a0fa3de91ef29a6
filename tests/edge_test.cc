// Edge-case coverage across substrates: boundary conditions the main unit
// suites don't pin down.

#include <gtest/gtest.h>

#include <memory>

#include "actor/actor_system.h"
#include "ais/preprocess.h"
#include "geo/geodesy.h"
#include "hexgrid/hexgrid.h"
#include "kvstore/kvstore.h"
#include "stream/broker.h"
#include "util/rng.h"

namespace marlin {
namespace {

// ------------------------------------------------------------------- geo

TEST(GeoEdgeTest, AntimeridianDistances) {
  // Two points straddling the antimeridian are close, not half a world
  // apart, when measured via haversine (which uses the angular delta).
  const LatLng west{0.0, 179.9};
  const LatLng east{0.0, -179.9};
  EXPECT_LT(HaversineMeters(west, east), 25000.0);
  // Destination point crossing the antimeridian wraps the longitude.
  const LatLng crossed = DestinationPoint(west, 90.0, 30000.0);
  EXPECT_LT(crossed.lon_deg, -179.0);
  EXPECT_GT(crossed.lon_deg, -181.0);
}

TEST(GeoEdgeTest, PolarLatitudesAreClamped) {
  const LatLng near_pole{89.9, 0.0};
  const LatLng beyond = DestinationPoint(near_pole, 0.0, 100000.0);
  EXPECT_LE(beyond.lat_deg, 90.0);
  EXPECT_GE(beyond.lat_deg, -90.0);
}

TEST(GeoEdgeTest, MetersToDegreesNearPoleDoesNotExplodeToInfinity) {
  double dlat, dlon;
  MetersToDegrees(1000.0, 1000.0, 90.0, &dlat, &dlon);
  EXPECT_TRUE(std::isfinite(dlat));
  EXPECT_TRUE(std::isfinite(dlon));
}

TEST(GeoEdgeTest, ZeroAreaBoundingBox) {
  BoundingBox point_box{38.0, 24.0, 38.0, 24.0};
  EXPECT_TRUE(point_box.Contains(LatLng{38.0, 24.0}));
  EXPECT_FALSE(point_box.Contains(LatLng{38.0, 24.0001}));
}

// --------------------------------------------------------------- hexgrid

TEST(HexGridEdgeTest, GridDistanceIsSymmetricAndTriangleBounded) {
  Rng rng(64);
  for (int i = 0; i < 200; ++i) {
    const int res = 7;
    const CellId a = HexGrid::LatLngToCell(
        LatLng{rng.Uniform(-60, 60), rng.Uniform(-170, 170)}, res);
    const CellId b = HexGrid::LatLngToCell(
        LatLng{rng.Uniform(-60, 60), rng.Uniform(-170, 170)}, res);
    const CellId c = HexGrid::LatLngToCell(
        LatLng{rng.Uniform(-60, 60), rng.Uniform(-170, 170)}, res);
    const int ab = HexGrid::GridDistance(a, b);
    const int ba = HexGrid::GridDistance(b, a);
    EXPECT_EQ(ab, ba);
    // Triangle inequality.
    EXPECT_LE(ab, HexGrid::GridDistance(a, c) + HexGrid::GridDistance(c, b));
  }
}

TEST(HexGridEdgeTest, KRingZeroIsJustTheCenter) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 7);
  const auto ring = HexGrid::KRing(cell, 0);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0], cell);
  EXPECT_TRUE(HexGrid::KRing(cell, -1).empty());
}

TEST(HexGridEdgeTest, EncodeOutOfRangeCoordinates) {
  EXPECT_EQ(HexGrid::Encode(7, int64_t{1} << 40, 0), kInvalidCellId);
  EXPECT_EQ(HexGrid::Encode(7, 0, -(int64_t{1} << 40)), kInvalidCellId);
}

// ------------------------------------------------------------ preprocess

TEST(PreprocessEdgeTest, OutOfOrderTrackStillSegments) {
  std::vector<AisPosition> track;
  for (int i = 0; i < 30; ++i) {
    AisPosition p;
    p.mmsi = 1;
    // One out-of-order blip at i == 10.
    p.timestamp = (i == 10 ? 5 : i) * kMicrosPerMinute;
    p.position = LatLng{38.0, 24.0 + i * 0.003};
    track.push_back(p);
  }
  const auto segments = SegmentTrajectory(track, 30 * kMicrosPerMinute);
  ASSERT_EQ(segments.size(), 1u);
  // Monotone timestamps within the segment (the blip is dropped).
  for (size_t i = 1; i < segments[0].size(); ++i) {
    EXPECT_GE(segments[0][i].timestamp, segments[0][i - 1].timestamp);
  }
}

TEST(PreprocessEdgeTest, HorizonExactlyAtSegmentEnd) {
  // A segment that ends exactly 30 minutes after an anchor still yields a
  // sample for that anchor (inclusive interpolation bound).
  std::vector<AisPosition> track;
  for (int i = 0; i <= kSvrfInputLength + 30; ++i) {
    AisPosition p;
    p.mmsi = 1;
    p.timestamp = static_cast<TimeMicros>(i) * kMicrosPerMinute;
    p.position = LatLng{38.0, 24.0 + i * 0.003};
    track.push_back(p);
  }
  SampleBuilderOptions options;
  options.downsample_interval = 0;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_FALSE(samples.empty());
  // The last anchor with a full horizon is at index size-31.
  const TimeMicros last_anchor_time = samples.back().input.anchor_time;
  EXPECT_EQ(last_anchor_time + kSvrfHorizonMicros, track.back().timestamp);
}

TEST(PreprocessEdgeTest, VesselHistoryLatestAccessor) {
  VesselHistory history;
  AisPosition p;
  p.mmsi = 9;
  p.timestamp = kMicrosPerMinute;
  p.position = LatLng{38.0, 24.0};
  ASSERT_TRUE(history.Push(p));
  ASSERT_NE(history.Latest(), nullptr);
  EXPECT_EQ(history.Latest()->timestamp, kMicrosPerMinute);
}

// ----------------------------------------------------------------- actor

class EchoActor : public Actor {
 public:
  Status Receive(const std::any& message, ActorContext& ctx) override {
    if (ctx.IsAsk()) ctx.Reply(message);
    return Status::Ok();
  }
};

TEST(ActorEdgeTest, AskEchoesArbitraryPayloads) {
  ActorSystem system;
  auto ref = system.SpawnActor<EchoActor>("echo");
  auto reply = system.Ask(*ref, std::string("payload"));
  EXPECT_EQ(std::any_cast<std::string>(reply.get()), "payload");
}

TEST(ActorEdgeTest, ScheduleTellAfterShutdownIsDropped) {
  ActorSystem system;
  auto ref = system.SpawnActor<EchoActor>("echo2");
  system.Shutdown();
  system.ScheduleTell(1000, *ref, 1);  // must not crash or hang
  SUCCEED();
}

TEST(ActorEdgeTest, TellWithDefaultConstructedRefIsFalse) {
  ActorSystem system;
  ActorRef empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(system.Tell(empty, 1));
}

TEST(ActorEdgeTest, ActorCountDropsOnStop) {
  ActorSystem system;
  auto a = system.SpawnActor<EchoActor>("a");
  auto b = system.SpawnActor<EchoActor>("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(system.ActorCount(), 2u);
  system.Stop(*a);
  EXPECT_EQ(system.ActorCount(), 1u);
}

// ---------------------------------------------------------------- broker

TEST(BrokerEdgeTest, PollZeroAndNegativeBudgets) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", 2).ok());
  broker.Append("t", "k", "v", 0);
  Consumer consumer(&broker, "g", "t");
  EXPECT_TRUE(consumer.Poll(0).empty());
  EXPECT_TRUE(consumer.Poll(-5).empty());
  EXPECT_EQ(consumer.Poll(10).size(), 1u);
}

TEST(BrokerEdgeTest, ReadNegativeOffsetClampsToStart) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", 1).ok());
  broker.Append("t", "k", "v0", 0);
  broker.Append("t", "k", "v1", 1);
  auto batch = broker.Read("t", 0, -100, 10);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].value, "v0");
}

TEST(BrokerEdgeTest, EmptyKeyRoutesConsistently) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", 8).ok());
  auto first = broker.Append("t", "", "a", 0);
  auto second = broker.Append("t", "", "b", 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->partition, second->partition);
}

// --------------------------------------------------------------- kvstore

TEST(KvStoreEdgeTest, HSetOverStringAfterSetSucceedsWhenDeleted) {
  KvStore store;
  store.Set("k", "string");
  EXPECT_FALSE(store.HSet("k", "f", "v").ok());
  store.Del("k");
  EXPECT_TRUE(store.HSet("k", "f", "v").ok());
  EXPECT_EQ(*store.HGet("k", "f"), "v");
}

TEST(KvStoreEdgeTest, SnapshotExcludesExpired) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("live", "1");
  store.Set("dead", "2");
  store.Expire("dead", 10);
  clock.AdvanceTo(clock.Now() + 20);
  const auto snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "live");
}

TEST(KvStoreEdgeTest, EmptyKeyAndValueWork) {
  KvStore store;
  store.Set("", "");
  EXPECT_TRUE(store.Exists(""));
  EXPECT_EQ(*store.Get(""), "");
}

}  // namespace
}  // namespace marlin
