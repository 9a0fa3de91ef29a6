#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "events/collision.h"
#include "sim/collision_eval.h"
#include "events/proximity.h"
#include "events/switch_off.h"
#include "events/traffic_flow.h"
#include "hexgrid/hexgrid.h"
#include "sim/proximity_dataset.h"
#include "util/rng.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

AisPosition At(Mmsi mmsi, TimeMicros t, double lat, double lon,
               double sog = 10.0, double cog = 0.0) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = sog;
  p.cog_deg = cog;
  return p;
}

/// Straight constant-velocity forecast trajectory starting at (lat, lon).
ForecastTrajectory MakeTrajectory(Mmsi mmsi, TimeMicros start, double lat,
                                  double lon, double cog, double sog_knots) {
  ForecastTrajectory trajectory;
  trajectory.mmsi = mmsi;
  LatLng pos{lat, lon};
  const double step_m = sog_knots * kKnotsToMps * 300.0;
  for (int i = 0; i <= kSvrfOutputSteps; ++i) {
    trajectory.points.push_back(
        ForecastPoint{pos, start + i * kSvrfStepMicros});
    pos = DestinationPoint(pos, cog, step_m);
  }
  return trajectory;
}

// ----------------------------------------------------- ProximityDetector

TEST(ProximityDetectorTest, DetectsClosePair) {
  ProximityDetector detector;
  EXPECT_TRUE(detector.Observe(At(1, 0, 38.0, 24.0)).empty());
  // 200 m east, 30 s later.
  const LatLng near = DestinationPoint(LatLng{38.0, 24.0}, 90.0, 200.0);
  const auto events = detector.Observe(
      At(2, 30 * kMicrosPerSecond, near.lat_deg, near.lon_deg));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kProximity);
  EXPECT_EQ(events[0].vessel_a, 2u);
  EXPECT_EQ(events[0].vessel_b, 1u);
  EXPECT_NEAR(events[0].distance_m, 200.0, 20.0);
}

TEST(ProximityDetectorTest, IgnoresFarPair) {
  ProximityDetector detector;
  detector.Observe(At(1, 0, 38.0, 24.0));
  const LatLng far = DestinationPoint(LatLng{38.0, 24.0}, 90.0, 2000.0);
  EXPECT_TRUE(
      detector.Observe(At(2, 10 * kMicrosPerSecond, far.lat_deg, far.lon_deg))
          .empty());
}

TEST(ProximityDetectorTest, DetectsAcrossCellBoundary) {
  // Place two vessels 300 m apart straddling a cell boundary: find a point
  // whose 300 m-east neighbour is in a different res-9 cell.
  ProximityDetector detector;
  LatLng a{38.0, 24.0};
  LatLng b = a;
  for (double lon = 24.0; lon < 25.0; lon += 0.001) {
    a = LatLng{38.0, lon};
    b = DestinationPoint(a, 90.0, 300.0);
    if (HexGrid::LatLngToCell(a, 9) != HexGrid::LatLngToCell(b, 9)) break;
  }
  ASSERT_NE(HexGrid::LatLngToCell(a, 9), HexGrid::LatLngToCell(b, 9));
  detector.Observe(At(1, 0, a.lat_deg, a.lon_deg));
  const auto events =
      detector.Observe(At(2, kMicrosPerSecond, b.lat_deg, b.lon_deg));
  ASSERT_EQ(events.size(), 1u);
}

TEST(ProximityDetectorTest, TimeWindowExcludesStaleObservations) {
  ProximityDetector detector;
  detector.Observe(At(1, 0, 38.0, 24.0));
  // Same spot, 10 minutes later: not simultaneous.
  EXPECT_TRUE(detector.Observe(At(2, 10 * kMicrosPerMinute, 38.0, 24.0)).empty());
}

TEST(ProximityDetectorTest, PairCooldownSuppressesDuplicates) {
  ProximityDetector detector;
  TimeMicros t = 0;
  detector.Observe(At(1, t, 38.0, 24.0));
  int events = 0;
  for (int i = 1; i <= 6; ++i) {
    t += 60 * kMicrosPerSecond;
    detector.Observe(At(1, t, 38.0, 24.0));
    events +=
        static_cast<int>(detector.Observe(At(2, t + 1000, 38.0, 24.0005)).size());
  }
  EXPECT_EQ(events, 1);  // deduped within the 10-minute cooldown
}

TEST(ProximityDetectorTest, SameVesselNeverSelfMatches) {
  ProximityDetector detector;
  detector.Observe(At(1, 0, 38.0, 24.0));
  EXPECT_TRUE(detector.Observe(At(1, 30 * kMicrosPerSecond, 38.0, 24.0)).empty());
}

TEST(ProximityDetectorTest, PruneDropsOldObservations) {
  ProximityDetector detector;
  for (int i = 0; i < 10; ++i) {
    detector.Observe(At(static_cast<Mmsi>(100 + i), i * kMicrosPerSecond,
                        38.0 + i * 0.1, 24.0));
  }
  EXPECT_EQ(detector.StoredObservations(), 10u);
  detector.Prune(2 * 60 * kMicrosPerMinute);
  EXPECT_EQ(detector.StoredObservations(), 0u);
}

// ----------------------------------------------------- SwitchOffDetector

TEST(SwitchOffDetectorTest, RaisesAfterSilence) {
  SwitchOffDetector detector;
  TimeMicros t = 0;
  for (int i = 0; i < 10; ++i) {
    detector.Observe(At(7, t, 38.0, 24.0));
    t += 60 * kMicrosPerSecond;
  }
  EXPECT_TRUE(detector.Check(t + 5 * kMicrosPerMinute).empty());
  const auto events = detector.Check(t + 45 * kMicrosPerMinute);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kAisSwitchOff);
  EXPECT_EQ(events[0].vessel_a, 7u);
  // One event per episode.
  EXPECT_TRUE(detector.Check(t + 90 * kMicrosPerMinute).empty());
}

TEST(SwitchOffDetectorTest, TransmissionResetsEpisode) {
  SwitchOffDetector detector;
  TimeMicros t = 0;
  for (int i = 0; i < 10; ++i) {
    detector.Observe(At(7, t, 38.0, 24.0));
    t += 60 * kMicrosPerSecond;
  }
  ASSERT_EQ(detector.Check(t + 45 * kMicrosPerMinute).size(), 1u);
  // Vessel transmits again, then goes silent again: a second event.
  t += 60 * kMicrosPerMinute;
  detector.Observe(At(7, t, 38.0, 24.0));
  const auto events = detector.Check(t + 60 * kMicrosPerMinute);
  ASSERT_EQ(events.size(), 1u);
}

TEST(SwitchOffDetectorTest, SparseTransmittersGetAdaptiveThreshold) {
  SwitchOffDetector detector;
  // Vessel with ~10-minute cadence (satellite coverage): 35 minutes of
  // silence is within 8x its typical interval, so no alarm.
  TimeMicros t = 0;
  for (int i = 0; i < 8; ++i) {
    detector.Observe(At(9, t, 38.0, 24.0));
    t += 10 * kMicrosPerMinute;
  }
  EXPECT_TRUE(detector.Check(t + 35 * kMicrosPerMinute).empty());
  EXPECT_FALSE(detector.Check(t + 100 * kMicrosPerMinute).empty());
}

TEST(SwitchOffDetectorTest, RequiresBaselineObservations) {
  SwitchOffDetector detector;
  detector.Observe(At(5, 0, 38.0, 24.0));
  EXPECT_TRUE(detector.Check(5 * 60 * kMicrosPerMinute).empty());
}

// ---------------------------------------------------- CollisionForecaster

TEST(CollisionForecasterTest, HeadOnCoursesCollide) {
  CollisionForecaster forecaster;
  const TimeMicros start = 1000 * kMicrosPerSecond;
  // Two vessels 6 km apart sailing directly at each other at 12 knots:
  // closing speed ~24 knots -> meet after ~8 minutes, inside the window.
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 6000.0);
  EXPECT_TRUE(forecaster
                  .Observe(MakeTrajectory(1, start, a.lat_deg, a.lon_deg, 90.0,
                                          12.0))
                  .empty());
  const auto events = forecaster.Observe(
      MakeTrajectory(2, start, b.lat_deg, b.lon_deg, 270.0, 12.0));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kCollisionForecast);
  EXPECT_GT(events[0].event_time, start);
  EXPECT_LT(events[0].event_time, start + 30 * kMicrosPerMinute);
  EXPECT_LT(events[0].distance_m, 500.0);
}

TEST(CollisionForecasterTest, ParallelCoursesDoNotCollide) {
  CollisionForecaster forecaster;
  const TimeMicros start = 0;
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 0.0, 5000.0);  // 5 km north
  forecaster.Observe(MakeTrajectory(1, start, a.lat_deg, a.lon_deg, 90.0, 12.0));
  EXPECT_TRUE(forecaster
                  .Observe(MakeTrajectory(2, start, b.lat_deg, b.lon_deg, 90.0,
                                          12.0))
                  .empty());
}

TEST(CollisionForecasterTest, CrossingAtDifferentTimesRespectsThreshold) {
  // Both vessels pass through the same point, but 4 minutes apart.
  // With a 2-minute temporal threshold: no collision. With 5: collision.
  const TimeMicros start = 0;
  const LatLng cross{38.0, 24.0};
  const double sog = 12.0;
  const double speed_mps = sog * kKnotsToMps;
  // Vessel 1 reaches `cross` after 10 min heading east.
  const LatLng start1 = DestinationPoint(cross, 270.0, speed_mps * 600.0);
  // Vessel 2 reaches `cross` after 14 min heading north.
  const LatLng start2 = DestinationPoint(cross, 180.0, speed_mps * 840.0);

  CollisionForecaster::Config strict;
  strict.temporal_threshold = 2 * kMicrosPerMinute;
  CollisionForecaster strict_forecaster(strict);
  strict_forecaster.Observe(
      MakeTrajectory(1, start, start1.lat_deg, start1.lon_deg, 90.0, sog));
  EXPECT_TRUE(strict_forecaster
                  .Observe(MakeTrajectory(2, start, start2.lat_deg,
                                          start2.lon_deg, 0.0, sog))
                  .empty());

  CollisionForecaster::Config loose;
  loose.temporal_threshold = 5 * kMicrosPerMinute;
  CollisionForecaster loose_forecaster(loose);
  loose_forecaster.Observe(
      MakeTrajectory(1, start, start1.lat_deg, start1.lon_deg, 90.0, sog));
  EXPECT_FALSE(loose_forecaster
                   .Observe(MakeTrajectory(2, start, start2.lat_deg,
                                           start2.lon_deg, 0.0, sog))
                   .empty());
}

TEST(CollisionForecasterTest, NewTrajectoryReplacesOld) {
  CollisionForecaster forecaster;
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 6000.0);
  // Vessel 1 initially on collision course, then updates to a diverging
  // course before vessel 2 appears.
  forecaster.Observe(MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0));
  forecaster.Observe(
      MakeTrajectory(1, 5 * kMicrosPerMinute, a.lat_deg, a.lon_deg, 270.0, 12.0));
  const auto events = forecaster.Observe(
      MakeTrajectory(2, 5 * kMicrosPerMinute, b.lat_deg, b.lon_deg, 270.0, 12.0));
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(forecaster.TrackedVessels(), 2u);
}

TEST(CollisionForecasterTest, CooldownSuppressesRepeatAlerts) {
  CollisionForecaster forecaster;
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 6000.0);
  int alerts = 0;
  for (int i = 0; i < 5; ++i) {
    const TimeMicros t = i * kMicrosPerMinute;
    forecaster.Observe(MakeTrajectory(1, t, a.lat_deg, a.lon_deg, 90.0, 12.0));
    alerts += static_cast<int>(
        forecaster
            .Observe(MakeTrajectory(2, t, b.lat_deg, b.lon_deg, 270.0, 12.0))
            .size());
  }
  EXPECT_EQ(alerts, 1);
}

TEST(CollisionForecasterTest, PruneDropsStaleTrajectories) {
  CollisionForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  forecaster.Observe(MakeTrajectory(2, 0, 39.0, 25.0, 90.0, 12.0));
  EXPECT_EQ(forecaster.TrackedVessels(), 2u);
  forecaster.Prune(2 * 60 * kMicrosPerMinute);
  EXPECT_EQ(forecaster.TrackedVessels(), 0u);
}

// ------------------------------------------------ Pruning oracles
//
// The event detectors skip work that cannot produce an event (bounding-box
// and latitude-gap bounds in the collision sampler, an earliest-deadline
// bound in the switch-off scan). These references are the brute-force
// versions the pruned code replaced; the detectors must match them bit for
// bit.

bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

bool SameBits(const LatLng& x, const LatLng& y) {
  return SameBits(x.lat_deg, y.lat_deg) && SameBits(x.lon_deg, y.lon_deg);
}

constexpr TimeMicros kRefSampleStep = 30 * kMicrosPerSecond;

LatLng RefSample(const ForecastTrajectory& trajectory, TimeMicros t) {
  const auto& points = trajectory.points;
  if (t <= points.front().time) return points.front().position;
  if (t >= points.back().time) return points.back().position;
  for (size_t i = 1; i < points.size(); ++i) {
    if (t <= points[i].time) {
      const double span =
          static_cast<double>(points[i].time - points[i - 1].time);
      const double f =
          span <= 0.0
              ? 0.0
              : static_cast<double>(t - points[i - 1].time) / span;
      LatLng out;
      out.lat_deg = points[i - 1].position.lat_deg +
                    f * (points[i].position.lat_deg -
                         points[i - 1].position.lat_deg);
      out.lon_deg = points[i - 1].position.lon_deg +
                    f * (points[i].position.lon_deg -
                         points[i - 1].position.lon_deg);
      return out;
    }
  }
  return points.back().position;
}

/// Brute-force CollisionForecaster::Intersects: samples `b` afresh for
/// every (ta, tb) and evaluates every distance.
bool RefIntersects(const ForecastTrajectory& a, const ForecastTrajectory& b,
                   const CollisionForecaster::Config& config,
                   TimeMicros* meet_time, LatLng* meet_point,
                   double* distance_m) {
  const TimeMicros start =
      std::max(a.points.front().time, b.points.front().time) -
      config.temporal_threshold;
  const TimeMicros end =
      std::min(a.points.back().time, b.points.back().time) +
      config.temporal_threshold;
  if (start > end) return false;
  bool found = false;
  double best_distance = config.spatial_threshold_m;
  for (TimeMicros ta = start; ta <= end; ta += kRefSampleStep) {
    if (ta < a.points.front().time || ta > a.points.back().time) continue;
    const LatLng pa = RefSample(a, ta);
    const TimeMicros tb_min =
        std::max(ta - config.temporal_threshold, b.points.front().time);
    const TimeMicros tb_max =
        std::min(ta + config.temporal_threshold, b.points.back().time);
    for (TimeMicros tb = tb_min; tb <= tb_max; tb += kRefSampleStep) {
      const LatLng pb = RefSample(b, tb);
      const double d = ApproxDistanceMeters(pa, pb);
      if (d <= best_distance) {
        best_distance = d;
        *meet_time = ta / 2 + tb / 2;
        meet_point->lat_deg = 0.5 * (pa.lat_deg + pb.lat_deg);
        meet_point->lon_deg = 0.5 * (pa.lon_deg + pb.lon_deg);
        *distance_m = d;
        found = true;
      }
    }
  }
  return found;
}

/// Brute-force MinTrajectoryDistance (first minimum wins ties).
double RefMinTrajectoryDistance(const ForecastTrajectory& a,
                                const ForecastTrajectory& b,
                                TimeMicros temporal_tolerance,
                                TimeMicros* meet_time, LatLng* meet_point) {
  double best = 1e18;
  if (a.points.empty() || b.points.empty()) return best;
  const TimeMicros start =
      std::max(a.points.front().time, b.points.front().time) -
      temporal_tolerance;
  const TimeMicros end = std::min(a.points.back().time, b.points.back().time) +
                         temporal_tolerance;
  for (TimeMicros ta = start; ta <= end; ta += kRefSampleStep) {
    if (ta < a.points.front().time || ta > a.points.back().time) continue;
    const LatLng pa = RefSample(a, ta);
    const TimeMicros tb_min =
        std::max(ta - temporal_tolerance, b.points.front().time);
    const TimeMicros tb_max =
        std::min(ta + temporal_tolerance, b.points.back().time);
    for (TimeMicros tb = tb_min; tb <= tb_max; tb += kRefSampleStep) {
      const LatLng pb = RefSample(b, tb);
      const double d = ApproxDistanceMeters(pa, pb);
      if (d < best) {
        best = d;
        *meet_time = ta / 2 + tb / 2;
        meet_point->lat_deg = 0.5 * (pa.lat_deg + pb.lat_deg);
        meet_point->lon_deg = 0.5 * (pa.lon_deg + pb.lon_deg);
      }
    }
  }
  return best;
}

/// A random trajectory for the oracle: usually the forecaster's 7 points at
/// 5-minute spacing, sometimes 2-9 points at irregular (even zero-length)
/// spacing; sometimes stationary, so that every sample pair ties.
ForecastTrajectory RandomTrajectory(Rng* rng, const LatLng& origin,
                                    TimeMicros start) {
  ForecastTrajectory trajectory;
  const bool regular = rng->NextDouble() < 0.7;
  const int points =
      regular ? kSvrfOutputSteps + 1 : static_cast<int>(rng->UniformInt(2, 9));
  const bool stationary = rng->NextDouble() < 0.1;
  const double cog = rng->Uniform(0.0, 360.0);
  const double sog = stationary ? 0.0 : rng->Uniform(0.5, 25.0);
  LatLng position = origin;
  TimeMicros t = start;
  for (int i = 0; i < points; ++i) {
    trajectory.points.push_back(ForecastPoint{position, t});
    const TimeMicros dt =
        regular ? kSvrfStepMicros : rng->UniformInt(0, 12 * kMicrosPerMinute);
    t += dt;
    if (!stationary) {
      const double turn = regular ? rng->Normal() * 5.0 : rng->Normal() * 60.0;
      position = DestinationPoint(position, cog + turn,
                                  sog * kKnotsToMps * static_cast<double>(dt) /
                                      kMicrosPerSecond);
    }
  }
  return trajectory;
}

LatLng RandomOrigin(Rng* rng) {
  switch (rng->UniformInt(uint64_t{4})) {
    case 0:  // high latitude, north or south
      return LatLng{(rng->NextDouble() < 0.5 ? 1.0 : -1.0) *
                        rng->Uniform(78.0, 82.0),
                    rng->Uniform(-180.0, 180.0)};
    case 1:  // next to the antimeridian
      return LatLng{rng->Uniform(-60.0, 60.0),
                    (rng->NextDouble() < 0.5 ? 1.0 : -1.0) *
                        rng->Uniform(179.9, 180.0)};
    default:
      return LatLng{rng->Uniform(30.0, 45.0), rng->Uniform(-10.0, 30.0)};
  }
}

struct OracleCounts {
  int pairs = 0;
  int found = 0;
};

/// One random pair: `b` starts near `a` (some right at the spatial threshold,
/// some kilometres away) with a random time offset, some past the window.
OracleCounts CheckRandomPair(Rng* rng, TimeMicros temporal_threshold) {
  const LatLng origin = RandomOrigin(rng);
  const TimeMicros a_start = 1'700'000'000LL * kMicrosPerSecond +
                             rng->UniformInt(0, 3600 * kMicrosPerSecond);
  const ForecastTrajectory a = RandomTrajectory(rng, origin, a_start);
  TimeMicros offset;
  switch (rng->UniformInt(uint64_t{3})) {
    case 0:  // aligned to the sample grid
      offset = rng->UniformInt(-20, 20) * kRefSampleStep;
      break;
    case 1:  // past the temporal window
      offset = (rng->NextDouble() < 0.5 ? 1 : -1) *
               (30 * kMicrosPerMinute + temporal_threshold +
                rng->UniformInt(0, 10 * kMicrosPerMinute));
      break;
    default:  // arbitrary, off the grid
      offset = rng->UniformInt(-40 * kMicrosPerMinute, 40 * kMicrosPerMinute);
  }
  double separation_m;
  switch (rng->UniformInt(uint64_t{3})) {
    case 0:
      separation_m = rng->Uniform(0.0, 800.0);
      break;
    case 1:
      separation_m = 500.0 + rng->Normal() * 2.0;
      break;
    default:
      separation_m = rng->Uniform(0.0, 20000.0);
  }
  const LatLng b_origin =
      DestinationPoint(origin, rng->Uniform(0.0, 360.0), separation_m);
  const ForecastTrajectory b = RandomTrajectory(rng, b_origin, a_start + offset);

  CollisionForecaster::Config config;
  config.temporal_threshold = temporal_threshold;
  if (rng->NextDouble() < 0.05) {
    // The threshold equals an attainable distance exactly: ties at the
    // threshold must still count as intersections.
    config.spatial_threshold_m =
        ApproxDistanceMeters(a.points.front().position,
                             b.points.front().position);
  }
  const CollisionForecaster forecaster(config);

  OracleCounts counts;
  counts.pairs = 1;
  const LatLng sentinel{-999.0, -999.0};
  TimeMicros ref_time = -1, got_time = -1;
  LatLng ref_point = sentinel, got_point = sentinel;
  double ref_distance = -1.0, got_distance = -1.0;
  const bool ref_found = RefIntersects(a, b, config, &ref_time, &ref_point,
                                       &ref_distance);
  const bool got_found = forecaster.Intersects(a, b, &got_time, &got_point,
                                               &got_distance);
  EXPECT_EQ(got_found, ref_found);
  EXPECT_EQ(got_time, ref_time);
  EXPECT_TRUE(SameBits(got_point, ref_point));
  EXPECT_TRUE(SameBits(got_distance, ref_distance));
  counts.found = ref_found ? 1 : 0;

  TimeMicros ref_min_time = -1, got_min_time = -1;
  LatLng ref_min_point = sentinel, got_min_point = sentinel;
  const double ref_min = RefMinTrajectoryDistance(
      a, b, temporal_threshold, &ref_min_time, &ref_min_point);
  const double got_min = MinTrajectoryDistance(a, b, temporal_threshold,
                                               &got_min_time, &got_min_point);
  EXPECT_TRUE(SameBits(got_min, ref_min));
  EXPECT_EQ(got_min_time, ref_min_time);
  EXPECT_TRUE(SameBits(got_min_point, ref_min_point));
  return counts;
}

TEST(CollisionOracleTest, PrunedSamplingMatchesBruteForceBitwise) {
  for (const TimeMicros threshold :
       {2 * kMicrosPerMinute, 5 * kMicrosPerMinute}) {
    Rng rng(0xC011 + static_cast<uint64_t>(threshold));
    OracleCounts total;
    for (int i = 0; i < 60000; ++i) {
      const OracleCounts counts = CheckRandomPair(&rng, threshold);
      total.pairs += counts.pairs;
      total.found += counts.found;
      if (::testing::Test::HasFailure()) {
        FAIL() << "first mismatch at pair " << i << ", threshold "
               << threshold / kMicrosPerMinute << " min";
      }
    }
    // Both outcomes are well represented.
    EXPECT_GT(total.found, total.pairs / 10);
    EXPECT_LT(total.found, total.pairs * 9 / 10);
  }
}

/// Brute-force SwitchOffDetector: scans every vessel on every Check.
class RefSwitchOff {
 public:
  explicit RefSwitchOff(const SwitchOffDetector::Config& config)
      : config_(config) {}

  void Observe(const AisPosition& report) {
    State& state = vessels_[report.mmsi];
    if (state.observations > 0 && report.timestamp > state.last_seen) {
      const double interval_sec =
          static_cast<double>(report.timestamp - state.last_seen) /
          kMicrosPerSecond;
      const double threshold_sec =
          static_cast<double>(config_.silence_threshold) / kMicrosPerSecond;
      if (interval_sec < threshold_sec) {
        const double alpha = 0.2;
        state.mean_interval_sec =
            state.observations == 1
                ? interval_sec
                : (1.0 - alpha) * state.mean_interval_sec +
                      alpha * interval_sec;
      }
    }
    state.last_seen = std::max(state.last_seen, report.timestamp);
    state.last_position = report.position;
    ++state.observations;
    state.alarm_raised = false;
  }

  std::vector<MaritimeEvent> Check(TimeMicros now) {
    std::vector<MaritimeEvent> events;
    for (auto& [mmsi, state] : vessels_) {
      if (state.alarm_raised ||
          state.observations < config_.min_observations) {
        continue;
      }
      const TimeMicros adaptive = static_cast<TimeMicros>(
          config_.interval_factor * state.mean_interval_sec *
          kMicrosPerSecond);
      const TimeMicros threshold =
          std::max(config_.silence_threshold, adaptive);
      if (now - state.last_seen > threshold) {
        state.alarm_raised = true;
        MaritimeEvent event;
        event.type = EventType::kAisSwitchOff;
        event.vessel_a = mmsi;
        event.detected_at = now;
        event.event_time = state.last_seen;
        event.location = state.last_position;
        events.push_back(event);
      }
    }
    return events;
  }

 private:
  struct State {
    TimeMicros last_seen = 0;
    LatLng last_position;
    double mean_interval_sec = 0.0;
    int observations = 0;
    bool alarm_raised = false;
  };
  SwitchOffDetector::Config config_;
  std::unordered_map<Mmsi, State> vessels_;
};

TEST(SwitchOffOracleTest, DeadlineBoundMatchesFullScan) {
  SwitchOffDetector::Config tight;
  tight.silence_threshold = 5 * kMicrosPerMinute;
  tight.interval_factor = 3.0;
  tight.min_observations = 1;
  int total_events = 0;
  for (const SwitchOffDetector::Config& config :
       {SwitchOffDetector::Config(), tight}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919 + static_cast<uint64_t>(config.min_observations));
      SwitchOffDetector detector(config);
      RefSwitchOff reference(config);
      // Per vessel: cadence (regular, or sparse satellite-like), and the
      // stream time it next transmits; vessels go silent and resume.
      struct Vessel {
        TimeMicros cadence;
        TimeMicros next;
      };
      std::vector<Vessel> vessels;
      for (int v = 0; v < 150; ++v) {
        const TimeMicros cadence =
            rng.NextDouble() < 0.2
                ? rng.UniformInt(8 * kMicrosPerMinute, 40 * kMicrosPerMinute)
                : rng.UniformInt(5 * kMicrosPerSecond, 3 * kMicrosPerMinute);
        vessels.push_back(Vessel{cadence, rng.UniformInt(0, cadence)});
      }
      TimeMicros now = 0;
      int checks = 0;
      for (int step = 0; step < 4000; ++step) {
        now += rng.UniformInt(1, 60) * kMicrosPerSecond;
        for (size_t v = 0; v < vessels.size(); ++v) {
          Vessel& vessel = vessels[v];
          while (vessel.next <= now) {
            AisPosition report;
            report.mmsi = static_cast<Mmsi>(1000 + v);
            // Occasionally delivered late, out of order.
            report.timestamp =
                vessel.next - (rng.NextDouble() < 0.05
                                   ? rng.UniformInt(0, 10 * kMicrosPerMinute)
                                   : 0);
            report.position = LatLng{rng.Uniform(30.0, 40.0),
                                     rng.Uniform(10.0, 20.0)};
            detector.Observe(report);
            reference.Observe(report);
            vessel.next += vessel.cadence;
            // Switch-offs: silent for up to 3 hours.
            if (rng.NextDouble() < 0.01) {
              vessel.next += rng.UniformInt(0, 180 * kMicrosPerMinute);
            }
          }
        }
        if (rng.NextDouble() < 0.3) {
          // Mostly the current time; sometimes a stale or early clock.
          TimeMicros at = now;
          if (rng.NextDouble() < 0.1) {
            at += rng.UniformInt(-20 * kMicrosPerMinute, 20 * kMicrosPerMinute);
          }
          const auto got = detector.Check(at);
          const auto want = reference.Check(at);
          ++checks;
          ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " check "
                                             << checks;
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].vessel_a, want[i].vessel_a);
            EXPECT_EQ(got[i].detected_at, want[i].detected_at);
            EXPECT_EQ(got[i].event_time, want[i].event_time);
            EXPECT_TRUE(SameBits(got[i].location, want[i].location));
          }
          total_events += static_cast<int>(want.size());
        }
      }
    }
  }
  EXPECT_GT(total_events, 500);
}

// --------------------------------------------- Bounded pair-cooldown state

/// Without pruning, a pair's cooldown entry holds the time of its last
/// event. The events are therefore unchanged by pruning exactly when every
/// pair's consecutive events are at least `cooldown` apart (measured as the
/// detector measures it): a pruned entry that would have suppressed an event
/// shows up as two events closer than that.
void ExpectCooldownsRespected(const std::vector<MaritimeEvent>& events,
                              TimeMicros cooldown) {
  std::map<uint64_t, TimeMicros> last;
  for (const MaritimeEvent& event : events) {
    const uint64_t key = PairKey(event.vessel_a, event.vessel_b);
    auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_GE(event.detected_at - it->second, cooldown)
          << event.vessel_a << "/" << event.vessel_b;
    }
    last[key] = event.detected_at;
  }
}

TEST(ProximityDetectorTest, CooldownMapPlateausOverLongStream) {
  ProximityDetector detector;
  Rng rng(42);
  // 40 vessels in a 1.5 km square; every 20 minutes of stream time one slot
  // is taken over by a new MMSI, so distinct pairs keep growing.
  std::vector<Mmsi> slots;
  for (Mmsi m = 1; m <= 40; ++m) slots.push_back(m);
  Mmsi next_mmsi = 41;
  std::vector<MaritimeEvent> events;
  std::set<uint64_t> pairs;
  size_t early_max = 0, late_max = 0;
  const TimeMicros hours = 24;
  for (TimeMicros t = 0; t < hours * 60 * kMicrosPerMinute;
       t += 30 * kMicrosPerSecond) {
    if (t % (20 * kMicrosPerMinute) == 0 && t > 0) {
      slots[rng.UniformInt(uint64_t{slots.size()})] = next_mmsi++;
    }
    for (Mmsi mmsi : slots) {
      const auto found = detector.Observe(
          At(mmsi, t + rng.UniformInt(0, 29 * kMicrosPerSecond),
             38.0 + rng.Uniform(0.0, 0.0135), 24.0 + rng.Uniform(0.0, 0.017)));
      for (const MaritimeEvent& e : found) {
        pairs.insert(PairKey(e.vessel_a, e.vessel_b));
        events.push_back(e);
      }
    }
    if (t % kMicrosPerMinute == 0) {
      detector.Prune(t);
      size_t& peak = t < hours * 30 * kMicrosPerMinute ? early_max : late_max;
      peak = std::max(peak, detector.CooldownEntries());
    }
  }
  ExpectCooldownsRespected(events, detector.config().pair_cooldown);
  // The map holds recent pairs only: it stops growing while the number of
  // distinct pairs keeps climbing.
  EXPECT_GT(pairs.size(), 4 * late_max);
  EXPECT_LE(late_max, early_max + early_max / 4);
}

TEST(CollisionForecasterTest, CooldownMapPlateausOverLongStream) {
  CollisionForecaster::Config config;
  CollisionForecaster forecaster(config);
  Rng rng(43);
  std::vector<Mmsi> slots;
  for (Mmsi m = 1; m <= 30; ++m) slots.push_back(m);
  Mmsi next_mmsi = 31;
  std::vector<MaritimeEvent> events;
  std::set<uint64_t> pairs;
  size_t early_max = 0, late_max = 0;
  const TimeMicros hours = 24;
  for (TimeMicros t = 0; t < hours * 60 * kMicrosPerMinute;
       t += kMicrosPerMinute) {
    if (t % (15 * kMicrosPerMinute) == 0 && t > 0) {
      slots[rng.UniformInt(uint64_t{slots.size()})] = next_mmsi++;
    }
    for (Mmsi mmsi : slots) {
      // Vessels criss-cross a 6 km square at 5-15 knots.
      const auto found = forecaster.Observe(MakeTrajectory(
          mmsi, t, 38.0 + rng.Uniform(0.0, 0.054),
          24.0 + rng.Uniform(0.0, 0.068), rng.Uniform(0.0, 360.0),
          rng.Uniform(5.0, 15.0)));
      for (const MaritimeEvent& e : found) {
        pairs.insert(PairKey(e.vessel_a, e.vessel_b));
        events.push_back(e);
      }
    }
    if (t % (5 * kMicrosPerMinute) == 0) {
      forecaster.Prune(t);
      size_t& peak = t < hours * 30 * kMicrosPerMinute ? early_max : late_max;
      peak = std::max(peak, forecaster.CooldownEntries());
    }
  }
  ExpectCooldownsRespected(events, config.pair_cooldown);
  EXPECT_GT(pairs.size(), 4 * late_max);
  EXPECT_LE(late_max, early_max + early_max / 4);
}

// ------------------------------------------------------------------ VTFF

TEST(TrafficFlowTest, CountsVesselsPerCellAndWindow) {
  TrafficFlowForecaster forecaster;
  // Three vessels forecast through the same area eastward.
  for (Mmsi m = 1; m <= 3; ++m) {
    forecaster.Observe(
        MakeTrajectory(m, 0, 38.0, 24.0 + 0.001 * m, 90.0, 12.0));
  }
  EXPECT_EQ(forecaster.TrackedVessels(), 3u);
  // At every horizon the total count across cells is 3.
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    int total = 0;
    for (const FlowCell& cell : forecaster.Flow(step)) total += cell.count;
    EXPECT_EQ(total, 3) << "step " << step;
  }
  // The cell ahead of the fleet has traffic at the right horizon.
  const LatLng probe = DestinationPoint(LatLng{38.0, 24.0}, 90.0,
                                        12.0 * kKnotsToMps * 300.0);
  EXPECT_GT(forecaster.FlowAt(probe, 1), 0);
}

TEST(TrafficFlowTest, ReobservationReplacesContribution) {
  TrafficFlowForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  // Updated forecast far away: old cells must be vacated.
  forecaster.Observe(MakeTrajectory(1, kMicrosPerMinute, 45.0, 10.0, 90.0, 12.0));
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    int total = 0;
    for (const FlowCell& cell : forecaster.Flow(step)) total += cell.count;
    EXPECT_EQ(total, 1);
  }
  EXPECT_EQ(forecaster.FlowAt(DestinationPoint(LatLng{38.0, 24.0}, 90.0, 1800.0), 1),
            0);
}

TEST(TrafficFlowTest, InvalidStepYieldsEmpty) {
  TrafficFlowForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  EXPECT_TRUE(forecaster.Flow(0).empty());
  EXPECT_TRUE(forecaster.Flow(kSvrfOutputSteps + 1).empty());
  EXPECT_EQ(forecaster.FlowAt(LatLng{38.0, 24.0}, 0), 0);
}

TEST(TrafficFlowTest, PruneRemovesStaleVessels) {
  TrafficFlowForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  forecaster.Prune(60 * kMicrosPerMinute);
  EXPECT_EQ(forecaster.TrackedVessels(), 0u);
  EXPECT_TRUE(forecaster.Flow(1).empty());
}

// ------------------------------------------- Incremental cell index oracles
//
// CollisionForecaster and TrafficFlowForecaster update their cell indexes by
// the difference between a vessel's previous and new trajectory. These
// references are the remove-all/re-add versions they replaced; the detectors
// must report the same events, tracked vessels and flow counts.

/// Cells a collision trajectory covers: each valid point's cell plus its
/// neighbours, sorted and unique.
std::vector<CellId> RefCoveredCells(const ForecastTrajectory& trajectory,
                                    int resolution) {
  std::vector<CellId> cells;
  for (const ForecastPoint& point : trajectory.points) {
    const CellId cell = HexGrid::LatLngToCell(point.position, resolution);
    if (cell == kInvalidCellId) continue;
    for (CellId c : HexGrid::KRing(cell, 1)) cells.push_back(c);
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

/// CollisionForecaster that drops a vessel's whole cell registration and
/// re-inserts the new one on every Observe, with hash-set candidates.
class RefCollision {
 public:
  explicit RefCollision(const CollisionForecaster::Config& config)
      : config_(config), geometry_(config) {}

  std::vector<MaritimeEvent> Observe(const ForecastTrajectory& trajectory) {
    std::vector<MaritimeEvent> events;
    if (trajectory.points.empty()) return events;
    const Mmsi mmsi = trajectory.mmsi;
    if (auto it = vessel_cells_.find(mmsi); it != vessel_cells_.end()) {
      Unregister(mmsi, it->second);
    }
    std::vector<CellId> cells =
        RefCoveredCells(trajectory, config_.resolution);
    std::unordered_set<Mmsi> candidates;
    for (CellId cell : cells) {
      auto& bucket = cell_vessels_[cell];
      for (Mmsi other : bucket) candidates.insert(other);
      bucket.insert(mmsi);
    }
    trajectories_[mmsi] = trajectory;
    vessel_cells_[mmsi] = std::move(cells);

    const TimeMicros now = trajectory.points.front().time;
    for (Mmsi other : candidates) {
      if (other == mmsi) continue;
      auto other_it = trajectories_.find(other);
      if (other_it == trajectories_.end()) continue;
      TimeMicros meet_time = 0;
      LatLng meet_point;
      double distance = 0.0;
      if (!geometry_.Intersects(trajectory, other_it->second, &meet_time,
                                &meet_point, &distance)) {
        continue;
      }
      const uint64_t key = PairKey(mmsi, other);
      auto last_it = last_alert_.find(key);
      if (last_it != last_alert_.end() &&
          now - last_it->second < config_.pair_cooldown) {
        continue;
      }
      last_alert_[key] = now;
      MaritimeEvent event;
      event.type = EventType::kCollisionForecast;
      event.vessel_a = mmsi;
      event.vessel_b = other;
      event.detected_at = now;
      event.event_time = meet_time;
      event.location = meet_point;
      event.distance_m = distance;
      events.push_back(event);
    }
    return events;
  }

  void Prune(TimeMicros now) {
    const TimeMicros cutoff = now - config_.retention;
    for (auto it = trajectories_.begin(); it != trajectories_.end();) {
      if (it->second.points.front().time < cutoff) {
        if (auto cells_it = vessel_cells_.find(it->first);
            cells_it != vessel_cells_.end()) {
          Unregister(it->first, cells_it->second);
          vessel_cells_.erase(cells_it);
        }
        it = trajectories_.erase(it);
      } else {
        ++it;
      }
    }
    const TimeMicros alert_cutoff = cutoff - config_.pair_cooldown;
    std::erase_if(last_alert_, [alert_cutoff](const auto& entry) {
      return entry.second < alert_cutoff;
    });
  }

  size_t TrackedVessels() const { return trajectories_.size(); }

  /// The cell index rebuilt from the live trajectories: each covered cell's
  /// vessels, sorted.
  std::map<CellId, std::vector<Mmsi>> RebuiltIndex() const {
    std::map<CellId, std::vector<Mmsi>> index;
    for (const auto& [mmsi, trajectory] : trajectories_) {
      for (CellId cell : RefCoveredCells(trajectory, config_.resolution)) {
        index[cell].push_back(mmsi);
      }
    }
    for (auto& [cell, members] : index) {
      std::sort(members.begin(), members.end());
    }
    return index;
  }

 private:
  void Unregister(Mmsi mmsi, const std::vector<CellId>& cells) {
    for (CellId cell : cells) {
      auto cell_it = cell_vessels_.find(cell);
      if (cell_it != cell_vessels_.end()) {
        cell_it->second.erase(mmsi);
        if (cell_it->second.empty()) cell_vessels_.erase(cell_it);
      }
    }
  }

  CollisionForecaster::Config config_;
  CollisionForecaster geometry_;  // Only its Intersects is used.
  std::unordered_map<Mmsi, ForecastTrajectory> trajectories_;
  std::unordered_map<Mmsi, std::vector<CellId>> vessel_cells_;
  std::unordered_map<CellId, std::unordered_set<Mmsi>> cell_vessels_;
  std::unordered_map<uint64_t, TimeMicros> last_alert_;
};

/// TrafficFlowForecaster that removes every step of a vessel's previous
/// contribution and re-adds all six on every Observe.
class RefTrafficFlow {
 public:
  explicit RefTrafficFlow(const TrafficFlowForecaster::Config& config)
      : config_(config), counts_(kSvrfOutputSteps) {}

  void Observe(const ForecastTrajectory& trajectory) {
    if (trajectory.points.size() < static_cast<size_t>(kSvrfOutputSteps) + 1) {
      return;
    }
    if (auto it = per_vessel_.find(trajectory.mmsi); it != per_vessel_.end()) {
      Remove(it->second.cells);
    }
    Contribution contribution;
    contribution.anchor_time = trajectory.points.front().time;
    for (int step = 0; step < kSvrfOutputSteps; ++step) {
      const CellId cell = HexGrid::LatLngToCell(
          trajectory.points[static_cast<size_t>(step) + 1].position,
          config_.resolution);
      contribution.cells.push_back(cell);
      if (cell != kInvalidCellId) ++counts_[static_cast<size_t>(step)][cell];
    }
    per_vessel_[trajectory.mmsi] = std::move(contribution);
  }

  void Prune(TimeMicros now) {
    const TimeMicros cutoff = now - config_.retention;
    for (auto it = per_vessel_.begin(); it != per_vessel_.end();) {
      if (it->second.anchor_time < cutoff) {
        Remove(it->second.cells);
        it = per_vessel_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Non-zero counts of horizon step 1..6, sorted by cell.
  std::vector<std::pair<CellId, int>> Flow(int step) const {
    const auto& bucket = counts_[static_cast<size_t>(step) - 1];
    std::vector<std::pair<CellId, int>> out(bucket.begin(), bucket.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  size_t TrackedVessels() const { return per_vessel_.size(); }

 private:
  struct Contribution {
    TimeMicros anchor_time = 0;
    std::vector<CellId> cells;
  };

  void Remove(const std::vector<CellId>& cells) {
    for (int step = 0; step < kSvrfOutputSteps; ++step) {
      auto& bucket = counts_[static_cast<size_t>(step)];
      auto cell_it = bucket.find(cells[static_cast<size_t>(step)]);
      if (cell_it != bucket.end() && --cell_it->second <= 0) {
        bucket.erase(cell_it);
      }
    }
  }

  TrafficFlowForecaster::Config config_;
  std::unordered_map<Mmsi, Contribution> per_vessel_;
  std::vector<std::unordered_map<CellId, int>> counts_;
};

std::vector<std::pair<CellId, int>> SortedFlow(
    const TrafficFlowForecaster& forecaster, int step) {
  std::vector<std::pair<CellId, int>> out;
  for (const FlowCell& cell : forecaster.Flow(step)) {
    out.emplace_back(cell.cell, cell.count);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A random forecast stream over a 15 km square, a few resolution-7 cells
/// wide: a pool of 40 vessel slots whose MMSIs repeat, depart and sometimes
/// return after a long silence; a forecast every 0-20 s of stream time from
/// moving positions, with occasional points that map to kInvalidCellId and
/// trajectories shorter than the seven forecast points.
class ForecastStream {
 public:
  explicit ForecastStream(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 40; ++i) slots_.push_back(NewVessel());
  }

  ForecastTrajectory Next() {
    t_ += rng_.UniformInt(0, 20 * kMicrosPerSecond);
    Vessel& vessel = slots_[rng_.UniformInt(uint64_t{slots_.size()})];
    const double u = rng_.NextDouble();
    if (u < 0.01) {
      departed_.push_back(vessel.mmsi);
      vessel = NewVessel();
    } else if (u < 0.02 && !departed_.empty()) {
      departed_.push_back(vessel.mmsi);
      vessel = NewVessel();
      vessel.mmsi = departed_[rng_.UniformInt(uint64_t{departed_.size()})];
    }
    // Advance the vessel to now; it turns a little between reports.
    const double dt_s =
        static_cast<double>(t_ - vessel.last_time) / kMicrosPerSecond;
    vessel.position = DestinationPoint(
        vessel.position, vessel.cog, vessel.sog * kKnotsToMps * dt_s);
    vessel.last_time = t_;
    vessel.cog += rng_.Normal() * 10.0;
    if (!InBox(vessel.position)) {
      vessel.cog = InitialBearingDeg(vessel.position, LatLng{38.07, 24.085});
    }

    ForecastTrajectory trajectory =
        MakeTrajectory(vessel.mmsi, t_, vessel.position.lat_deg,
                       vessel.position.lon_deg, vessel.cog, vessel.sog);
    const double v = rng_.NextDouble();
    if (v < 0.05) {
      trajectory.points[rng_.UniformInt(uint64_t{trajectory.points.size()})]
          .position.lat_deg = std::nan("");
    } else if (v < 0.07) {
      for (ForecastPoint& point : trajectory.points) {
        point.position.lon_deg = std::nan("");
      }
    } else if (v < 0.10) {
      trajectory.points.resize(rng_.UniformInt(uint64_t{kSvrfOutputSteps}));
    }
    return trajectory;
  }

  TimeMicros now() const { return t_; }
  Rng* rng() { return &rng_; }

 private:
  struct Vessel {
    Mmsi mmsi = 0;
    LatLng position;
    double cog = 0.0;
    double sog = 0.0;
    TimeMicros last_time = 0;
  };

  static bool InBox(const LatLng& p) {
    return p.lat_deg >= 38.0 && p.lat_deg <= 38.135 && p.lon_deg >= 24.0 &&
           p.lon_deg <= 24.17;
  }

  Vessel NewVessel() {
    Vessel vessel;
    vessel.mmsi = next_mmsi_++;
    vessel.position =
        LatLng{rng_.Uniform(38.0, 38.135), rng_.Uniform(24.0, 24.17)};
    vessel.cog = rng_.Uniform(0.0, 360.0);
    vessel.sog = rng_.Uniform(5.0, 30.0);
    vessel.last_time = t_;
    return vessel;
  }

  Rng rng_;
  TimeMicros t_ = 1'700'000'000LL * kMicrosPerSecond;
  Mmsi next_mmsi_ = 200'000'001;
  std::vector<Vessel> slots_;
  std::vector<Mmsi> departed_;
};

void ExpectSameEvent(const MaritimeEvent& got, const MaritimeEvent& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.vessel_a, want.vessel_a);
  EXPECT_EQ(got.vessel_b, want.vessel_b);
  EXPECT_EQ(got.detected_at, want.detected_at);
  EXPECT_EQ(got.event_time, want.event_time);
  EXPECT_TRUE(SameBits(got.location, want.location));
  EXPECT_TRUE(SameBits(got.distance_m, want.distance_m));
}

/// The forecaster's cell index equals the one rebuilt from the reference's
/// live trajectories: same cells, same members, no empty bucket.
void ExpectIndexRebuilt(const CollisionForecaster& forecaster,
                        const RefCollision& ref) {
  const auto index = ref.RebuiltIndex();
  ASSERT_EQ(forecaster.IndexedCells(), index.size());
  for (const auto& [cell, members] : index) {
    std::vector<Mmsi> got = forecaster.CellMembers(cell);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, members) << "cell " << cell;
  }
}

TEST(IncrementalIndexOracleTest, CollisionMatchesRemoveAllReAdd) {
  for (const TimeMicros threshold :
       {2 * kMicrosPerMinute, 5 * kMicrosPerMinute}) {
    CollisionForecaster::Config config;
    config.temporal_threshold = threshold;
    CollisionForecaster forecaster(config);
    RefCollision ref(config);
    ForecastStream stream(0x1DE7 + static_cast<uint64_t>(threshold));
    std::map<Mmsi, std::vector<CellId>> last_cells;
    std::map<uint64_t, int> alerts_per_pair;
    int moved = 0, events = 0, suppressed = 0;
    for (int i = 0; i < 4000; ++i) {
      if (stream.rng()->NextDouble() < 0.03) {
        forecaster.Prune(stream.now());
        ref.Prune(stream.now());
      } else {
        const ForecastTrajectory trajectory = stream.Next();
        if (!trajectory.points.empty()) {
          auto& cells = last_cells[trajectory.mmsi];
          auto covered = RefCoveredCells(trajectory, config.resolution);
          if (!cells.empty() && !covered.empty() && covered != cells) ++moved;
          cells = std::move(covered);
        }
        const auto got = forecaster.Observe(trajectory);
        auto want = ref.Observe(trajectory);
        std::sort(want.begin(), want.end(),
                  [](const MaritimeEvent& x, const MaritimeEvent& y) {
                    return x.vessel_b < y.vessel_b;
                  });
        ASSERT_EQ(got.size(), want.size()) << "call " << i;
        for (size_t k = 0; k < got.size(); ++k) {
          if (k > 0) {
            EXPECT_LT(got[k - 1].vessel_b, got[k].vessel_b);
          }
          ExpectSameEvent(got[k], want[k]);
          ++alerts_per_pair[PairKey(got[k].vessel_a, got[k].vessel_b)];
        }
        events += static_cast<int>(got.size());
      }
      ASSERT_EQ(forecaster.TrackedVessels(), ref.TrackedVessels());
      ExpectIndexRebuilt(forecaster, ref);
      if (::testing::Test::HasFailure()) FAIL() << "first mismatch at " << i;
    }
    for (const auto& [pair, alerts] : alerts_per_pair) {
      if (alerts > 1) ++suppressed;
    }
    // The stream exercises what the index diff must get right: vessels that
    // change cells, alerts, and pairs that alert again after a cooldown.
    EXPECT_GT(moved, 500);
    EXPECT_GT(events, 50);
    EXPECT_GT(suppressed, 5);
  }
}

TEST(IncrementalIndexOracleTest, TrafficFlowMatchesRemoveAllReAdd) {
  TrafficFlowForecaster::Config config;
  TrafficFlowForecaster forecaster(config);
  RefTrafficFlow ref(config);
  ForecastStream stream(0x7AFF1C);
  std::map<Mmsi, std::vector<CellId>> last_cells;
  int changed_steps = 0, kept_steps = 0;
  for (int i = 0; i < 4000; ++i) {
    if (stream.rng()->NextDouble() < 0.03) {
      forecaster.Prune(stream.now());
      ref.Prune(stream.now());
    } else {
      const ForecastTrajectory trajectory = stream.Next();
      if (trajectory.points.size() > static_cast<size_t>(kSvrfOutputSteps)) {
        std::vector<CellId> cells;
        for (int step = 1; step <= kSvrfOutputSteps; ++step) {
          cells.push_back(HexGrid::LatLngToCell(
              trajectory.points[static_cast<size_t>(step)].position,
              config.resolution));
        }
        auto& last = last_cells[trajectory.mmsi];
        for (size_t s = 0; s < last.size(); ++s) {
          ++(last[s] == cells[s] ? kept_steps : changed_steps);
        }
        last = std::move(cells);
      }
      forecaster.Observe(trajectory);
      ref.Observe(trajectory);
    }
    ASSERT_EQ(forecaster.TrackedVessels(), ref.TrackedVessels());
    for (int step = 1; step <= kSvrfOutputSteps; ++step) {
      ASSERT_EQ(SortedFlow(forecaster, step), ref.Flow(step))
          << "call " << i << " step " << step;
    }
  }
  EXPECT_GT(changed_steps, 1000);
  EXPECT_GT(kept_steps, 1000);
}

// ------------------------------------------------ Retention plateaus
//
// A day of traffic in which vessels arrive, forecast once a minute for
// 20-90 minutes and depart for good, pruned the way the actors prune. The
// detectors' state must stop growing once arrivals and departures balance,
// while the number of distinct vessels keeps climbing.

struct Voyage {
  Mmsi mmsi = 0;
  LatLng position;
  double cog = 0.0;
  double sog = 0.0;
  TimeMicros depart = 0;
};

Voyage NewVoyage(Rng* rng, Mmsi mmsi, TimeMicros now) {
  Voyage voyage;
  voyage.mmsi = mmsi;
  voyage.position = LatLng{rng->Uniform(37.5, 38.5), rng->Uniform(23.5, 24.5)};
  voyage.cog = rng->Uniform(0.0, 360.0);
  voyage.sog = rng->Uniform(5.0, 20.0);
  voyage.depart = now + rng->UniformInt(20 * kMicrosPerMinute,
                                        90 * kMicrosPerMinute);
  return voyage;
}

/// Calls `visit(trajectory)` for each forecast of the day and
/// `sample(first_half)` once per stream minute.
template <typename Visit, typename Sample>
void RunVoyages(uint64_t seed, Visit visit, Sample sample, Mmsi* arrivals) {
  Rng rng(seed);
  std::vector<Voyage> fleet;
  Mmsi next_mmsi = 1;
  for (int i = 0; i < 60; ++i) fleet.push_back(NewVoyage(&rng, next_mmsi++, 0));
  const TimeMicros day = 24 * 60 * kMicrosPerMinute;
  for (TimeMicros t = 0; t < day; t += kMicrosPerMinute) {
    for (Voyage& voyage : fleet) {
      if (t >= voyage.depart) voyage = NewVoyage(&rng, next_mmsi++, t);
      visit(MakeTrajectory(voyage.mmsi, t, voyage.position.lat_deg,
                           voyage.position.lon_deg, voyage.cog, voyage.sog));
      voyage.position = DestinationPoint(voyage.position, voyage.cog,
                                         voyage.sog * kKnotsToMps * 60.0);
    }
    sample(t < day / 2);
  }
  *arrivals = next_mmsi - 1;
}

/// Peak of one gauge in each half of the day.
struct Peaks {
  size_t early = 0;
  size_t late = 0;
  void Sample(bool first_half, size_t value) {
    size_t& peak = first_half ? early : late;
    peak = std::max(peak, value);
  }
};

void ExpectPlateau(const Peaks& peaks, Mmsi arrivals, const char* gauge) {
  EXPECT_GT(peaks.late, 0u) << gauge;
  EXPECT_LE(peaks.late, peaks.early + peaks.early / 4) << gauge;
  // The gauge is bounded by the live fleet, not by every vessel seen.
  EXPECT_GT(arrivals, 4 * peaks.late) << gauge;
}

TEST(RetentionPlateauTest, CollisionTrajectoriesAndIndexPlateau) {
  CollisionForecaster forecaster;
  int since_prune = 0;
  Peaks tracked, cells;
  Mmsi arrivals = 0;
  RunVoyages(
      0x9A7E,
      [&](const ForecastTrajectory& trajectory) {
        forecaster.Observe(trajectory);
        if (++since_prune >= 64) {  // as CollisionActor
          since_prune = 0;
          forecaster.Prune(trajectory.points.front().time);
        }
      },
      [&](bool first_half) {
        tracked.Sample(first_half, forecaster.TrackedVessels());
        cells.Sample(first_half, forecaster.IndexedCells());
      },
      &arrivals);
  ExpectPlateau(tracked, arrivals, "tracked vessels");
  ExpectPlateau(cells, arrivals, "indexed cells");
}

TEST(RetentionPlateauTest, TrafficFlowVesselsAndCountsPlateau) {
  TrafficFlowForecaster forecaster;
  int since_prune = 0;
  Peaks tracked, counted;
  Mmsi arrivals = 0;
  RunVoyages(
      0x7AF1,
      [&](const ForecastTrajectory& trajectory) {
        forecaster.Observe(trajectory);
        if (++since_prune >= 1024) {  // as TrafficActor
          since_prune = 0;
          forecaster.Prune(trajectory.points.front().time);
        }
      },
      [&](bool first_half) {
        size_t cells = 0;
        for (int step = 1; step <= kSvrfOutputSteps; ++step) {
          cells += forecaster.Flow(step).size();
        }
        tracked.Sample(first_half, forecaster.TrackedVessels());
        counted.Sample(first_half, cells);
      },
      &arrivals);
  ExpectPlateau(tracked, arrivals, "tracked vessels");
  ExpectPlateau(counted, arrivals, "non-zero count cells");
}

TEST(DirectTrafficTest, MovingAverageOverWindows) {
  DirectTrafficForecaster forecaster;
  const LatLng spot{38.0, 24.0};
  // Window 1: 4 vessels. Window 2: 2 vessels.
  for (Mmsi m = 1; m <= 4; ++m) forecaster.Observe(At(m, 0, 38.0, 24.0));
  forecaster.Roll(5 * kMicrosPerMinute);
  for (Mmsi m = 1; m <= 2; ++m) {
    forecaster.Observe(At(m, 6 * kMicrosPerMinute, 38.0, 24.0));
  }
  forecaster.Roll(10 * kMicrosPerMinute);
  EXPECT_NEAR(forecaster.Forecast(spot, 1), 3.0, 1e-9);
}

TEST(DirectTrafficTest, DistinctVesselsCountedOncePerWindow) {
  DirectTrafficForecaster forecaster;
  for (int i = 0; i < 10; ++i) {
    forecaster.Observe(At(1, i * kMicrosPerSecond, 38.0, 24.0));
  }
  forecaster.Roll(5 * kMicrosPerMinute);
  EXPECT_NEAR(forecaster.Forecast(LatLng{38.0, 24.0}, 1), 1.0, 1e-9);
}

TEST(DirectTrafficTest, UnseenCellForecastsZero) {
  DirectTrafficForecaster forecaster;
  EXPECT_DOUBLE_EQ(forecaster.Forecast(LatLng{0.0, 0.0}, 1), 0.0);
}

// -------------------------------------------------------- Collision eval

TEST(CollisionEvalTest, LinearModelScoresWellOnSyntheticDataset) {
  ProximityDatasetConfig config;
  config.events_under_2min = 15;
  config.events_2_to_5min = 20;
  config.events_5_to_12min = 15;
  config.negatives = 20;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  LinearKinematicModel model;
  const CollisionEvalResult result = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kAll, 5 * kMicrosPerMinute);
  EXPECT_EQ(result.total_events, 50);
  EXPECT_EQ(result.tp + result.fn, 50);
  // Straight-line encounters: dead reckoning should catch most.
  EXPECT_GT(result.recall, 0.8) << "tp=" << result.tp << " fn=" << result.fn;
  EXPECT_GT(result.precision, 0.8) << "fp=" << result.fp;
  EXPECT_GT(result.accuracy, 0.7);
  EXPECT_LE(result.accuracy, 1.0);
}

TEST(CollisionEvalTest, SubsetsFilterEvents) {
  ProximityDatasetConfig config;
  config.events_under_2min = 10;
  config.events_2_to_5min = 10;
  config.events_5_to_12min = 10;
  config.negatives = 5;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  LinearKinematicModel model;
  const auto all = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kAll, 2 * kMicrosPerMinute);
  const auto sub_a = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kUnder2, 2 * kMicrosPerMinute);
  const auto sub_b = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kUnder5, 5 * kMicrosPerMinute);
  EXPECT_EQ(all.total_events, 30);
  EXPECT_EQ(sub_a.total_events, 10);
  EXPECT_EQ(sub_b.total_events, 20);
}

TEST(CollisionEvalTest, MetricsAreConsistent) {
  ProximityDatasetConfig config;
  config.events_under_2min = 5;
  config.events_2_to_5min = 5;
  config.events_5_to_12min = 5;
  config.negatives = 5;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  LinearKinematicModel model;
  const auto r = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kAll, 2 * kMicrosPerMinute);
  if (r.tp + r.fp > 0) {
    EXPECT_NEAR(r.precision,
                static_cast<double>(r.tp) / (r.tp + r.fp), 1e-12);
  }
  EXPECT_NEAR(r.recall, static_cast<double>(r.tp) / (r.tp + r.fn), 1e-12);
  EXPECT_NEAR(r.accuracy,
              static_cast<double>(r.tp) / (r.tp + r.fp + r.fn), 1e-12);
}

}  // namespace
}  // namespace marlin
