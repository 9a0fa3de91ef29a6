// Writer output contract: after quiescence every field the writer actor
// publishes (vessel:<mmsi> and event:<shard>:<seq>) is byte-identical to the
// printf rendering of the report, forecast and event it came from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/static_registry.h"
#include "geo/geodesy.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

using FieldMap = std::map<std::string, std::string>;

std::string Printf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int length = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(length) + 1, '\0');
  std::vsnprintf(out.data(), out.size(), format, args);
  va_end(args);
  out.resize(static_cast<size_t>(length));
  return out;
}

AisPosition Report(Mmsi mmsi, TimeMicros t, double lat, double lon,
                   double sog, double cog) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = sog;
  p.cog_deg = cog;
  return p;
}

/// The vessel hash as printf renders the last report and latest forecast.
FieldMap ExpectedVesselState(const AisPosition& last,
                             const StatusOr<ForecastTrajectory>& forecast,
                             const AisStatic* info) {
  FieldMap expected = {
      {"lat", Printf("%.6f", last.position.lat_deg)},
      {"lon", Printf("%.6f", last.position.lon_deg)},
      {"sog", Printf("%.1f", last.sog_knots)},
      {"cog", Printf("%.1f", last.cog_deg)},
      {"ts", Printf("%lld", static_cast<long long>(last.timestamp))}};
  if (info != nullptr) {
    expected["name"] = info->name;
    expected["type"] = std::string(VesselTypeName(info->type));
  }
  if (forecast.ok()) {
    std::string rendered;
    for (const ForecastPoint& point : forecast->points) {
      rendered += Printf("%.6f,%.6f,%lld;", point.position.lat_deg,
                         point.position.lon_deg,
                         static_cast<long long>(point.time));
    }
    expected["forecast"] = rendered;
  }
  return expected;
}

FieldMap ExpectedEvent(const MaritimeEvent& event) {
  return {{"type", std::string(EventTypeName(event.type))},
          {"vessel_a", Printf("%u", event.vessel_a)},
          {"vessel_b", Printf("%u", event.vessel_b)},
          {"time", Printf("%lld", static_cast<long long>(event.event_time))},
          {"location", Printf("%.6f,%.6f", event.location.lat_deg,
                              event.location.lon_deg)},
          {"distance_m", Printf("%.1f", event.distance_m)}};
}

/// Final-report values that stress the fixed renderings: signs and -0.0,
/// exact ties at the 6th (2^-7 multiples) and 1st decimal, rounding
/// boundaries, the AIS sog/cog sentinels, non-finite values and magnitudes
/// whose rendering is far longer than 64 characters.
struct EdgeCase {
  double lat, lon, sog, cog;
};

std::vector<EdgeCase> EdgeCases() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {-0.0, -0.0, -0.0, 0.0},
      {-33.8688, -151.2093, 102.3, 360.0},
      {0.0078125, -0.0234375, 0.25, 0.75},
      {38.0078125, 24.0000005, 102.25, 359.95},
      {0.0000005, -0.0000005, 0.05, 0.15},
      {-12.3456785, 179.9999995, 9.95, 0.05},
      {nan, -nan, nan, inf},
      {inf, -inf, -inf, -nan},
      {1e50, -1e50, 1e50, -1e50},
      {-1e22, 1e22, 1e30, 1e40},
      {-DBL_MAX, DBL_MAX, DBL_MAX, -DBL_MAX},
  };
}

TEST(WriterContractTest, StoreFieldsMatchPrintfRenderings) {
  constexpr Mmsi kTrackBase = 300000000;
  constexpr Mmsi kEdgeBase = 400000000;
  constexpr int kPairs = 8;
  constexpr int kSteps = kSvrfInputLength + 6;

  StaticRegistry registry;
  AisStatic named;
  named.mmsi = kTrackBase;
  named.name = "CONTRACT, \"ONE\"";
  named.type = VesselType::kTanker;
  registry.Put(named);
  registry.Freeze();

  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.batched_inference = true;
  config.inference_batch_size = 8;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  pipeline.SetStaticRegistry(&registry);
  ASSERT_TRUE(pipeline.Start().ok());

  std::mt19937_64 rng(20240325);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::map<Mmsi, AisPosition> last;
  auto feed = [&](const AisPosition& report) {
    ASSERT_TRUE(pipeline.Ingest(report).ok());
    last[report.mmsi] = report;
  };

  // Pairs of vessels ~150 m apart steaming together (proximity events),
  // spread over both hemispheres and across the equator and meridian.
  std::vector<LatLng> lead(kPairs);
  std::vector<double> course(kPairs), speed(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    lead[p] = LatLng{-40.0 + 80.0 * unit(rng), -170.0 + 340.0 * unit(rng)};
    if (p == 0) lead[p] = LatLng{-0.01, -0.01};
    course[p] = 360.0 * unit(rng);
    speed[p] = 5.0 + 15.0 * unit(rng);
  }
  for (int step = 0; step < kSteps; ++step) {
    const TimeMicros t = static_cast<TimeMicros>(step) * kMicrosPerMinute;
    for (int p = 0; p < kPairs; ++p) {
      const LatLng follower = DestinationPoint(lead[p], 0.0, 150.0);
      const double sog = speed[p] + unit(rng);
      feed(Report(kTrackBase + 2 * p, t, lead[p].lat_deg, lead[p].lon_deg, sog,
                  course[p]));
      feed(Report(kTrackBase + 2 * p + 1, t + kMicrosPerSecond,
                  follower.lat_deg, follower.lon_deg, sog, course[p]));
      lead[p] = DestinationPoint(lead[p], course[p],
                                 speed[p] * kKnotsToMps * 60.0);
    }
  }

  // One vessel per edge case: a regular track, then the edge values as its
  // last report (so its last forecast is computed from them too).
  const std::vector<EdgeCase> cases = EdgeCases();
  for (size_t c = 0; c < cases.size(); ++c) {
    const Mmsi mmsi = kEdgeBase + static_cast<Mmsi>(c);
    LatLng position{10.0 + static_cast<double>(c), 20.0};
    for (int step = 0; step < kSvrfInputLength + 1; ++step) {
      feed(Report(mmsi, static_cast<TimeMicros>(step) * kMicrosPerMinute,
                  position.lat_deg, position.lon_deg, 10.0, 90.0));
      position = DestinationPoint(position, 90.0, 10.0 * kKnotsToMps * 60.0);
    }
    const EdgeCase& e = cases[c];
    feed(Report(mmsi,
                static_cast<TimeMicros>(kSvrfInputLength + 1) *
                    kMicrosPerMinute,
                e.lat, e.lon, e.sog, e.cog));
  }
  pipeline.AwaitQuiescence();

  ASSERT_GT(pipeline.Stats().forecasts_generated, 0);
  EXPECT_EQ(pipeline.store().ScanPrefix("vessel:").size(), last.size());
  int with_forecast = 0;
  for (const auto& [mmsi, report] : last) {
    const StatusOr<ForecastTrajectory> forecast = pipeline.LatestForecast(mmsi);
    with_forecast += forecast.ok() ? 1 : 0;
    EXPECT_EQ(pipeline.store().HGetAll("vessel:" + std::to_string(mmsi)),
              ExpectedVesselState(report, forecast, registry.Find(mmsi)))
        << "vessel " << mmsi;
  }
  EXPECT_EQ(with_forecast, static_cast<int>(last.size()));

  // Every event the writer received (RecentEvents keeps the last 1024,
  // merged by detection time) against every event:* hash, as multisets.
  const std::vector<MaritimeEvent> recent = pipeline.RecentEvents(1024);
  ASSERT_FALSE(recent.empty());
  ASSERT_LT(recent.size(), 1024u);
  EXPECT_EQ(static_cast<int64_t>(recent.size()),
            pipeline.Stats().events_detected);
  std::vector<FieldMap> expected_events, stored_events;
  for (const MaritimeEvent& event : recent) {
    expected_events.push_back(ExpectedEvent(event));
  }
  for (const std::string& key : pipeline.store().ScanPrefix("event:")) {
    stored_events.push_back(pipeline.store().HGetAll(key));
  }
  std::sort(expected_events.begin(), expected_events.end());
  std::sort(stored_events.begin(), stored_events.end());
  EXPECT_EQ(stored_events, expected_events);
}

}  // namespace
}  // namespace marlin
