// Google-benchmark microbenchmarks of the Marlin substrates: the hot
// per-message operations of the pipeline (grid indexing, codec, actor
// messaging, storage, model inference). These quantify the per-message cost
// budget behind the Figure-6 plateau.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "actor/actor_system.h"
#include "ais/codec.h"
#include "ais/preprocess.h"
#include "events/collision.h"
#include "events/proximity.h"
#include "events/switch_off.h"
#include "events/traffic_flow.h"
#include "geo/geodesy.h"
#include "hexgrid/hexgrid.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "stream/broker.h"
#include "util/rng.h"
#include "vrf/linear_model.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

void BM_HexGridLatLngToCell(benchmark::State& state) {
  Rng rng(1);
  std::vector<LatLng> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back(LatLng{rng.Uniform(-70, 70), rng.Uniform(-179, 179)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HexGrid::LatLngToCell(points[i++ & 1023], 9));
  }
}
BENCHMARK(BM_HexGridLatLngToCell);

void BM_HexGridKRing(benchmark::State& state) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HexGrid::KRing(cell, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_HexGridKRing)->Arg(1)->Arg(3);

void BM_AisCodecEncode(benchmark::State& state) {
  AisPosition report;
  report.mmsi = 237123456;
  report.timestamp = 1700000000LL * kMicrosPerSecond;
  report.position = LatLng{37.95, 23.64};
  report.sog_knots = 14.2;
  report.cog_deg = 215.5;
  report.heading_deg = 216;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AisCodec::EncodePosition(report));
  }
}
BENCHMARK(BM_AisCodecEncode);

void BM_AisCodecDecode(benchmark::State& state) {
  AisPosition report;
  report.mmsi = 237123456;
  report.timestamp = 1700000000LL * kMicrosPerSecond;
  report.position = LatLng{37.95, 23.64};
  report.sog_knots = 14.2;
  report.cog_deg = 215.5;
  const std::string sentence = AisCodec::EncodePosition(report);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AisCodec::DecodePosition(sentence, report.timestamp));
  }
}
BENCHMARK(BM_AisCodecDecode);

// Cost of one hot-path metric update — this rides on every actor message,
// so it must stay in the few-nanosecond range.
void BM_ObsCounterIncrement(benchmark::State& state) {
  static obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_ObsCounterIncrement)->Threads(1)->Threads(8);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::Histogram histogram;
  int64_t nanos = 1;
  for (auto _ : state) {
    histogram.Observe(nanos);
    nanos = (nanos * 7) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(histogram.Count());
}
BENCHMARK(BM_ObsHistogramObserve)->Threads(1)->Threads(8);

void BM_ObsRegistryRender(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) {
    registry
        .GetCounter("bench_total", "bench", {{"k", std::to_string(i)}})
        ->Increment(i);
    registry
        .GetHistogram("bench_nanos", "bench", {{"k", std::to_string(i)}})
        ->Observe(i * 1000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.RenderPrometheus());
  }
}
BENCHMARK(BM_ObsRegistryRender);

void BM_KvStoreHSet(benchmark::State& state) {
  KvStore store;
  int i = 0;
  for (auto _ : state) {
    store.HSet("vessel:" + std::to_string(i & 1023), "lat", "37.95");
    ++i;
  }
}
BENCHMARK(BM_KvStoreHSet);

// One 6-field vessel state per iteration, cycling over 5K keys: written as
// one multi-field HSet (calls:1, the writer actor's path) or as six
// single-field HSets (calls:6). Both build the same field/value strings.
void BM_KvStoreHSetFields(benchmark::State& state) {
  constexpr int kKeys = 5000;
  const bool one_call = state.range(0) == 1;
  KvStore store;
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back("vessel:" + std::to_string(237000000 + k));
  }
  int i = 0;
  for (auto _ : state) {
    const std::string& key = keys[i % kKeys];
    KvStore::FieldValue fields[] = {
        {"lat", "37.951234"}, {"lon", "23.654321"},
        {"sog", "12.3"},      {"cog", "271.5"},
        {"ts", std::to_string(1700000000000000LL + i)},
        {"name", "MARLIN STAR"}};
    if (one_call) {
      benchmark::DoNotOptimize(store.HSet(key, fields));
    } else {
      for (KvStore::FieldValue& pair : fields) {
        benchmark::DoNotOptimize(
            store.HSet(key, pair.field, std::move(pair.value)));
      }
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreHSetFields)->ArgName("calls")->Arg(1)->Arg(6);

void BM_BrokerAppend(benchmark::State& state) {
  Broker broker;
  (void)broker.CreateTopic("bench", 8);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker.Append("bench", std::to_string(i & 255), "payload", i));
    ++i;
  }
}
BENCHMARK(BM_BrokerAppend);

/// Minimal counting actor for throughput measurement.
class CountActor : public Actor {
 public:
  Status Receive(const std::any& message, ActorContext& ctx) override {
    (void)ctx;
    if (std::any_cast<int>(&message) != nullptr) count_.fetch_add(1);
    return Status::Ok();
  }
  std::atomic<int64_t> count_{0};
};

void BM_ActorTellThroughput(benchmark::State& state) {
  ActorSystemConfig config;
  config.num_threads = 2;
  ActorSystem system(config);
  auto ref = system.SpawnActor<CountActor>("bench");
  for (auto _ : state) {
    system.Tell(*ref, 1);
  }
  system.AwaitQuiescence();
}
BENCHMARK(BM_ActorTellThroughput);

// Steady state: 500 vessels in a ~10 km square report once a second of
// stream time, and the detector prunes every 64 reports as CellActor does,
// so stored history and pair cooldowns stay bounded.
void BM_ProximityObserve(benchmark::State& state) {
  ProximityDetector detector;
  Rng rng(3);
  TimeMicros t = 0;
  int since_prune = 0;
  for (auto _ : state) {
    AisPosition report;
    report.mmsi = static_cast<Mmsi>(rng.UniformInt(uint64_t{500}));
    report.timestamp = t += kMicrosPerSecond;
    report.position = LatLng{38.0 + rng.Uniform(-0.05, 0.05),
                             24.0 + rng.Uniform(-0.05, 0.05)};
    benchmark::DoNotOptimize(detector.Observe(report));
    if (++since_prune >= 64) {
      since_prune = 0;
      detector.Prune(t);
    }
  }
}
BENCHMARK(BM_ProximityObserve);

// A fixed fleet of 2000 forecast trajectories in a 1-degree square, anchored
// at time 0; the forecaster cases below re-observe it once a minute of
// stream time.
constexpr int kForecastFleet = 2000;

std::vector<ForecastTrajectory> ForecastFleet() {
  Rng rng(5);
  std::vector<ForecastTrajectory> fleet;
  for (int v = 0; v < kForecastFleet; ++v) {
    ForecastTrajectory trajectory;
    trajectory.mmsi = static_cast<Mmsi>(v + 1);
    LatLng position{rng.Uniform(37.5, 38.5), rng.Uniform(23.5, 24.5)};
    const double cog = rng.Uniform(0.0, 360.0);
    const double step_m = rng.Uniform(2.0, 15.0) * kKnotsToMps * 300.0;
    for (int i = 0; i <= kSvrfOutputSteps; ++i) {
      trajectory.points.push_back(
          ForecastPoint{position, static_cast<TimeMicros>(i) * kSvrfStepMicros});
      position = DestinationPoint(position, cog, step_m);
    }
    fleet.push_back(std::move(trajectory));
  }
  return fleet;
}

// Steady state: each fleet trajectory re-observed once a minute of stream
// time (shifted to the new anchor time), with a Prune every 64 observations
// as CollisionActor does.
void BM_CollisionObserve(benchmark::State& state) {
  const std::vector<ForecastTrajectory> fleet = ForecastFleet();
  CollisionForecaster forecaster;
  const TimeMicros spacing = kMicrosPerMinute / kForecastFleet;
  TimeMicros t = 0;
  size_t next = 0;
  int since_prune = 0;
  ForecastTrajectory observed;
  for (auto _ : state) {
    observed = fleet[next];
    for (ForecastPoint& point : observed.points) point.time += t;
    benchmark::DoNotOptimize(forecaster.Observe(observed));
    if (++since_prune >= 64) {
      since_prune = 0;
      forecaster.Prune(t);
    }
    next = (next + 1) % fleet.size();
    t += spacing;
  }
}
BENCHMARK(BM_CollisionObserve);

// The same fleet and cadence through the traffic-flow raster, with a Prune
// every 1024 observations as TrafficActor does.
void BM_TrafficFlowObserve(benchmark::State& state) {
  const std::vector<ForecastTrajectory> fleet = ForecastFleet();
  TrafficFlowForecaster forecaster;
  const TimeMicros spacing = kMicrosPerMinute / kForecastFleet;
  TimeMicros t = 0;
  size_t next = 0;
  int since_prune = 0;
  ForecastTrajectory observed;
  for (auto _ : state) {
    observed = fleet[next];
    for (ForecastPoint& point : observed.points) point.time += t;
    forecaster.Observe(observed);
    if (++since_prune >= 1024) {
      since_prune = 0;
      forecaster.Prune(t);
    }
    next = (next + 1) % fleet.size();
    t += spacing;
  }
  benchmark::DoNotOptimize(forecaster.TrackedVessels());
}
BENCHMARK(BM_TrafficFlowObserve);

// Surveillance-actor pattern: every tracked vessel reports every 10 s of
// stream time, and Check runs once per 256 reports. The 30-minute silence
// threshold is never reached, so the bound skips every scan.
void BM_SwitchOffCheck(benchmark::State& state) {
  const int vessels = static_cast<int>(state.range(0));
  SwitchOffDetector detector;
  const TimeMicros spacing = 10 * kMicrosPerSecond / vessels;
  TimeMicros t = 0;
  AisPosition report;
  report.position = LatLng{38.0, 24.0};
  for (int round = 0; round < 6; ++round) {
    for (int v = 0; v < vessels; ++v) {
      report.mmsi = static_cast<Mmsi>(v + 1);
      report.timestamp = t += spacing;
      detector.Observe(report);
    }
  }
  int next = 0;
  int since_check = 0;
  for (auto _ : state) {
    report.mmsi = static_cast<Mmsi>(next + 1);
    report.timestamp = t += spacing;
    detector.Observe(report);
    if (++since_check >= 256) {
      since_check = 0;
      benchmark::DoNotOptimize(detector.Check(t));
    }
    next = (next + 1) % vessels;
  }
}
BENCHMARK(BM_SwitchOffCheck)->Arg(1000)->Arg(30000);

SvrfInput MakeInput() {
  SvrfInput input;
  for (int i = 0; i < kSvrfInputLength; ++i) {
    input.displacements[i] = {0.001, 0.002, 60.0};
  }
  input.anchor = LatLng{38.0, 24.0};
  input.anchor_sog_knots = 12.0;
  input.anchor_cog_deg = 90.0;
  return input;
}

void BM_LinearForecast(benchmark::State& state) {
  LinearKinematicModel model;
  const SvrfInput input = MakeInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forecast(input));
  }
}
BENCHMARK(BM_LinearForecast);

void BM_SvrfForecast(benchmark::State& state) {
  SvrfModel::Config config;
  config.hidden_dim = static_cast<int>(state.range(0));
  config.dense_dim = static_cast<int>(state.range(0));
  SvrfModel model(config);
  const SvrfInput input = MakeInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forecast(input));
  }
}
BENCHMARK(BM_SvrfForecast)->Arg(12)->Arg(16)->Arg(32);

}  // namespace
}  // namespace marlin

BENCHMARK_MAIN();
