#include "inputs.h"

#include <map>
#include <string_view>

#include "ais/codec.h"
#include "chk/fingerprint.h"
#include "sim/des/event_fleet.h"
#include "sim/des/scheduler.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using marlin::AisPosition;
using marlin::kMicrosPerSecond;
using marlin::TimeMicros;

/// Mixes a value's bytes, as laid out in memory, into the input hash.
template <typename T>
void Mix(marlin::chk::Fingerprint* fp, const T& value) {
  fp->MixBytes(
      std::string_view(reinterpret_cast<const char*>(&value), sizeof(value)));
}

/// Runs an event-driven fleet and returns every report in stream order.
std::vector<AisPosition> RunFleet(const marlin::World& world, int vessels,
                                  double arrival_span_sec, double seconds,
                                  uint64_t seed, TimeMicros* t0,
                                  marlin::Mmsi* mmsi_base = nullptr) {
  marlin::des::EventFleetConfig config;
  config.num_vessels = vessels;
  config.seed = seed;
  config.arrival_span_sec = arrival_span_sec;
  marlin::des::EventSchedulerConfig scheduler_config;
  scheduler_config.seed = seed;
  scheduler_config.start_time = config.start_time;
  marlin::des::EventScheduler scheduler(scheduler_config);
  std::vector<AisPosition> reports;
  marlin::des::EventFleet fleet(
      &world, config, &scheduler,
      [&reports](const AisPosition& report) { reports.push_back(report); });
  scheduler.RunUntil(config.start_time +
                     static_cast<TimeMicros>(seconds * kMicrosPerSecond));
  *t0 = config.start_time;
  if (mmsi_base != nullptr) *mmsi_base = config.mmsi_base;
  return reports;
}

}  // namespace

bool FindWorkload(const std::string& name, bool small, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "steady_forecast") {
    // Figure 6's plateau: a settled fleet, every vessel with a full S-VRF
    // window after the warm-up.
    s.vessels = small ? 500 : 5000;
    s.warmup_sec = 30 * 60;
    s.stream_sec = small ? 10 * 60 : 20 * 60;
    s.slice_sec = 2.0;
  } else if (name == "arrival_surge") {
    // Figure 6's initialisation phase on the broker path: mass actor
    // creation, no vessel old enough to forecast.
    s.vessels = small ? 3000 : 30000;
    s.arrival_span_sec = 5 * 60;
    s.stream_sec = small ? 6 * 60 : 5 * 60;
    s.slice_sec = 1.0;
    s.broker_path = true;
    s.setups_per_rep = 4;  // set-up is S-VRF training alone
  } else {
    return false;
  }
  *spec = s;
  return true;
}

Inputs GenerateInputs(const WorkloadSpec& spec, const marlin::World& world,
                      uint64_t seed) {
  Inputs in;
  in.reports = RunFleet(world, spec.vessels, spec.arrival_span_sec,
                        spec.warmup_sec + spec.stream_sec, seed, &in.t0,
                        &in.mmsi_base);
  // The harness indexes per-vessel state by mmsi - mmsi_base.
  const auto vessels = static_cast<marlin::Mmsi>(spec.vessels);
  for (const AisPosition& r : in.reports) {
    MARLIN_CHECK(r.mmsi >= in.mmsi_base && r.mmsi - in.mmsi_base < vessels);
  }
  const TimeMicros warmup_end =
      in.t0 + static_cast<TimeMicros>(spec.warmup_sec * kMicrosPerSecond);
  while (in.warmup_end < in.reports.size() &&
         in.reports[in.warmup_end].timestamp < warmup_end) {
    ++in.warmup_end;
  }
  marlin::chk::Fingerprint fp;
  if (spec.broker_path) {
    in.sentences.reserve(in.reports.size());
    for (const AisPosition& report : in.reports) {
      in.sentences.push_back(marlin::AisCodec::EncodePosition(report));
      fp.MixBytes(in.sentences.back());
      Mix(&fp, report.timestamp);
    }
  } else {
    for (const AisPosition& r : in.reports) {
      Mix(&fp, r.mmsi);
      Mix(&fp, r.timestamp);
      Mix(&fp, r.position.lat_deg);
      Mix(&fp, r.position.lon_deg);
      Mix(&fp, r.sog_knots);
      Mix(&fp, r.cog_deg);
      Mix(&fp, r.heading_deg);
      Mix(&fp, r.rot_deg_min);
      Mix(&fp, static_cast<int>(r.nav_status));
    }
  }
  in.hash = fp.Value();
  return in;
}

std::vector<marlin::SvrfSample> GenerateTrainingSamples(
    const marlin::World& world) {
  TimeMicros t0 = 0;
  const std::vector<AisPosition> reports =
      RunFleet(world, 60, 0.0, 6 * 3600.0, /*seed=*/99, &t0);
  std::map<marlin::Mmsi, std::vector<AisPosition>> tracks;
  for (const AisPosition& report : reports) {
    tracks[report.mmsi].push_back(report);
  }
  marlin::SampleBuilderOptions options;
  options.stride = 6;
  std::vector<marlin::SvrfSample> samples;
  for (const auto& [mmsi, track] : tracks) {
    const auto built = marlin::BuildSvrfSamples(track, options);
    samples.insert(samples.end(), built.begin(), built.end());
  }
  return samples;
}

}  // namespace perfbench
