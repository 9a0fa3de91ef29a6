#include "events/switch_off.h"

#include <algorithm>

namespace marlin {

SwitchOffDetector::SwitchOffDetector() : SwitchOffDetector(Config()) {}

SwitchOffDetector::SwitchOffDetector(const Config& config) : config_(config) {}

void SwitchOffDetector::Observe(const AisPosition& report) {
  VesselState& state = vessels_[report.mmsi];
  if (state.observations > 0 && report.timestamp > state.last_seen) {
    const double interval_sec =
        static_cast<double>(report.timestamp - state.last_seen) /
        kMicrosPerSecond;
    // Exponential moving average of the cadence. Silence-episode gaps (at
    // or beyond the alarm threshold) are outages, not cadence; folding them
    // in would inflate the adaptive threshold after every episode.
    const double threshold_sec =
        static_cast<double>(config_.silence_threshold) / kMicrosPerSecond;
    if (interval_sec < threshold_sec) {
      const double alpha = 0.2;
      state.mean_interval_sec =
          state.observations == 1
              ? interval_sec
              : (1.0 - alpha) * state.mean_interval_sec + alpha * interval_sec;
    }
  }
  state.last_seen = std::max(state.last_seen, report.timestamp);
  state.last_position = report.position;
  ++state.observations;
  state.alarm_raised = false;  // transmission closes any silence episode
  if (state.observations >= config_.min_observations) {
    next_deadline_ =
        std::min(next_deadline_, EarliestDeadline(state.last_seen));
  }
}

TimeMicros SwitchOffDetector::EarliestDeadline(TimeMicros last_seen) const {
  using Limits = std::numeric_limits<TimeMicros>;
  const TimeMicros silence = config_.silence_threshold;
  if (silence > 0 && last_seen > Limits::max() - silence) return Limits::max();
  if (silence < 0 && last_seen < Limits::min() - silence) return Limits::min();
  return last_seen + silence;
}

std::vector<MaritimeEvent> SwitchOffDetector::Check(TimeMicros now) {
  std::vector<MaritimeEvent> events;
  if (now <= next_deadline_) return events;
  TimeMicros next_deadline = std::numeric_limits<TimeMicros>::max();
  for (auto& [mmsi, state] : vessels_) {
    if (state.alarm_raised || state.observations < config_.min_observations) {
      continue;
    }
    const TimeMicros adaptive = static_cast<TimeMicros>(
        config_.interval_factor * state.mean_interval_sec * kMicrosPerSecond);
    const TimeMicros threshold = std::max(config_.silence_threshold, adaptive);
    if (now - state.last_seen > threshold) {
      state.alarm_raised = true;
      MaritimeEvent event;
      event.type = EventType::kAisSwitchOff;
      event.vessel_a = mmsi;
      event.detected_at = now;
      event.event_time = state.last_seen;
      event.location = state.last_position;
      events.push_back(event);
    } else {
      next_deadline =
          std::min(next_deadline, EarliestDeadline(state.last_seen));
    }
  }
  next_deadline_ = next_deadline;
  return events;
}

}  // namespace marlin
