#ifndef MARLIN_EVENTS_SWITCH_OFF_H_
#define MARLIN_EVENTS_SWITCH_OFF_H_

#include <limits>
#include <unordered_map>
#include <vector>

#include "events/event_types.h"

namespace marlin {

/// Real-time detection of intentional AIS switch-off [9] (§5): a vessel
/// that had been transmitting regularly and then goes silent for longer
/// than the threshold raises an event. Regularity is established from the
/// vessel's own recent inter-transmission intervals, so satellite-coverage
/// stragglers with naturally sparse reception do not false-positive.
class SwitchOffDetector {
 public:
  struct Config {
    /// Silence longer than max(threshold, factor × typical interval) raises
    /// the event.
    TimeMicros silence_threshold = 30 * kMicrosPerMinute;
    double interval_factor = 8.0;
    /// Transmissions needed to establish a regularity baseline.
    int min_observations = 5;
  };

  SwitchOffDetector();
  explicit SwitchOffDetector(const Config& config);

  /// Ingests one position report (updates the vessel's cadence baseline,
  /// closes any open silence episode).
  void Observe(const AisPosition& report);

  /// Scans for vessels whose silence exceeded their threshold as of `now`;
  /// returns at most one event per silence episode. Returns at once, without
  /// scanning, while `now` has not passed the earliest possible deadline.
  std::vector<MaritimeEvent> Check(TimeMicros now);

  size_t TrackedVessels() const { return vessels_.size(); }

 private:
  struct VesselState {
    TimeMicros last_seen = 0;
    LatLng last_position;
    double mean_interval_sec = 0.0;
    int observations = 0;
    bool alarm_raised = false;
  };

  /// `last_seen + silence_threshold`, saturated: no vessel can alarm before
  /// it, since every vessel's threshold is at least `silence_threshold`.
  TimeMicros EarliestDeadline(TimeMicros last_seen) const;

  Config config_;
  std::unordered_map<Mmsi, VesselState> vessels_;
  /// Lower bound on EarliestDeadline over eligible, non-alarmed vessels.
  /// Observe only lowers it; a full scan in Check recomputes it exactly.
  TimeMicros next_deadline_ = std::numeric_limits<TimeMicros>::max();
};

}  // namespace marlin

#endif  // MARLIN_EVENTS_SWITCH_OFF_H_
