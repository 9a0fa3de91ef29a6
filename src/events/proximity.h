#ifndef MARLIN_EVENTS_PROXIMITY_H_
#define MARLIN_EVENTS_PROXIMITY_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "events/event_types.h"
#include "hexgrid/hexgrid.h"

namespace marlin {

/// Present-time close-proximity event detection (§5, Figure 4e): AIS
/// positions are routed to grid cells; within each cell (and its immediate
/// neighbours) vessel pairs closer than the threshold at approximately the
/// same time raise a proximity event.
///
/// This is the cell-actor state/logic; `CellActor` in src/core hosts one
/// detector shard per cell actor, while tests and the evaluation benches
/// drive it directly. Not internally synchronised (each instance is owned
/// by one actor).
class ProximityDetector {
 public:
  struct Config {
    /// Grid resolution for candidate bucketing. Resolution 9's ~2 km cells
    /// with 1-ring neighbour lookup cover any 500 m proximity pair.
    int resolution = 9;
    /// Vessels closer than this are "in proximity".
    double threshold_m = 500.0;
    /// Maximum timestamp difference for two positions to count as
    /// simultaneous.
    TimeMicros time_window = 90 * kMicrosPerSecond;
    /// Observations older than this are pruned.
    TimeMicros retention = 10 * kMicrosPerMinute;
    /// Minimum spacing between repeated events for the same pair.
    TimeMicros pair_cooldown = 10 * kMicrosPerMinute;
  };

  ProximityDetector();
  explicit ProximityDetector(const Config& config);

  /// Ingests one position report; returns any proximity events it
  /// completes.
  std::vector<MaritimeEvent> Observe(const AisPosition& report);

  /// Drops stored observations older than `now - retention`, and pair
  /// cooldowns older than `now - retention - pair_cooldown` (they can no
  /// longer suppress an event for a report inside the retention horizon).
  void Prune(TimeMicros now);

  const Config& config() const { return config_; }
  size_t StoredObservations() const;
  /// Pairs whose event cooldown is remembered.
  size_t CooldownEntries() const { return last_event_.size(); }

 private:
  struct StoredPosition {
    Mmsi mmsi = 0;
    TimeMicros timestamp = 0;
    LatLng position;
  };

  Config config_;
  std::unordered_map<CellId, std::deque<StoredPosition>> cells_;
  std::unordered_map<uint64_t, TimeMicros> last_event_;
};

}  // namespace marlin

#endif  // MARLIN_EVENTS_PROXIMITY_H_
