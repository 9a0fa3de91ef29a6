#ifndef MARLIN_EVENTS_TRAFFIC_FLOW_H_
#define MARLIN_EVENTS_TRAFFIC_FLOW_H_

#include <array>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "events/event_types.h"
#include "hexgrid/hexgrid.h"
#include "vrf/route_forecaster.h"

namespace marlin {

/// Predicted (or observed) vessel count of one grid cell in one 5-minute
/// time window.
struct FlowCell {
  CellId cell = kInvalidCellId;
  int count = 0;
};

/// Indirect Vessel Traffic Flow Forecasting (§5.1): the VRF model's
/// predicted vessel locations are allocated into a spatiotemporal raster —
/// the hexagonal grid × six 5-minute windows up to 30 minutes — and the
/// per-cell counts *are* the traffic flow forecast. The indirect strategy
/// rides on the already-running S-VRF, which [17] found both more accurate
/// (often > 1.5×) and cheaper than direct flow-sequence forecasting.
class TrafficFlowForecaster {
 public:
  struct Config {
    /// Raster resolution (res 7 ≈ 8.6 km cells, the scale of Figure 4d).
    int resolution = 7;
    /// Trajectories older than this are dropped from the raster.
    TimeMicros retention = 10 * kMicrosPerMinute;
  };

  TrafficFlowForecaster();
  explicit TrafficFlowForecaster(const Config& config);

  /// Ingests a vessel's newest forecast trajectory (replaces its previous
  /// contribution to the raster).
  void Observe(const ForecastTrajectory& trajectory);

  /// Forecast raster for horizon step 1..6 (t+5min .. t+30min): vessel
  /// count per active cell, unsorted.
  std::vector<FlowCell> Flow(int step) const;

  /// Predicted count for one position at one horizon step.
  int FlowAt(const LatLng& position, int step) const;

  /// Number of vessels currently contributing to the raster.
  size_t TrackedVessels() const { return per_vessel_.size(); }

  /// Drops contributions from vessels whose forecast anchor is older than
  /// `now - retention`.
  void Prune(TimeMicros now);

 private:
  struct VesselContribution {
    TimeMicros anchor_time = 0;
    // Cell occupied at each horizon step (index 0 = t+5min); value
    // initialisation makes every step kInvalidCellId.
    std::array<CellId, kSvrfOutputSteps> cells{};
  };

  /// Removes one vessel from counts_[step][cell], dropping the entry at 0.
  void Decrement(int step, CellId cell);

  Config config_;
  std::unordered_map<Mmsi, VesselContribution> per_vessel_;
  // counts_[step][cell] = vessels forecast in `cell` during window `step`.
  std::vector<std::unordered_map<CellId, int>> counts_;
};

/// Direct traffic flow forecasting baseline (the alternative strategy of
/// [17], reproduced for the ablation bench): per-cell history of observed
/// vessel counts per 5-minute window, extrapolated by a seasonal
/// moving-average of the recent windows.
class DirectTrafficForecaster {
 public:
  struct Config {
    int resolution = 7;
    TimeMicros window = 5 * kMicrosPerMinute;
    /// Windows of history per cell used by the moving average.
    int history_windows = 6;
  };

  DirectTrafficForecaster();
  explicit DirectTrafficForecaster(const Config& config);

  /// Ingests one observed position.
  void Observe(const AisPosition& report);

  /// Closes the current window at `now`, pushing per-cell counts into
  /// history. Call at window boundaries.
  void Roll(TimeMicros now);

  /// Predicts the vessel count of the cell containing `position` `steps`
  /// windows ahead (moving-average of the cell's history — the direct
  /// sequence-forecasting strategy; the same value for all future steps).
  double Forecast(const LatLng& position, int steps) const;

  size_t ActiveCells() const { return history_.size(); }

 private:
  Config config_;
  std::unordered_map<CellId, std::unordered_map<Mmsi, bool>> current_;
  std::unordered_map<CellId, std::deque<int>> history_;
};

}  // namespace marlin

#endif  // MARLIN_EVENTS_TRAFFIC_FLOW_H_
