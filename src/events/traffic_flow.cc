#include "events/traffic_flow.h"

#include <algorithm>

namespace marlin {

TrafficFlowForecaster::TrafficFlowForecaster()
    : TrafficFlowForecaster(Config()) {}

TrafficFlowForecaster::TrafficFlowForecaster(const Config& config)
    : config_(config), counts_(kSvrfOutputSteps) {}

void TrafficFlowForecaster::Observe(const ForecastTrajectory& trajectory) {
  if (trajectory.points.size() < static_cast<size_t>(kSvrfOutputSteps) + 1) {
    return;
  }
  static_assert(kInvalidCellId == CellId{});
  VesselContribution& contribution = per_vessel_[trajectory.mmsi];
  contribution.anchor_time = trajectory.points.front().time;
  // Only steps whose cell changed move a count.
  for (int step = 0; step < kSvrfOutputSteps; ++step) {
    const CellId cell = HexGrid::LatLngToCell(
        trajectory.points[static_cast<size_t>(step) + 1].position,
        config_.resolution);
    CellId& previous = contribution.cells[static_cast<size_t>(step)];
    if (cell == previous) continue;
    if (previous != kInvalidCellId) Decrement(step, previous);
    if (cell != kInvalidCellId) ++counts_[static_cast<size_t>(step)][cell];
    previous = cell;
  }
}

void TrafficFlowForecaster::Decrement(int step, CellId cell) {
  auto& bucket = counts_[static_cast<size_t>(step)];
  auto cell_it = bucket.find(cell);
  if (cell_it != bucket.end() && --cell_it->second <= 0) {
    bucket.erase(cell_it);
  }
}

std::vector<FlowCell> TrafficFlowForecaster::Flow(int step) const {
  std::vector<FlowCell> out;
  if (step < 1 || step > kSvrfOutputSteps) return out;
  const auto& bucket = counts_[static_cast<size_t>(step) - 1];
  out.reserve(bucket.size());
  for (const auto& [cell, count] : bucket) {
    out.push_back(FlowCell{cell, count});
  }
  return out;
}

int TrafficFlowForecaster::FlowAt(const LatLng& position, int step) const {
  if (step < 1 || step > kSvrfOutputSteps) return 0;
  const CellId cell = HexGrid::LatLngToCell(position, config_.resolution);
  const auto& bucket = counts_[static_cast<size_t>(step) - 1];
  auto it = bucket.find(cell);
  return it == bucket.end() ? 0 : it->second;
}

void TrafficFlowForecaster::Prune(TimeMicros now) {
  const TimeMicros cutoff = now - config_.retention;
  for (auto it = per_vessel_.begin(); it != per_vessel_.end();) {
    if (it->second.anchor_time < cutoff) {
      for (int step = 0; step < kSvrfOutputSteps; ++step) {
        const CellId cell = it->second.cells[static_cast<size_t>(step)];
        if (cell != kInvalidCellId) Decrement(step, cell);
      }
      it = per_vessel_.erase(it);
    } else {
      ++it;
    }
  }
}

DirectTrafficForecaster::DirectTrafficForecaster()
    : DirectTrafficForecaster(Config()) {}

DirectTrafficForecaster::DirectTrafficForecaster(const Config& config)
    : config_(config) {}

void DirectTrafficForecaster::Observe(const AisPosition& report) {
  const CellId cell =
      HexGrid::LatLngToCell(report.position, config_.resolution);
  if (cell == kInvalidCellId) return;
  current_[cell][report.mmsi] = true;
}

void DirectTrafficForecaster::Roll(TimeMicros now) {
  (void)now;
  // Every cell with any history (or current observations) gets a window
  // sample, including zeros, so the moving average decays correctly.
  for (auto& [cell, vessels] : current_) {
    history_[cell];  // ensure exists
  }
  for (auto& [cell, window_history] : history_) {
    auto it = current_.find(cell);
    const int count =
        it == current_.end() ? 0 : static_cast<int>(it->second.size());
    window_history.push_back(count);
    while (static_cast<int>(window_history.size()) > config_.history_windows) {
      window_history.pop_front();
    }
  }
  current_.clear();
}

double DirectTrafficForecaster::Forecast(const LatLng& position,
                                         int steps) const {
  (void)steps;  // The moving-average forecast is flat across horizons.
  const CellId cell = HexGrid::LatLngToCell(position, config_.resolution);
  auto it = history_.find(cell);
  if (it == history_.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (int count : it->second) sum += count;
  return sum / static_cast<double>(it->second.size());
}

}  // namespace marlin
