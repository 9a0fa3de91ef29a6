#include "events/collision.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesy.h"

namespace marlin {

CollisionForecaster::CollisionForecaster()
    : CollisionForecaster(Config()) {}

CollisionForecaster::CollisionForecaster(const Config& config)
    : config_(config) {}

void CollisionForecaster::CoveredCells(const ForecastTrajectory& trajectory,
                                       std::vector<CellId>* cells) const {
  cells->clear();
  for (const ForecastPoint& point : trajectory.points) {
    const CellId cell =
        HexGrid::LatLngToCell(point.position, config_.resolution);
    if (cell == kInvalidCellId) continue;
    for (CellId c : HexGrid::KRing(cell, 1)) cells->push_back(c);
  }
  std::sort(cells->begin(), cells->end());
  cells->erase(std::unique(cells->begin(), cells->end()), cells->end());
}

void CollisionForecaster::Unregister(CellId cell, Mmsi mmsi) {
  auto cell_it = cell_vessels_.find(cell);
  if (cell_it == cell_vessels_.end()) return;
  std::vector<Mmsi>& bucket = cell_it->second;
  auto member = std::find(bucket.begin(), bucket.end(), mmsi);
  if (member != bucket.end()) {
    *member = bucket.back();
    bucket.pop_back();
  }
  if (bucket.empty()) cell_vessels_.erase(cell_it);
}

std::vector<Mmsi> CollisionForecaster::CellMembers(CellId cell) const {
  auto it = cell_vessels_.find(cell);
  return it == cell_vessels_.end() ? std::vector<Mmsi>() : it->second;
}

namespace {

/// Linear interpolation of a forecast trajectory at absolute time `t`
/// (clamped to the trajectory's span).
LatLng SampleTrajectory(const ForecastTrajectory& trajectory, TimeMicros t) {
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

constexpr TimeMicros kIntersectSampleStep = 30 * kMicrosPerSecond;

// Slack for pruning decisions. A bound computed in floating point may sit a
// few ulps off the exact bound, and an interpolated position a few ulps
// outside its bounding box, so a prune only fires when the bound clears the
// limit by a relative 1e-9 plus 1 um: rounding can never flip a decision.
constexpr double kPruneRelativeSlack = 1e-9;
constexpr double kPruneAbsoluteSlackMeters = 1e-6;

/// True when a lower bound on a distance proves it exceeds `limit`.
bool ProvablyAbove(double lower_bound, double limit) {
  return lower_bound > limit + kPruneRelativeSlack * std::abs(limit) +
                           kPruneAbsoluteSlackMeters;
}

struct Approach {
  bool found = false;
  double distance = 0.0;
  TimeMicros meet_time = 0;
  LatLng meet_point;
};

/// Fills `grid[0..count)` with `trajectory` sampled at `origin + k * step`,
/// extending the samples already there (each is computed once).
void ExtendGrid(const ForecastTrajectory& trajectory, TimeMicros origin,
                size_t count, std::vector<LatLng>* grid) {
  for (size_t k = grid->size(); k < count; ++k) {
    grid->push_back(SampleTrajectory(
        trajectory, origin + static_cast<TimeMicros>(k) * kIntersectSampleStep));
  }
}

/// The sampling loop behind Intersects and MinTrajectoryDistance. For each
/// 30 s sample time `ta` of `a` inside both spans (widened by `tolerance`),
/// compares `a(ta)` with `b(tb)` for `tb` from max(ta - tolerance, b.front)
/// to min(ta + tolerance, b.back) in 30 s steps. The running best starts at
/// `limit`; a pair replaces it when closer, or equally close with
/// `later_ties_win`.
///
/// Same result as sampling `b` afresh for every `ta`, with less work:
///  - `tb` lies on one of two grids. While ta - tolerance >= b.front it is
///    start - tolerance + k * step (k = ta's index + j); before that it is
///    b.front + j * step. Each grid point is sampled once per call.
///  - ApproxDistanceMeters >= R * |dlat|, so a pair whose latitude gap alone
///    provably exceeds the best cannot replace it and skips the distance.
Approach ClosestApproach(const ForecastTrajectory& a,
                         const ForecastTrajectory& b, TimeMicros tolerance,
                         double limit, bool later_ties_win) {
  Approach best;
  best.distance = limit;
  const TimeMicros a_front = a.points.front().time;
  const TimeMicros a_back = a.points.back().time;
  const TimeMicros b_front = b.points.front().time;
  const TimeMicros b_back = b.points.back().time;
  const TimeMicros start = std::max(a_front, b_front) - tolerance;
  const TimeMicros end = std::min(a_back, b_back) + tolerance;
  std::vector<LatLng> shifted;   // start - tolerance + (shifted_base + k) * step
  std::vector<LatLng> anchored;  // b_front + j * step
  size_t shifted_base = 0;
  size_t index = 0;
  for (TimeMicros ta = start; ta <= end; ta += kIntersectSampleStep, ++index) {
    if (ta < a_front || ta > a_back) continue;
    const TimeMicros tb_max = std::min(ta + tolerance, b_back);
    const bool on_shifted = ta - tolerance >= b_front;
    const TimeMicros tb_min = on_shifted ? ta - tolerance : b_front;
    if (tb_min > tb_max) continue;
    const size_t count =
        static_cast<size_t>((tb_max - tb_min) / kIntersectSampleStep) + 1;
    const LatLng* pb;
    if (on_shifted) {
      if (shifted.empty()) shifted_base = index;
      const size_t offset = index - shifted_base;
      ExtendGrid(b,
                 start - tolerance +
                     static_cast<TimeMicros>(shifted_base) * kIntersectSampleStep,
                 offset + count, &shifted);
      pb = shifted.data() + offset;
    } else {
      ExtendGrid(b, b_front, count, &anchored);
      pb = anchored.data();
    }
    const LatLng pa = SampleTrajectory(a, ta);
    for (size_t j = 0; j < count; ++j) {
      const double lat_gap_m =
          kEarthRadiusMeters *
          std::abs((pb[j].lat_deg - pa.lat_deg) * kDegToRad);
      if (ProvablyAbove(lat_gap_m, best.distance)) continue;
      const double d = ApproxDistanceMeters(pa, pb[j]);
      if (d < best.distance || (later_ties_win && d == best.distance)) {
        const TimeMicros tb =
            tb_min + static_cast<TimeMicros>(j) * kIntersectSampleStep;
        best.found = true;
        best.distance = d;
        best.meet_time = ta / 2 + tb / 2;
        best.meet_point.lat_deg = 0.5 * (pa.lat_deg + pb[j].lat_deg);
        best.meet_point.lon_deg = 0.5 * (pa.lon_deg + pb[j].lon_deg);
      }
    }
  }
  return best;
}

}  // namespace

double MinTrajectoryDistance(const ForecastTrajectory& a,
                             const ForecastTrajectory& b,
                             TimeMicros temporal_tolerance,
                             TimeMicros* meet_time, LatLng* meet_point) {
  constexpr double kNoApproach = 1e18;
  if (a.points.empty() || b.points.empty()) return kNoApproach;
  const Approach approach = ClosestApproach(
      a, b, temporal_tolerance, kNoApproach, /*later_ties_win=*/false);
  if (approach.found) {
    if (meet_time != nullptr) *meet_time = approach.meet_time;
    if (meet_point != nullptr) *meet_point = approach.meet_point;
  }
  return approach.distance;
}

CollisionForecaster::Box CollisionForecaster::BoundingBox(
    const ForecastTrajectory& trajectory) {
  Box box;
  const LatLng& first = trajectory.points.front().position;
  box.lat_lo = box.lat_hi = first.lat_deg;
  box.lon_lo = box.lon_hi = first.lon_deg;
  for (const ForecastPoint& point : trajectory.points) {
    box.lat_lo = std::min(box.lat_lo, point.position.lat_deg);
    box.lat_hi = std::max(box.lat_hi, point.position.lat_deg);
    box.lon_lo = std::min(box.lon_lo, point.position.lon_deg);
    box.lon_hi = std::max(box.lon_hi, point.position.lon_deg);
  }
  return box;
}

double CollisionForecaster::BoxGapMeters(const Box& a, const Box& b) {
  // ApproxDistanceMeters = R * sqrt(dlat^2 + (dlon * cos(mean_lat))^2) is at
  // least R * |dlat| and at least R * |dlon| * |cos(mean_lat)|; the mean
  // latitude of two points in the boxes lies in their joint latitude range,
  // where |cos| is smallest at the largest |lat|.
  const double lat_gap = std::max({0.0, b.lat_lo - a.lat_hi, a.lat_lo - b.lat_hi});
  const double lon_gap = std::max({0.0, b.lon_lo - a.lon_hi, a.lon_lo - b.lon_hi});
  const double max_abs_lat =
      std::max({std::abs(a.lat_lo), std::abs(a.lat_hi), std::abs(b.lat_lo),
                std::abs(b.lat_hi)});
  const double min_cos =
      max_abs_lat < 90.0 ? std::cos(max_abs_lat * kDegToRad) : 0.0;
  return kEarthRadiusMeters * kDegToRad * std::max(lat_gap, lon_gap * min_cos);
}

bool CollisionForecaster::Intersects(const ForecastTrajectory& a,
                                     const ForecastTrajectory& b,
                                     TimeMicros* meet_time, LatLng* meet_point,
                                     double* distance_m) const {
  return Intersects(a, BoundingBox(a), b, BoundingBox(b), meet_time,
                    meet_point, distance_m);
}

bool CollisionForecaster::Intersects(const ForecastTrajectory& a,
                                     const Box& a_box,
                                     const ForecastTrajectory& b,
                                     const Box& b_box, TimeMicros* meet_time,
                                     LatLng* meet_point,
                                     double* distance_m) const {
  // Continuous space-time intersection: resample both piecewise-linear
  // trajectories on a fine common grid; a collision course exists when the
  // vessels are within the spatial threshold at sample times closer than
  // the temporal difference threshold (which accounts for close-proximity
  // passes, §5.2). Pointwise checks at the raw 5-minute spacing would miss
  // crossings between forecast points.
  if (ProvablyAbove(BoxGapMeters(a_box, b_box), config_.spatial_threshold_m)) {
    return false;
  }
  const Approach approach =
      ClosestApproach(a, b, config_.temporal_threshold,
                      config_.spatial_threshold_m, /*later_ties_win=*/true);
  if (!approach.found) return false;
  *meet_time = approach.meet_time;
  *meet_point = approach.meet_point;
  *distance_m = approach.distance;
  return true;
}

std::vector<MaritimeEvent> CollisionForecaster::Observe(
    const ForecastTrajectory& trajectory) {
  std::vector<MaritimeEvent> events;
  if (trajectory.points.empty()) return events;
  const Mmsi mmsi = trajectory.mmsi;
  Tracked& tracked = trajectories_[mmsi];

  // Move the vessel's registrations from its previous cells to the new ones,
  // touching only the cells it left or entered (both lists are sorted), and
  // gather every other vessel in the new cells as a candidate.
  CoveredCells(trajectory, &new_cells_);
  candidates_.clear();
  auto old_cell = tracked.cells.cbegin();
  const auto old_end = tracked.cells.cend();
  for (CellId cell : new_cells_) {
    for (; old_cell != old_end && *old_cell < cell; ++old_cell) {
      Unregister(*old_cell, mmsi);
    }
    const bool stayed = old_cell != old_end && *old_cell == cell;
    if (stayed) ++old_cell;
    std::vector<Mmsi>& bucket = cell_vessels_[cell];
    for (Mmsi other : bucket) {
      if (other != mmsi) candidates_.push_back(other);
    }
    if (!stayed) bucket.push_back(mmsi);
  }
  for (; old_cell != old_end; ++old_cell) Unregister(*old_cell, mmsi);
  tracked.cells.swap(new_cells_);
  tracked.trajectory = trajectory;
  tracked.box = BoundingBox(trajectory);
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());

  const TimeMicros now = trajectory.points.front().time;
  for (Mmsi other : candidates_) {
    const Tracked& candidate = trajectories_.at(other);
    TimeMicros meet_time = 0;
    LatLng meet_point;
    double distance = 0.0;
    if (!Intersects(trajectory, tracked.box, candidate.trajectory,
                    candidate.box, &meet_time, &meet_point, &distance)) {
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

void CollisionForecaster::Prune(TimeMicros now) {
  const TimeMicros cutoff = now - config_.retention;
  for (auto it = trajectories_.begin(); it != trajectories_.end();) {
    if (it->second.trajectory.points.front().time < cutoff) {
      for (CellId cell : it->second.cells) Unregister(cell, it->first);
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

}  // namespace marlin
