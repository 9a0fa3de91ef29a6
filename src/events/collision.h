#ifndef MARLIN_EVENTS_COLLISION_H_
#define MARLIN_EVENTS_COLLISION_H_

#include <unordered_map>
#include <vector>

#include "events/event_types.h"
#include "hexgrid/hexgrid.h"
#include "vrf/route_forecaster.h"

namespace marlin {

/// Minimum separation between two piecewise-linear forecast trajectories,
/// sampled on a fine time grid with positions compared at sample times
/// closer than `temporal_tolerance` (the close-pass window). Returns the
/// distance in meters and, via the out-params when non-null, where/when the
/// minimum occurs (the first sample pair reaching it).
double MinTrajectoryDistance(const ForecastTrajectory& a,
                             const ForecastTrajectory& b,
                             TimeMicros temporal_tolerance,
                             TimeMicros* meet_time = nullptr,
                             LatLng* meet_point = nullptr);

/// Vessel collision forecasting (§5.2, Figure 5): each vessel's forecast
/// trajectory (1 present + 6 predicted positions) is assigned to its grid
/// cells *and each cell's nearest neighbours*; vessels sharing a cell are
/// collision candidates. A candidate pair is flagged when the forecast
/// trajectories intersect temporally (pointwise time difference within the
/// configured threshold, inside the 30-minute prediction window) and
/// spatially (pointwise distance below the spatial threshold).
///
/// The class holds the state the collision actors partition by cell; one
/// instance per CollisionActor (or one global instance when driven
/// directly, as in the Table-2 evaluation bench).
class CollisionForecaster {
 public:
  struct Config {
    /// Cell resolution for candidate generation. Resolution 7 cells
    /// (~8.6 km circumradius) comfortably contain 5 minutes of vessel
    /// motion, so trajectory points of colliding vessels land in the same
    /// or adjacent cells.
    int resolution = 7;
    /// Spatial intersection threshold between forecast points.
    double spatial_threshold_m = 500.0;
    /// Temporal intersection threshold ("temporal difference threshold" of
    /// Table 2; evaluated at 2 and 5 minutes).
    TimeMicros temporal_threshold = 2 * kMicrosPerMinute;
    /// Trajectories unseen for longer than this are pruned.
    TimeMicros retention = 40 * kMicrosPerMinute;
    /// Minimum spacing between repeated alerts for the same pair.
    TimeMicros pair_cooldown = 10 * kMicrosPerMinute;
  };

  CollisionForecaster();
  explicit CollisionForecaster(const Config& config);

  /// Ingests a vessel's newest forecast trajectory, replacing its previous
  /// one, and returns any collision forecasts it triggers.
  std::vector<MaritimeEvent> Observe(const ForecastTrajectory& trajectory);

  /// Drops trajectories whose anchor is older than `now - retention`, and
  /// pair cooldowns older than `now - retention - pair_cooldown` (they can
  /// no longer suppress an alert anchored inside the retention horizon).
  void Prune(TimeMicros now);

  /// Space-time intersection test of two trajectories: the closest sample
  /// pair (positions on a 30 s grid, at times within the temporal
  /// threshold) no farther apart than the spatial threshold, the last one
  /// in sampling order on ties. On hit, fills the meeting description.
  bool Intersects(const ForecastTrajectory& a, const ForecastTrajectory& b,
                  TimeMicros* meet_time, LatLng* meet_point,
                  double* distance_m) const;

  size_t TrackedVessels() const { return trajectories_.size(); }
  /// Pairs whose alert cooldown is remembered.
  size_t CooldownEntries() const { return last_alert_.size(); }
  /// Cells with at least one registered vessel in the candidate index.
  size_t IndexedCells() const { return cell_vessels_.size(); }
  /// Vessels registered in `cell`, in no particular order.
  std::vector<Mmsi> CellMembers(CellId cell) const;

 private:
  /// Latitude/longitude extent of a trajectory's points. Linear
  /// interpolation never leaves it, so it bounds every sampled position.
  struct Box {
    double lat_lo = 0.0;
    double lat_hi = 0.0;
    double lon_lo = 0.0;
    double lon_hi = 0.0;
  };
  struct Tracked {
    ForecastTrajectory trajectory;
    Box box;
    /// CoveredCells(trajectory): the cells this vessel is registered in.
    std::vector<CellId> cells;
  };

  static Box BoundingBox(const ForecastTrajectory& trajectory);
  /// Lower bound, in meters, on ApproxDistanceMeters between any point of
  /// `a` and any point of `b`.
  static double BoxGapMeters(const Box& a, const Box& b);

  /// Cells covered by a trajectory, sorted and unique: each point's cell
  /// plus its neighbours. Overwrites `cells`.
  void CoveredCells(const ForecastTrajectory& trajectory,
                    std::vector<CellId>* cells) const;

  /// Drops `mmsi` from the bucket of `cell`, and the bucket once empty.
  void Unregister(CellId cell, Mmsi mmsi);

  /// Intersects with precomputed bounding boxes: pairs whose boxes are
  /// provably farther apart than the spatial threshold skip sampling.
  bool Intersects(const ForecastTrajectory& a, const Box& a_box,
                  const ForecastTrajectory& b, const Box& b_box,
                  TimeMicros* meet_time, LatLng* meet_point,
                  double* distance_m) const;

  Config config_;
  std::unordered_map<Mmsi, Tracked> trajectories_;
  /// Candidate index: the vessels whose covered cells include each cell.
  /// Always equal to the index rebuilt from `trajectories_`; no bucket is
  /// empty.
  std::unordered_map<CellId, std::vector<Mmsi>> cell_vessels_;
  std::unordered_map<uint64_t, TimeMicros> last_alert_;
  // Scratch reused across Observe calls.
  std::vector<CellId> new_cells_;
  std::vector<Mmsi> candidates_;
};

}  // namespace marlin

#endif  // MARLIN_EVENTS_COLLISION_H_
