#include "core/actors.h"

#include <cfloat>
#include <charconv>
#include <cstdio>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/logging.h"
#include "vrf/inference_batcher.h"

namespace marlin {
namespace {

/// Longest fixed rendering of a double with at most 6 decimals: sign, the
/// DBL_MAX_10_EXP + 1 integer digits of DBL_MAX, point and decimals.
constexpr size_t kMaxFixedChars = 1 + (DBL_MAX_10_EXP + 1) + 1 + 6;

/// Appends `value` as printf("%.<precision>f") renders it in the "C" locale
/// (nan, inf and -0 included), which std::to_chars guarantees. `precision`
/// is at most 6.
void AppendFixed(double value, int precision, std::string* out) {
  char buf[kMaxFixedChars];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::fixed, precision);
  out->append(buf, result.ptr);
}

void AppendInteger(int64_t value, std::string* out) {
  char buf[20];  // "-9223372036854775808"
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
}

std::string FormatFixed(double value, int precision) {
  std::string out;
  AppendFixed(value, precision, &out);
  return out;
}

/// Routes an event to the writer and (optionally) back to the two affected
/// vessel actors, per the state feedback loop of §3.
void PublishEvent(const MaritimeEvent& event, PipelineContext* pipeline,
                  ActorContext& ctx) {
  pipeline->events_detected.fetch_add(1, std::memory_order_relaxed);
  ctx.system().Tell(pipeline->WriterFor(event.vessel_a), EventMsg{event},
                    ctx.self());
  if (!pipeline->config->notify_vessel_actors) return;
  for (Mmsi mmsi : {event.vessel_a, event.vessel_b}) {
    if (mmsi == 0) continue;
    StatusOr<ActorRef> vessel = ctx.system().Find(VesselActorName(mmsi));
    if (vessel.ok()) {
      ctx.system().Tell(*vessel, EventMsg{event}, ctx.self());
    }
  }
}

}  // namespace

std::string VesselActorName(Mmsi mmsi) {
  return "vessel-" + std::to_string(mmsi);
}

std::string CellActorName(CellId cell) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cell-%016llx",
                static_cast<unsigned long long>(cell));
  return buf;
}

std::string CollisionActorName(CellId cell) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "coll-%016llx",
                static_cast<unsigned long long>(cell));
  return buf;
}

// ------------------------------------------------------------ VesselActor

VesselActor::VesselActor(Mmsi mmsi, PipelineContext* pipeline)
    : mmsi_(mmsi), pipeline_(pipeline) {}

Status VesselActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* position = std::any_cast<PositionMsg>(&message)) {
    return HandlePosition(position->report, position->ingest_cost_nanos, ctx);
  }
  if (const auto* result = std::any_cast<ForecastResultMsg>(&message)) {
    return HandleForecastResult(*result, ctx);
  }
  if (const auto* event = std::any_cast<EventMsg>(&message)) {
    my_events_.push_back(event->event);
    while (my_events_.size() > 64) my_events_.pop_front();
    return Status::Ok();
  }
  if (std::any_cast<GetForecastQuery>(&message) != nullptr) {
    if (has_forecast_) {
      ctx.Reply(TrajectoryMsg{latest_forecast_});
    } else {
      ctx.Reply(std::any());
    }
    return Status::Ok();
  }
  if (std::any_cast<GetVesselEventsQuery>(&message) != nullptr) {
    ctx.Reply(std::vector<MaritimeEvent>(my_events_.begin(), my_events_.end()));
    return Status::Ok();
  }
  return Status::InvalidArgument("vessel actor: unexpected message type");
}

Status VesselActor::HandlePosition(const AisPosition& report,
                                   int64_t ingest_cost_nanos,
                                   ActorContext& ctx) {
  // The Figure-6 measurement: time to fully process one AIS message at the
  // actor level (history update, forecast, event routing).
  Stopwatch stopwatch;
  pipeline_->positions_ingested.fetch_add(1, std::memory_order_relaxed);

  const bool accepted = history_.Push(report);
  latest_report_ = report;

  // Route the raw observation to the proximity cell actor.
  const CellId cell = HexGrid::LatLngToCell(
      report.position, pipeline_->config->cell_actor_resolution);
  if (cell != kInvalidCellId) {
    StatusOr<ActorRef> cell_actor = ctx.system().GetOrSpawn(
        CellActorName(cell),
        [this] { return std::make_unique<CellActor>(pipeline_); });
    if (cell_actor.ok()) {
      ctx.system().Tell(*cell_actor, CellObservationMsg{report}, ctx.self());
    }
  }

  // Port occupancy monitoring.
  if (pipeline_->ports.valid()) {
    ctx.system().Tell(pipeline_->ports, CellObservationMsg{report},
                      ctx.self());
  }

  // Patterns-of-Life accumulation (historical mobility statistics).
  if (pipeline_->config->enable_vtff && pipeline_->traffic.valid()) {
    ctx.system().Tell(pipeline_->traffic, CellObservationMsg{report},
                      ctx.self());
  }

  // AIS switch-off surveillance.
  if (pipeline_->surveillance.valid()) {
    ctx.system().Tell(pipeline_->surveillance, CellObservationMsg{report},
                      ctx.self());
  }

  // Generate a forecast once a full input window is available. Preferred
  // path: submit to the shared inference batcher, which coalesces requests
  // from many vessel actors into one column-batched network forward and
  // Tells a ForecastResultMsg back; the fan-out then happens in
  // HandleForecastResult. Falls back to the inline forecast when batching
  // is off or the batcher applies backpressure.
  bool submitted = false;
  bool forecast_inline = false;
  if (accepted && history_.Ready()) {
    const SvrfInput input = history_.MakeInput();
    InferenceBatcher* batcher = pipeline_->batcher;
    if (batcher != nullptr) {
      if (!self_ref_.valid()) {
        StatusOr<ActorRef> self = ctx.system().Find(VesselActorName(mmsi_));
        if (self.ok()) self_ref_ = *self;
      }
      if (self_ref_.valid()) {
        // The callback runs on whichever thread flushes the batch; Tell is
        // thread-safe and re-enters this actor through its mailbox, so no
        // actor state is touched off-thread.
        ActorSystem* system = &ctx.system();
        submitted =
            batcher
                ->Submit(input,
                         [system, self = self_ref_](
                             StatusOr<ForecastTrajectory> result,
                             int64_t per_item_nanos) {
                           ForecastResultMsg msg;
                           msg.ok = result.ok();
                           if (result.ok()) {
                             msg.trajectory = std::move(*result);
                           }
                           msg.forecast_nanos = per_item_nanos;
                           system->Tell(self, std::move(msg));
                         })
                .ok();
      }
    }
    if (!submitted) {
      obs::ScopedTimer forecast_timer(pipeline_->stage_forecast);
      StatusOr<ForecastTrajectory> forecast =
          pipeline_->forecaster->Forecast(input);
      if (forecast.ok()) {
        forecast->mmsi = mmsi_;
        latest_forecast_ = std::move(*forecast);
        has_forecast_ = true;
        pipeline_->forecasts_generated.fetch_add(1, std::memory_order_relaxed);
        PublishForecast(latest_forecast_, ctx);
        forecast_inline = true;
      }
    }
  }

  PublishState(report, forecast_inline, ctx);

  const int64_t total_nanos = stopwatch.ElapsedNanos() + ingest_cost_nanos;
  if (submitted) {
    // Charge this message's cost once, when its forecast lands: stash the
    // sync share for HandleForecastResult to combine with the batched
    // share. Bounded defensively; entries only leak if a callback is lost.
    pending_sync_nanos_.push_back(total_nanos);
    while (pending_sync_nanos_.size() > 64) pending_sync_nanos_.pop_front();
  } else {
    if (pipeline_->stage_position != nullptr) {
      pipeline_->stage_position->Observe(total_nanos);
    }
    pipeline_->latency->Record(static_cast<int64_t>(ctx.system().ActorCount()),
                               total_nanos);
  }
  return Status::Ok();
}

Status VesselActor::HandleForecastResult(const ForecastResultMsg& result,
                                         ActorContext& ctx) {
  Stopwatch stopwatch;
  int64_t sync_nanos = 0;
  if (!pending_sync_nanos_.empty()) {
    sync_nanos = pending_sync_nanos_.front();
    pending_sync_nanos_.pop_front();
  }
  if (pipeline_->stage_forecast != nullptr) {
    pipeline_->stage_forecast->Observe(result.forecast_nanos);
  }
  if (result.ok) {
    latest_forecast_ = result.trajectory;
    latest_forecast_.mmsi = mmsi_;
    has_forecast_ = true;
    pipeline_->forecasts_generated.fetch_add(1, std::memory_order_relaxed);
    PublishForecast(latest_forecast_, ctx);
    // Refresh the writer's view now that the forecast exists.
    PublishState(latest_report_, /*new_forecast=*/true, ctx);
  }
  // Complete the Figure-6 measurement for the originating message: its
  // synchronous share, its slice of the batched forward, and this fan-out.
  const int64_t total_nanos =
      sync_nanos + result.forecast_nanos + stopwatch.ElapsedNanos();
  if (pipeline_->stage_position != nullptr) {
    pipeline_->stage_position->Observe(total_nanos);
  }
  pipeline_->latency->Record(static_cast<int64_t>(ctx.system().ActorCount()),
                             total_nanos);
  return Status::Ok();
}

void VesselActor::PublishForecast(const ForecastTrajectory& trajectory,
                                  ActorContext& ctx) {
  // Collision actor of the anchor's coarse region.
  const CellId region = HexGrid::LatLngToCell(
      latest_report_.position, pipeline_->config->collision_actor_resolution);
  if (region != kInvalidCellId) {
    StatusOr<ActorRef> collision_actor = ctx.system().GetOrSpawn(
        CollisionActorName(region),
        [this] { return std::make_unique<CollisionActor>(pipeline_); });
    if (collision_actor.ok()) {
      ctx.system().Tell(*collision_actor, TrajectoryMsg{trajectory},
                        ctx.self());
    }
  }
  // Traffic raster.
  if (pipeline_->config->enable_vtff && pipeline_->traffic.valid()) {
    ctx.system().Tell(pipeline_->traffic, TrajectoryMsg{trajectory},
                      ctx.self());
  }
  // Predicted port arrivals.
  if (pipeline_->ports.valid()) {
    ctx.system().Tell(pipeline_->ports, TrajectoryMsg{trajectory}, ctx.self());
  }
}

void VesselActor::PublishState(const AisPosition& report, bool new_forecast,
                               ActorContext& ctx) {
  VesselStateMsg state;
  state.latest = report;
  if (new_forecast) state.forecast = latest_forecast_;
  ctx.system().Tell(pipeline_->WriterFor(mmsi_), std::move(state), ctx.self());
}

void VesselActor::OnRestart(const Status& failure) {
  (void)failure;
  history_.Clear();
}

// -------------------------------------------------------------- CellActor

CellActor::CellActor(PipelineContext* pipeline)
    : pipeline_(pipeline), detector_(pipeline->config->proximity) {}

Status CellActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    for (const MaritimeEvent& event : detector_.Observe(observation->report)) {
      PublishEvent(event, pipeline_, ctx);
    }
    // Self-prune on stream time so long-running cells do not accumulate
    // unbounded observation history.
    if (++observations_since_prune_ >= 64) {
      observations_since_prune_ = 0;
      detector_.Prune(observation->report.timestamp);
    }
    return Status::Ok();
  }
  if (const auto* tick = std::any_cast<PruneTickMsg>(&message)) {
    detector_.Prune(tick->now);
    return Status::Ok();
  }
  return Status::InvalidArgument("cell actor: unexpected message type");
}

// --------------------------------------------------------- CollisionActor

CollisionActor::CollisionActor(PipelineContext* pipeline)
    : pipeline_(pipeline), forecaster_(pipeline->config->collision) {}

Status CollisionActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&message)) {
    for (const MaritimeEvent& event :
         forecaster_.Observe(trajectory->trajectory)) {
      PublishEvent(event, pipeline_, ctx);
    }
    if (++observations_since_prune_ >= 64 &&
        !trajectory->trajectory.points.empty()) {
      observations_since_prune_ = 0;
      forecaster_.Prune(trajectory->trajectory.points.front().time);
    }
    return Status::Ok();
  }
  if (const auto* tick = std::any_cast<PruneTickMsg>(&message)) {
    forecaster_.Prune(tick->now);
    return Status::Ok();
  }
  return Status::InvalidArgument("collision actor: unexpected message type");
}

// ----------------------------------------------------------- TrafficActor

TrafficActor::TrafficActor(PipelineContext* pipeline)
    : pipeline_(pipeline),
      forecaster_(pipeline->config->traffic),
      patterns_(pipeline->config->traffic.resolution) {}

Status TrafficActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    patterns_.AddObservation(observation->report);
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetPatternsQuery>(&message)) {
    ctx.Reply(patterns_.TopCells(query->top_n));
    return Status::Ok();
  }
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&message)) {
    forecaster_.Observe(trajectory->trajectory);
    if (++observations_since_prune_ >= 1024 &&
        !trajectory->trajectory.points.empty()) {
      observations_since_prune_ = 0;
      forecaster_.Prune(trajectory->trajectory.points.front().time);
    }
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetTrafficFlowQuery>(&message)) {
    ctx.Reply(forecaster_.Flow(query->step));
    return Status::Ok();
  }
  if (const auto* tick = std::any_cast<PruneTickMsg>(&message)) {
    forecaster_.Prune(tick->now);
    return Status::Ok();
  }
  return Status::InvalidArgument("traffic actor: unexpected message type");
}

// ------------------------------------------------------- SurveillanceActor

SurveillanceActor::SurveillanceActor(PipelineContext* pipeline)
    : pipeline_(pipeline), detector_(pipeline->config->switch_off) {}

Status SurveillanceActor::Receive(const std::any& message,
                                  ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    detector_.Observe(observation->report);
    latest_time_ = std::max(latest_time_, observation->report.timestamp);
    // Scan for silent vessels periodically in stream time.
    if (++observations_since_check_ >= 256) {
      observations_since_check_ = 0;
      for (const MaritimeEvent& event : detector_.Check(latest_time_)) {
        PublishEvent(event, pipeline_, ctx);
      }
    }
    return Status::Ok();
  }
  if (const auto* tick = std::any_cast<PruneTickMsg>(&message)) {
    for (const MaritimeEvent& event : detector_.Check(tick->now)) {
      PublishEvent(event, pipeline_, ctx);
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("surveillance actor: unexpected message");
}

// ------------------------------------------------------------- PortsActor

PortsActor::PortsActor(PipelineContext* pipeline)
    : pipeline_(pipeline),
      monitor_(pipeline->config->monitored_ports,
               pipeline->config->port_monitor) {}

Status PortsActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    monitor_.ObservePosition(observation->report);
    latest_time_ = std::max(latest_time_, observation->report.timestamp);
    return Status::Ok();
  }
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&message)) {
    monitor_.ObserveForecast(trajectory->trajectory);
    if (!trajectory->trajectory.points.empty()) {
      latest_time_ = std::max(latest_time_,
                              trajectory->trajectory.points.front().time);
    }
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetPortTrafficQuery>(&message)) {
    ctx.Reply(monitor_.Status(query->now > 0 ? query->now : latest_time_));
    return Status::Ok();
  }
  return Status::InvalidArgument("ports actor: unexpected message type");
}

// ------------------------------------------------------------ WriterActor

WriterActor::WriterActor(PipelineContext* pipeline, int shard)
    : pipeline_(pipeline), shard_(shard) {}

Status WriterActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* state = std::any_cast<VesselStateMsg>(&message)) {
    WriteVesselState(*state);
    return Status::Ok();
  }
  if (const auto* event = std::any_cast<EventMsg>(&message)) {
    recent_events_.push_back(event->event);
    while (recent_events_.size() > 1024) recent_events_.pop_front();
    WriteEvent(event->event);
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetRecentEventsQuery>(&message)) {
    std::vector<MaritimeEvent> out;
    const int limit = query->limit;
    for (auto it = recent_events_.rbegin();
         it != recent_events_.rend() && static_cast<int>(out.size()) < limit;
         ++it) {
      out.push_back(*it);
    }
    ctx.Reply(std::move(out));
    return Status::Ok();
  }
  return Status::InvalidArgument("writer actor: unexpected message type");
}

void WriterActor::WriteVesselState(const VesselStateMsg& state) {
  obs::ScopedTimer write_timer(pipeline_->stage_write);
  const AisPosition& latest = state.latest;
  const std::string mmsi = std::to_string(latest.mmsi);
  // Five report fields, then name and type, then forecast.
  KvStore::FieldValue fields[8] = {
      {"lat", FormatFixed(latest.position.lat_deg, 6)},
      {"lon", FormatFixed(latest.position.lon_deg, 6)},
      {"sog", FormatFixed(latest.sog_knots, 1)},
      {"cog", FormatFixed(latest.cog_deg, 1)},
      {"ts", std::to_string(latest.timestamp)}};
  size_t count = 5;
  // Static-data fusion (§3): enrich the published state with the cached
  // registry record.
  if (pipeline_->registry != nullptr) {
    if (const AisStatic* info = pipeline_->registry->Find(latest.mmsi)) {
      fields[count++] = {"name", info->name};
      fields[count++] = {"type", std::string(VesselTypeName(info->type))};
    }
  }
  if (state.forecast.has_value()) {
    // Rendered once as "lat,lon,t;" per point.
    std::string forecast;
    for (const ForecastPoint& point : state.forecast->points) {
      AppendFixed(point.position.lat_deg, 6, &forecast);
      forecast += ',';
      AppendFixed(point.position.lon_deg, 6, &forecast);
      forecast += ',';
      AppendInteger(point.time, &forecast);
      forecast += ';';
    }
    // Dedicated forecast output stream (§7), keyed by MMSI: one record per
    // forecast, "mmsi;lat,lon,t;...;lat,lon,t".
    if (pipeline_->config->publish_output_topics) {
      std::string record = mmsi;
      if (!forecast.empty()) {
        record += ';';
        record.append(forecast, 0, forecast.size() - 1);
      }
      (void)pipeline_->broker->Append(pipeline_->config->forecasts_topic, mmsi,
                                      std::move(record), latest.timestamp);
    }
    fields[count++] = {"forecast", std::move(forecast)};
  }
  (void)pipeline_->store->HSet("vessel:" + mmsi,
                               std::span<KvStore::FieldValue>(fields, count));
}

void WriterActor::WriteEvent(const MaritimeEvent& event) {
  obs::ScopedTimer write_timer(pipeline_->stage_write);
  const std::string key = "event:" + std::to_string(shard_) + ":" +
                          std::to_string(event_seq_++);
  std::string type(EventTypeName(event.type));
  std::string vessel_a = std::to_string(event.vessel_a);
  std::string vessel_b = std::to_string(event.vessel_b);
  std::string time = std::to_string(event.event_time);
  std::string location = FormatFixed(event.location.lat_deg, 6);
  location += ',';
  AppendFixed(event.location.lon_deg, 6, &location);
  std::string distance = FormatFixed(event.distance_m, 1);
  // Dedicated event output stream (§7), keyed by the primary vessel.
  if (pipeline_->config->publish_output_topics) {
    std::string record = type + ',' + vessel_a + ',' + vessel_b + ',' + time +
                         ',' + location + ',' + distance;
    (void)pipeline_->broker->Append(pipeline_->config->events_topic, vessel_a,
                                    std::move(record), event.detected_at);
  }
  KvStore::FieldValue fields[] = {{"type", std::move(type)},
                                  {"vessel_a", std::move(vessel_a)},
                                  {"vessel_b", std::move(vessel_b)},
                                  {"time", std::move(time)},
                                  {"location", std::move(location)},
                                  {"distance_m", std::move(distance)}};
  (void)pipeline_->store->HSet(key, fields);
}

}  // namespace marlin
