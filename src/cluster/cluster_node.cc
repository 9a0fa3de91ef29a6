#include "cluster/cluster_node.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "chk/chk.h"
#include "util/logging.h"

namespace marlin {
namespace cluster {
namespace {

TimeMicros WallNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Message type driving TickerActor.
struct TickMsg {};

/// Extracts the sender membership epoch from a heartbeat/ack payload.
/// Empty payload (a pre-epoch sender) decodes as 0 = "no epoch reported".
uint64_t SenderEpochOf(const Frame& frame) {
  WireReader reader(frame.payload);
  uint64_t epoch = 0;
  if (!reader.GetU64(&epoch)) return 0;
  return epoch;
}

}  // namespace

/// Decorates the wire transport with per-peer frame/byte accounting so the
/// counters live in one place no matter which transport implementation is
/// underneath. Regions and the node itself send through this.
class ClusterNode::CountingTransport : public Transport {
 public:
  CountingTransport(std::shared_ptr<Transport> wrapped,
                    const std::vector<NodeId>& roster,
                    obs::MetricsRegistry* registry) {
    wrapped_ = std::move(wrapped);
    for (const NodeId peer : roster) {
      PeerCounters counters;
      const obs::Labels labels = {{"peer", std::to_string(peer)}};
      counters.frames_sent = registry->GetCounter(
          "marlin_cluster_frames_sent_total", "Frames sent per peer", labels);
      counters.bytes_sent = registry->GetCounter(
          "marlin_cluster_bytes_sent_total",
          "Payload bytes sent per peer", labels);
      counters.frames_received = registry->GetCounter(
          "marlin_cluster_frames_received_total", "Frames received per peer",
          labels);
      counters.bytes_received = registry->GetCounter(
          "marlin_cluster_bytes_received_total",
          "Payload bytes received per peer", labels);
      peers_.emplace(peer, counters);
    }
  }

  Status Start(NodeId self, FrameHandler handler) override {
    return wrapped_->Start(self, std::move(handler));
  }

  // Pure accounting decorator: the wrapped wire transport carries the
  // MARLIN_FAULT_POINT, so injecting here too would double-count faults.
  bool Send(NodeId to, const Frame& frame) override {  // chk-lint: allow(fault-point)
    if (!wrapped_->Send(to, frame)) return false;
    auto it = peers_.find(to);
    if (it != peers_.end()) {
      it->second.frames_sent->Increment();
      it->second.bytes_sent->Increment(frame.payload.size());
    }
    return true;
  }

  void Shutdown() override { wrapped_->Shutdown(); }

  void CountReceived(const Frame& frame) {
    auto it = peers_.find(frame.src);
    if (it == peers_.end()) return;
    it->second.frames_received->Increment();
    it->second.bytes_received->Increment(frame.payload.size());
  }

 private:
  struct PeerCounters {
    obs::Counter* frames_sent = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* bytes_received = nullptr;
  };

  std::shared_ptr<Transport> wrapped_;
  std::map<NodeId, PeerCounters> peers_;  // immutable after construction
};

/// Internal actor rescheduling itself at the heartbeat interval to drive
/// Tick() off the wall clock (auto_tick mode). Using the actor timer wheel
/// keeps the cluster layer free of raw threads.
class ClusterNode::TickerActor : public Actor {
 public:
  explicit TickerActor(ClusterNode* node) : node_(node) {}

  Status Receive(const std::any& message, ActorContext& ctx) override {
    (void)message;
    (void)ctx;
    node_->Tick(WallNowMicros());
    node_->ScheduleNextTick();
    return Status::Ok();
  }

 private:
  ClusterNode* node_;
};

ClusterNode::ClusterNode(const ClusterNodeConfig& config,
                         std::shared_ptr<Transport> transport)
    : config_(config),
      transport_(std::move(transport)),
      membership_(config.self, config.nodes, config.membership),
      system_(config.actor),
      ring_(config.num_shards, config.vnodes_per_node) {
  obs::MetricsRegistry* registry =
      obs::MetricsRegistry::OrGlobal(config_.metrics);
  counting_transport_ = std::make_unique<CountingTransport>(
      transport_, config_.nodes, registry);
  metrics_.heartbeats_sent = registry->GetCounter(
      "marlin_cluster_heartbeats_sent_total", "Heartbeat frames sent");
  metrics_.heartbeats_received = registry->GetCounter(
      "marlin_cluster_heartbeats_received_total",
      "Heartbeat and heartbeat-ack frames received");
  metrics_.transitions_up = registry->GetCounter(
      "marlin_cluster_membership_transitions_total",
      "Membership transitions by resulting state", {{"to", "up"}});
  metrics_.transitions_unreachable = registry->GetCounter(
      "marlin_cluster_membership_transitions_total",
      "Membership transitions by resulting state", {{"to", "unreachable"}});
  metrics_.transitions_removed = registry->GetCounter(
      "marlin_cluster_membership_transitions_total",
      "Membership transitions by resulting state", {{"to", "removed"}});
  metrics_.epoch = registry->GetGauge("marlin_cluster_membership_epoch",
                                      "Current membership epoch");
  metrics_.members_up =
      registry->GetGauge("marlin_cluster_members_up", "Members in state up");
  // Bootstrap ring: only self is up until peers prove themselves with a
  // heartbeat, so every node starts owning the full shard space locally.
  ring_.SetMembers(membership_.UpNodes(), membership_.epoch());
  metrics_.epoch->Set(static_cast<int64_t>(membership_.epoch()));
  metrics_.members_up->Set(
      static_cast<int64_t>(membership_.UpNodes().size()));
}

ClusterNode::~ClusterNode() { Shutdown(); }

Status ClusterNode::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return Status::FailedPrecondition("node was shut down");
    if (started_) return Status::FailedPrecondition("node already started");
    started_ = true;
  }
  Status status = counting_transport_->Start(
      config_.self, [this](const Frame& frame) { OnFrame(frame); });
  if (!status.ok()) return status;
  if (config_.auto_tick) {
    StatusOr<ActorRef> ticker = system_.Spawn(
        "cluster/ticker", std::make_unique<TickerActor>(this));
    if (!ticker.ok()) return ticker.status();
    {
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      ticker_ref_ = *ticker;
    }
    ScheduleNextTick();
  }
  return Status::Ok();
}

void ClusterNode::ScheduleNextTick() {
  ActorRef ticker;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return;
    ticker = ticker_ref_;
  }
  system_.ScheduleTell(config_.membership.heartbeat_interval, ticker,
                       TickMsg{});
}

void ClusterNode::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // Transport first: joins any reader threads, so no frame handler runs
  // into a dying actor system.
  counting_transport_->Shutdown();
  system_.Shutdown();
}

StatusOr<ShardRegion*> ClusterNode::CreateRegion(ShardRegionOptions options) {
  if (!options.factory) {
    return Status::InvalidArgument("region '" + options.name +
                                   "' needs an entity factory");
  }
  HashRing ring_snapshot;
  {
    std::lock_guard<std::mutex> lock(topology_mu_);
    ring_snapshot = ring_;
  }
  std::lock_guard<std::mutex> lock(regions_mu_);
  if (regions_.count(options.name) > 0) {
    return Status::AlreadyExists("region '" + options.name +
                                 "' already exists");
  }
  const std::string name = options.name;
  auto region = std::make_unique<ShardRegion>(
      std::move(options), &system_, counting_transport_.get(), config_.self,
      ring_snapshot, config_.metrics);
  ShardRegion* raw = region.get();
  regions_.emplace(name, std::move(region));
  return raw;
}

ShardRegion* ClusterNode::GetRegion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(regions_mu_);
  auto it = regions_.find(name);
  return it == regions_.end() ? nullptr : it->second.get();
}

void ClusterNode::Tick(TimeMicros now) {
  for (const NodeId peer : config_.nodes) {
    if (peer == config_.self) continue;
    if (membership_.StateOf(peer) == NodeState::kRemoved) continue;
    Frame heartbeat;
    heartbeat.type = FrameType::kHeartbeat;
    heartbeat.src = config_.self;
    // The sequence carries the sender's protocol time; the ack echoes it,
    // so liveness evidence stays on the sender's own clock (deterministic
    // under test-controlled time). The payload carries the sender's
    // membership epoch so receivers can reject frames from a superseded
    // view (delayed in flight across a topology change).
    heartbeat.seq = static_cast<uint64_t>(now);
    WireWriter writer;
    writer.PutU64(membership_.epoch());
    heartbeat.payload = writer.Take();
    if (counting_transport_->Send(peer, heartbeat)) {
      metrics_.heartbeats_sent->Increment();
    }
  }
  ApplyEvents(membership_.Tick(now));
  std::vector<ShardRegion*> regions;
  {
    std::lock_guard<std::mutex> lock(regions_mu_);
    for (auto& [name, region] : regions_) regions.push_back(region.get());
  }
  for (ShardRegion* region : regions) region->ResendPendingHandoffs(now);
}

void ClusterNode::OnFrame(const Frame& frame) {
  counting_transport_->CountReceived(frame);
  // FrameDecoder accepts any type byte; one with no case below is dropped.
  switch (frame.type) {
    case FrameType::kHello:
      // Connection attribution; consumed by the TCP transport layer.
      break;
    case FrameType::kHeartbeat: {
      metrics_.heartbeats_received->Increment();
      ApplyEvents(membership_.RecordHeartbeat(
          frame.src, static_cast<TimeMicros>(frame.seq),
          SenderEpochOf(frame)));
      Frame ack;
      ack.type = FrameType::kHeartbeatAck;
      ack.src = config_.self;
      ack.seq = frame.seq;  // echo the sender's timestamp
      WireWriter writer;
      writer.PutU64(membership_.epoch());  // the acker's own epoch
      ack.payload = writer.Take();
      counting_transport_->Send(frame.src, ack);
      break;
    }
    case FrameType::kHeartbeatAck:
      metrics_.heartbeats_received->Increment();
      ApplyEvents(membership_.RecordHeartbeat(
          frame.src, static_cast<TimeMicros>(frame.seq),
          SenderEpochOf(frame)));
      break;
    case FrameType::kEnvelope: {
      WireReader reader(frame.payload);
      std::string region_name;
      if (!reader.GetString16(&region_name)) break;
      ShardRegion* region = GetRegion(region_name);
      if (region != nullptr) region->OnEnvelope(frame);
      break;
    }
    case FrameType::kHandoffBegin: {
      WireReader reader(frame.payload);
      std::string region_name;
      uint32_t shard = 0;
      uint64_t epoch = 0;
      if (!reader.GetString16(&region_name) || !reader.GetU32(&shard) ||
          !reader.GetU64(&epoch)) {
        break;
      }
      ShardRegion* region = GetRegion(region_name);
      if (region != nullptr) {
        region->OnHandoffBegin(frame.src, static_cast<int>(shard), epoch);
      }
      break;
    }
    case FrameType::kHandoffAck: {
      WireReader reader(frame.payload);
      std::string region_name;
      uint32_t shard = 0;
      if (!reader.GetString16(&region_name) || !reader.GetU32(&shard)) break;
      ShardRegion* region = GetRegion(region_name);
      if (region != nullptr) {
        region->OnHandoffAck(frame.src, static_cast<int>(shard));
      }
      break;
    }
  }
}

void ClusterNode::ApplyEvents(const std::vector<MembershipEvent>& events) {
  if (events.empty()) return;
  for (const MembershipEvent& event : events) {
    MARLIN_LOG(INFO) << "cluster node " << config_.self << ": member "
                     << event.node << " " << NodeStateName(event.from)
                     << " -> " << NodeStateName(event.to) << " (epoch "
                     << event.epoch << ")";
    switch (event.to) {
      case NodeState::kUp:
        metrics_.transitions_up->Increment();
        break;
      case NodeState::kUnreachable:
        metrics_.transitions_unreachable->Increment();
        break;
      case NodeState::kRemoved:
        metrics_.transitions_removed->Increment();
        break;
      case NodeState::kJoining:
        break;
    }
  }
  HashRing ring_snapshot;
  {
    std::lock_guard<std::mutex> lock(topology_mu_);
    ring_.SetMembers(membership_.UpNodes(), membership_.epoch());
    ring_snapshot = ring_;
  }
  metrics_.epoch->Set(static_cast<int64_t>(membership_.epoch()));
  metrics_.members_up->Set(
      static_cast<int64_t>(membership_.UpNodes().size()));
  std::vector<ShardRegion*> regions;
  {
    std::lock_guard<std::mutex> lock(regions_mu_);
    for (auto& [name, region] : regions_) regions.push_back(region.get());
  }
  for (ShardRegion* region : regions) region->ApplyTopology(ring_snapshot);
}

HashRing ClusterNode::ring() const {
  std::lock_guard<std::mutex> lock(topology_mu_);
  return ring_;
}

std::string ClusterNode::StatusJson() const {
  std::ostringstream out;
  out << "{\"self\":" << config_.self
      << ",\"epoch\":" << membership_.epoch() << ",\"members\":[";
  bool first = true;
  for (const MemberInfo& member : membership_.Members()) {
    if (!first) out << ",";
    first = false;
    out << "{\"id\":" << member.id << ",\"state\":\""
        << NodeStateName(member.state)
        << "\",\"last_heartbeat_micros\":" << member.last_heartbeat << "}";
  }
  out << "],\"regions\":[";
  std::lock_guard<std::mutex> lock(regions_mu_);
  first = true;
  for (const auto& [name, region] : regions_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << name
        << "\",\"num_shards\":" << region->num_shards()
        << ",\"shards_owned\":" << region->OwnedShardCount()
        << ",\"entities\":" << region->LocalEntityCount()
        << ",\"buffered\":" << region->BufferedCount() << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace cluster
}  // namespace marlin
