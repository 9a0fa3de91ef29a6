#ifndef MARLIN_CLUSTER_CLUSTER_NODE_H_
#define MARLIN_CLUSTER_CLUSTER_NODE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "actor/actor_system.h"
#include "cluster/frame.h"
#include "cluster/hash_ring.h"
#include "cluster/membership.h"
#include "cluster/shard_region.h"
#include "cluster/transport.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace marlin {
namespace cluster {

struct ClusterNodeConfig {
  /// This node's identity. Must appear in `nodes`.
  NodeId self = 1;
  /// The full static roster (gossip-free membership: every node knows the
  /// complete node list up front).
  std::vector<NodeId> nodes = {1};
  /// Shard-space size shared by every region on this cluster. Align with
  /// stream partition counts (Broker::PartitionForKey) so a node's shards
  /// double as its consumer partition assignment.
  int num_shards = 64;
  /// Virtual nodes per member on the hash ring.
  int vnodes_per_node = 16;
  MembershipOptions membership;
  /// Configuration for the node's embedded ActorSystem.
  ActorSystemConfig actor;
  /// Registry for cluster metrics (null = process global).
  obs::MetricsRegistry* metrics = nullptr;
  /// When true, Start() spawns an internal ticker actor that drives
  /// Tick() at the heartbeat interval off the wall clock. Deterministic
  /// tests leave this false and call Tick(now) with controlled timestamps.
  bool auto_tick = true;
};

/// One cluster member: an ActorSystem plus membership, a hash ring over the
/// up-set, and the frame dispatcher gluing shard regions to the transport.
///
/// Heartbeats ride the transport as kHeartbeat/kHeartbeatAck frames whose
/// `seq` carries the sender's timestamp; each node runs its own failure
/// detector (Membership) over the evidence. When the up-set changes, the
/// ring is rebuilt at the new membership epoch and every region performs
/// per-shard handoff toward the new owners.
class ClusterNode {
 public:
  ClusterNode(const ClusterNodeConfig& config,
              std::shared_ptr<Transport> transport);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Wires the frame handler into the transport and (if configured) starts
  /// the auto ticker. Call after the transport is ready to listen.
  Status Start();

  /// Stops the ticker, the transport (no more inbound frames), then the
  /// actor system. Idempotent; called by the destructor.
  void Shutdown();

  /// Registers a shard region. The returned pointer is owned by the node
  /// and stable until Shutdown. Fails if the name is taken.
  StatusOr<ShardRegion*> CreateRegion(ShardRegionOptions options);

  ShardRegion* GetRegion(const std::string& name) const;

  /// One protocol step at time `now`: sends heartbeats to peers, advances
  /// the failure detector, applies any membership transitions to the ring
  /// and regions, and retries pending handoffs. Public so deterministic
  /// tests can drive protocol time explicitly.
  void Tick(TimeMicros now);

  NodeId self() const { return config_.self; }
  ActorSystem& system() { return system_; }
  Membership& membership() { return membership_; }

  /// Current ring snapshot (copy).
  HashRing ring() const;

  /// Cluster status as a JSON object (membership, epoch, per-region shard
  /// ownership) — served by the admin API's /cluster route.
  std::string StatusJson() const;

 private:
  class CountingTransport;
  class TickerActor;

  void OnFrame(const Frame& frame);
  /// Folds membership transitions into the ring and regions.
  void ApplyEvents(const std::vector<MembershipEvent>& events);
  void ScheduleNextTick();

  const ClusterNodeConfig config_;
  std::shared_ptr<Transport> transport_;  // the real wire
  std::unique_ptr<CountingTransport> counting_transport_;  // what regions use
  Membership membership_;
  ActorSystem system_;

  mutable std::mutex topology_mu_;
  HashRing ring_;

  mutable std::mutex regions_mu_;
  std::map<std::string, std::unique_ptr<ShardRegion>> regions_;

  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool shut_down_ = false;
  ActorRef ticker_ref_;

  struct Metrics {
    obs::Counter* heartbeats_sent = nullptr;
    obs::Counter* heartbeats_received = nullptr;
    obs::Counter* transitions_up = nullptr;
    obs::Counter* transitions_unreachable = nullptr;
    obs::Counter* transitions_removed = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Gauge* members_up = nullptr;
  };
  Metrics metrics_;
};

}  // namespace cluster
}  // namespace marlin

#endif  // MARLIN_CLUSTER_CLUSTER_NODE_H_
