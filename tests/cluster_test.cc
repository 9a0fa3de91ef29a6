// Tests for src/cluster: frame codec, consistent-hash ring, membership
// failure detection, and full two-/three-node protocol runs over the
// in-process transport (routing, remote refs, handoff with buffered replay)
// plus a TCP transport loopback exchange. Labelled `cluster` — run
// separately with `ctest -L cluster` (also under TSan and MARLIN_CHECKED in
// CI; the duplicate-delivery and epoch invariants only bite in checked
// builds).

#include <algorithm>
#include <any>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chk/chk.h"
#include "cluster/cluster_node.h"
#include "cluster/frame.h"
#include "cluster/hash_ring.h"
#include "cluster/membership.h"
#include "cluster/shard_region.h"
#include "cluster/tcp_transport.h"
#include "cluster/transport.h"
#include "obs/metrics.h"
#include "stream/broker.h"
#include "util/rng.h"

namespace marlin {
namespace cluster {
namespace {

// ---------------------------------------------------------------- frames

TEST(FrameCodecTest, EncodeDecodeRoundtrip) {
  Frame in;
  in.type = FrameType::kEnvelope;
  in.src = 7;
  in.seq = 0x0102030405060708ull;
  in.payload = std::string("payload-\x00-with-nul", 18);
  const std::string wire = EncodeFrame(in);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.src, in.src);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_FALSE(decoder.Next(&out));  // nothing left
  EXPECT_TRUE(decoder.error().ok());
}

TEST(FrameCodecTest, DecodesAcrossArbitrarySplits) {
  Frame a;
  a.type = FrameType::kHeartbeat;
  a.src = 1;
  a.seq = 42;
  Frame b;
  b.type = FrameType::kEnvelope;
  b.src = 2;
  b.seq = 43;
  b.payload = "hello";
  const std::string wire = EncodeFrame(a) + EncodeFrame(b);

  // Feed one byte at a time: the decoder must reassemble exactly two
  // frames regardless of TCP segmentation.
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char byte : wire) {
    decoder.Feed(&byte, 1);
    Frame out;
    while (decoder.Next(&out)) frames.push_back(out);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].seq, 42u);
  EXPECT_EQ(frames[1].payload, "hello");
  EXPECT_TRUE(decoder.error().ok());
}

TEST(FrameCodecTest, RejectsWrongVersion) {
  std::string wire = EncodeFrame(Frame{});
  wire[4] = 99;  // version byte follows the u32 length prefix
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_FALSE(decoder.error().ok());
}

TEST(FrameCodecTest, RejectsOversizedLength) {
  // A hostile/desynced length prefix must fail fast, not allocate 4 GiB.
  std::string wire(4, '\0');
  wire[0] = '\xff';
  wire[1] = '\xff';
  wire[2] = '\xff';
  wire[3] = '\xff';
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame out;
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_FALSE(decoder.error().ok());
}

TEST(FrameCodecTest, WireReaderRejectsUnderflow) {
  WireWriter writer;
  writer.PutString16("abc");
  writer.PutU64(5);
  const std::string blob = writer.Take();

  WireReader reader(blob);
  std::string s;
  uint64_t v = 0;
  ASSERT_TRUE(reader.GetString16(&s));
  EXPECT_EQ(s, "abc");
  ASSERT_TRUE(reader.GetU64(&v));
  EXPECT_EQ(v, 5u);
  EXPECT_EQ(reader.remaining(), 0u);
  uint8_t extra = 0;
  EXPECT_FALSE(reader.GetU8(&extra));
}

TEST(FrameCodecTest, FuzzRoundTripsRandomFramesAcrossRandomChunks) {
  // Property test: any batch of well-formed frames survives encode →
  // arbitrary re-segmentation → decode, bit for bit. Seeded so a failure
  // reproduces exactly.
  Rng rng(0xF8A3E5u);
  for (int round = 0; round < 50; ++round) {
    std::vector<Frame> in;
    std::string wire;
    const int count = 1 + static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < count; ++i) {
      Frame frame;
      frame.type = static_cast<FrameType>(1 + rng.UniformInt(6));
      frame.src = static_cast<NodeId>(rng.NextUint64());
      frame.seq = rng.NextUint64();
      frame.payload.resize(rng.UniformInt(2'000));
      for (char& byte : frame.payload) {
        byte = static_cast<char>(rng.UniformInt(256));
      }
      in.push_back(frame);
      wire += EncodeFrame(frame);
    }
    FrameDecoder decoder;
    std::vector<Frame> out;
    size_t offset = 0;
    while (offset < wire.size()) {
      const size_t chunk = std::min(
          wire.size() - offset, 1 + rng.UniformInt(700));
      decoder.Feed(wire.data() + offset, chunk);
      offset += chunk;
      Frame frame;
      while (decoder.Next(&frame)) out.push_back(frame);
    }
    ASSERT_TRUE(decoder.error().ok()) << "round " << round;
    ASSERT_EQ(out.size(), in.size()) << "round " << round;
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i].type, in[i].type);
      EXPECT_EQ(out[i].src, in[i].src);
      EXPECT_EQ(out[i].seq, in[i].seq);
      EXPECT_EQ(out[i].payload, in[i].payload);
    }
  }
}

TEST(FrameCodecTest, FuzzCorruptTruncatedInputNeverCrashesAndResetRecovers) {
  // Hostile-input corpus: truncations at every boundary, single-byte
  // corruption sweeps, oversized length prefixes, and pure noise. The
  // decoder must never crash or over-read; errors are sticky; and Reset()
  // always returns it to a state that decodes a clean frame.
  Frame valid;
  valid.type = FrameType::kEnvelope;
  valid.src = 3;
  valid.seq = 99;
  valid.payload = "fuzz-me";
  const std::string good = EncodeFrame(valid);

  auto expect_recovers = [&good](FrameDecoder* decoder) {
    decoder->Reset();
    decoder->Feed(good.data(), good.size());
    Frame out;
    ASSERT_TRUE(decoder->Next(&out));
    EXPECT_EQ(out.payload, "fuzz-me");
    EXPECT_TRUE(decoder->error().ok());
  };

  // Every possible truncation: never a frame, never an error — the decoder
  // just waits for the rest of the bytes.
  for (size_t len = 0; len < good.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(good.data(), len);
    Frame out;
    EXPECT_FALSE(decoder.Next(&out)) << "truncated at " << len;
    EXPECT_TRUE(decoder.error().ok()) << "truncated at " << len;
    // The tail arriving later completes the frame.
    decoder.Feed(good.data() + len, good.size() - len);
    ASSERT_TRUE(decoder.Next(&out));
    EXPECT_EQ(out.seq, 99u);
  }

  // Flip every byte in turn. Corrupting the length prefix or header may or
  // may not produce a decodable-looking frame, but it must never crash and
  // any sticky error must be recoverable via Reset().
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string mutated = good;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5A);
    FrameDecoder decoder;
    decoder.Feed(mutated.data(), mutated.size());
    Frame out;
    while (decoder.Next(&out)) {
    }
    if (!decoder.error().ok()) {
      // Errors are sticky: more input cannot un-error the stream.
      decoder.Feed(good.data(), good.size());
      EXPECT_FALSE(decoder.Next(&out)) << "byte " << pos;
      EXPECT_FALSE(decoder.error().ok()) << "byte " << pos;
    }
    expect_recovers(&decoder);
  }

  // Random garbage, including prefixes that imply enormous lengths.
  Rng rng(0xDEC0DEu);
  for (int round = 0; round < 200; ++round) {
    std::string noise(rng.UniformInt(64), '\0');
    for (char& byte : noise) byte = static_cast<char>(rng.UniformInt(256));
    FrameDecoder decoder;
    decoder.Feed(noise.data(), noise.size());
    Frame out;
    while (decoder.Next(&out)) {
    }
    expect_recovers(&decoder);
  }
}

// ---------------------------------------------------------------- ring

TEST(HashRingTest, DeterministicAcrossInstances) {
  HashRing a(64, 16), b(64, 16);
  a.SetMembers({3, 1, 2}, 5);
  b.SetMembers({1, 2, 3}, 5);  // order must not matter
  for (int shard = 0; shard < 64; ++shard) {
    EXPECT_EQ(a.OwnerOfShard(shard), b.OwnerOfShard(shard));
  }
  EXPECT_EQ(a.epoch(), 5u);
}

TEST(HashRingTest, EveryShardOwnedAndReasonablyBalanced) {
  HashRing ring(64, 16);
  ring.SetMembers({1, 2, 3, 4}, 1);
  std::map<NodeId, int> owned;
  for (int shard = 0; shard < 64; ++shard) {
    const NodeId owner = ring.OwnerOfShard(shard);
    ASSERT_NE(owner, kNoNode);
    ++owned[owner];
  }
  ASSERT_EQ(owned.size(), 4u);  // every node owns something
  for (const auto& [node, count] : owned) {
    // Perfect balance is 16; virtual nodes should keep skew moderate.
    EXPECT_GE(count, 4) << "node " << node;
    EXPECT_LE(count, 40) << "node " << node;
  }
}

TEST(HashRingTest, MemberAdditionOnlyMovesShardsToTheNewNode) {
  HashRing before(64, 16), after(64, 16);
  before.SetMembers({1, 2}, 1);
  after.SetMembers({1, 2, 3}, 2);
  int moved = 0;
  for (int shard = 0; shard < 64; ++shard) {
    if (after.OwnerOfShard(shard) != before.OwnerOfShard(shard)) {
      // Consistent hashing: a new member only *takes* shards; shards never
      // shuffle between the surviving members.
      EXPECT_EQ(after.OwnerOfShard(shard), 3u) << "shard " << shard;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 64);
}

TEST(HashRingTest, EmptyMembersLeaveShardsUnowned) {
  HashRing ring(8, 4);
  ring.SetMembers({}, 1);
  for (int shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(ring.OwnerOfShard(shard), kNoNode);
  }
}

TEST(HashRingTest, KeyToShardAlignsWithBrokerPartitioner) {
  // The whole point of sharing FNV-1a: with num_shards == num_partitions,
  // an entity's shard IS its records' broker partition, so
  // ShardsOwnedBy(node) doubles as the node's consumer assignment.
  HashRing ring(64, 16);
  ring.SetMembers({1, 2}, 1);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "mmsi-" + std::to_string(244060000 + i);
    EXPECT_EQ(Broker::PartitionForKey(key, 64), ring.ShardForKey(key));
  }
}

TEST(HashRingTest, RebalanceMovesBoundedKeyFractionOnChurn) {
  // 10K keys against a 3-node ring, then add a node and separately remove
  // one. Consistent hashing promises (a) only keys involving the changed
  // node move, and (b) the moved fraction stays near the fair share — not
  // the wholesale reshuffle a modulo partitioner would cause.
  constexpr int kKeys = 10'000;
  constexpr int kShards = 256;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("mmsi-" + std::to_string(200'000'000 + 7 * i));
  }

  HashRing base(kShards, 16);
  base.SetMembers({1, 2, 3}, 1);
  HashRing grown(kShards, 16);
  grown.SetMembers({1, 2, 3, 4}, 2);
  HashRing shrunk(kShards, 16);
  shrunk.SetMembers({1, 2}, 2);

  int moved_on_add = 0, moved_on_remove = 0;
  for (const std::string& key : keys) {
    // The key→shard map is pure FNV-1a: identical across ring instances and
    // identical to the broker partitioner, so a rebalance never changes
    // which partition a key's records live in — only which node reads it.
    const int shard = base.ShardForKey(key);
    EXPECT_EQ(shard, grown.ShardForKey(key));
    EXPECT_EQ(shard, Broker::PartitionForKey(key, kShards));

    const NodeId before = base.OwnerOfShard(shard);
    const NodeId after_add = grown.OwnerOfShard(shard);
    if (before != after_add) {
      EXPECT_EQ(after_add, 4u) << key;  // new node only takes, never shuffles
      ++moved_on_add;
    }
    const NodeId after_remove = shrunk.OwnerOfShard(shard);
    if (before != after_remove) {
      EXPECT_EQ(before, 3u) << key;  // only the departed node's keys move
      ++moved_on_remove;
    }
  }
  // Fair share on add is 1/4 of the keys; on remove, node 3 held ~1/3.
  // Virtual-node placement is lumpy, so allow 2x the fair share but insist
  // the move is real and nowhere near a full reshuffle.
  EXPECT_GT(moved_on_add, 0);
  EXPECT_LT(moved_on_add, kKeys / 2);
  EXPECT_GT(moved_on_remove, 0);
  EXPECT_LT(moved_on_remove, 2 * kKeys / 3);
}

// ---------------------------------------------------------------- members

TEST(MembershipTest, HeartbeatPromotesJoiningToUp) {
  Membership membership(1, {1, 2, 3}, {});
  EXPECT_EQ(membership.StateOf(1), NodeState::kUp);  // self
  EXPECT_EQ(membership.StateOf(2), NodeState::kJoining);
  const auto events = membership.RecordHeartbeat(2, 1'000'000);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_EQ(events[0].from, NodeState::kJoining);
  EXPECT_EQ(events[0].to, NodeState::kUp);
  EXPECT_EQ(membership.UpNodes(), (std::vector<NodeId>{1, 2}));
}

TEST(MembershipTest, MissedBeatsMarkUnreachableAndBackUp) {
  MembershipOptions options;
  options.heartbeat_interval = 100;
  options.unreachable_after_missed = 4;
  Membership membership(1, {1, 2}, options);
  membership.RecordHeartbeat(2, 1'000);
  // Within the threshold: still up.
  EXPECT_TRUE(membership.Tick(1'000 + 4 * 100).empty());
  EXPECT_EQ(membership.StateOf(2), NodeState::kUp);
  // One interval past the threshold: unreachable.
  const auto down = membership.Tick(1'000 + 5 * 100);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].to, NodeState::kUnreachable);
  EXPECT_EQ(membership.UpNodes(), (std::vector<NodeId>{1}));
  // Fresh evidence resurrects the peer.
  const auto up = membership.RecordHeartbeat(2, 2'000);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].from, NodeState::kUnreachable);
  EXPECT_EQ(up[0].to, NodeState::kUp);
}

TEST(MembershipTest, SilentJoiningPeerNeverFails) {
  MembershipOptions options;
  options.heartbeat_interval = 100;
  Membership membership(1, {1, 2}, options);
  // Node 2 has not booted yet: hours of ticks must not declare it failed.
  EXPECT_TRUE(membership.Tick(3'600'000'000).empty());
  EXPECT_EQ(membership.StateOf(2), NodeState::kJoining);
}

TEST(MembershipTest, RemovedIsTerminal) {
  MembershipOptions options;
  options.heartbeat_interval = 100;
  options.unreachable_after_missed = 2;
  options.removed_after_missed = 4;
  Membership membership(1, {1, 2}, options);
  membership.RecordHeartbeat(2, 0);
  membership.Tick(300);  // unreachable
  const auto removed = membership.Tick(500);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].to, NodeState::kRemoved);
  // Late heartbeats from a removed node are ignored.
  EXPECT_TRUE(membership.RecordHeartbeat(2, 600).empty());
  EXPECT_EQ(membership.StateOf(2), NodeState::kRemoved);
}

TEST(MembershipTest, EpochsStrictlyMonotonic) {
  MembershipOptions options;
  options.heartbeat_interval = 100;
  options.unreachable_after_missed = 2;
  Membership membership(1, {1, 2, 3}, options);
  uint64_t last_epoch = membership.epoch();
  std::vector<MembershipEvent> all;
  auto absorb = [&](std::vector<MembershipEvent> events) {
    for (const auto& event : events) all.push_back(event);
  };
  absorb(membership.RecordHeartbeat(2, 100));
  absorb(membership.RecordHeartbeat(3, 100));
  absorb(membership.Tick(1'000));               // both unreachable
  absorb(membership.RecordHeartbeat(2, 1'100));  // 2 back up
  ASSERT_GE(all.size(), 5u);
  for (const auto& event : all) {
    EXPECT_GT(event.epoch, last_epoch);
    last_epoch = event.epoch;
  }
  EXPECT_EQ(membership.epoch(), last_epoch);
}

TEST(MembershipTest, StaleEpochHeartbeatIsRejected) {
  // A heartbeat carrying a sender epoch older than the newest one we have
  // seen is a stale in-flight frame (delayed or duplicated by the network)
  // and must not refresh the failure detector.
  MembershipOptions options;
  options.heartbeat_interval = 100;
  options.unreachable_after_missed = 4;
  Membership membership(1, {1, 2}, options);
  EXPECT_EQ(membership.RecordHeartbeat(2, 1'000, /*sender_epoch=*/7).size(),
            1u);
  EXPECT_EQ(membership.StateOf(2), NodeState::kUp);
  // Fresher timestamp but older epoch: rejected outright.
  EXPECT_TRUE(membership.RecordHeartbeat(2, 2'000, /*sender_epoch=*/3).empty());
  // Proof the stale beat did not count as liveness evidence: the detector
  // still times out from the epoch-7 beat at t=1000, not from t=2000.
  const auto down = membership.Tick(1'000 + 5 * 100);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].to, NodeState::kUnreachable);
}

TEST(MembershipTest, NewIncarnationAcceptedAfterUnreachable) {
  // A node that crashes and restarts begins a fresh incarnation at epoch 1.
  // While the old incarnation is considered alive, epoch 1 looks stale and
  // is rejected — but once the detector declares the peer unreachable, the
  // remembered epoch is forgotten so the restarted node can rejoin.
  MembershipOptions options;
  options.heartbeat_interval = 100;
  options.unreachable_after_missed = 4;
  Membership membership(1, {1, 2}, options);
  membership.RecordHeartbeat(2, 1'000, /*sender_epoch=*/9);
  EXPECT_EQ(membership.StateOf(2), NodeState::kUp);

  // Old incarnation still "alive": its restart's epoch-1 beat is stale.
  EXPECT_TRUE(membership.RecordHeartbeat(2, 1'050, /*sender_epoch=*/1).empty());

  // The crash is detected...
  const auto down = membership.Tick(1'000 + 5 * 100);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].to, NodeState::kUnreachable);

  // ...and the new incarnation's low epoch is now welcome again.
  const auto up = membership.RecordHeartbeat(2, 2'000, /*sender_epoch=*/1);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].from, NodeState::kUnreachable);
  EXPECT_EQ(up[0].to, NodeState::kUp);
  // And its epochs advance normally from there.
  EXPECT_TRUE(membership.RecordHeartbeat(2, 2'100, /*sender_epoch=*/2).empty());
  EXPECT_TRUE(membership.RecordHeartbeat(2, 2'150, /*sender_epoch=*/1).empty());
  EXPECT_EQ(membership.StateOf(2), NodeState::kUp);
}

// ---------------------------------------------------------------- protocol

/// Global record of entity deliveries across all virtual nodes, so the
/// tests can assert exactly-once end to end.
struct DeliveryLog {
  std::mutex mu;
  // payload -> list of (node, entity) deliveries observed.
  std::map<std::string, std::vector<std::pair<NodeId, std::string>>> seen;

  void Record(NodeId node, const std::string& entity,
              const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu);
    seen[payload].emplace_back(node, entity);
  }

  size_t DeliveryCount(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = seen.find(payload);
    return it == seen.end() ? 0 : it->second.size();
  }

  std::vector<std::pair<NodeId, std::string>> Deliveries(
      const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu);
    return seen[payload];
  }

  size_t TotalDeliveries() {
    std::lock_guard<std::mutex> lock(mu);
    size_t total = 0;
    for (const auto& [payload, deliveries] : seen) {
      total += deliveries.size();
    }
    return total;
  }
};

/// Entity actor recording every ShardEnvelope it receives.
class RecorderActor : public Actor {
 public:
  RecorderActor(NodeId node, std::string entity, DeliveryLog* log)
      : node_(node), entity_(std::move(entity)), log_(log) {}

  Status Receive(const std::any& message, ActorContext& ctx) override {
    (void)ctx;
    if (const ShardEnvelope* env = std::any_cast<ShardEnvelope>(&message)) {
      EXPECT_EQ(env->entity, entity_);
      log_->Record(node_, entity_, env->payload);
      return Status::Ok();
    }
    return Status::InvalidArgument("unexpected message type");
  }

 private:
  const NodeId node_;
  const std::string entity_;
  DeliveryLog* log_;
};

/// One in-process cluster member: transport + node + "vessel" region wired
/// to the shared hub and delivery log. auto_tick is off — tests drive
/// protocol time explicitly for determinism.
struct TestNode {
  TestNode(NodeId id, std::vector<NodeId> roster, InProcessHub* hub,
           DeliveryLog* log, int num_shards = 64) {
    ClusterNodeConfig config;
    config.self = id;
    config.nodes = std::move(roster);
    config.num_shards = num_shards;
    config.auto_tick = false;
    config.metrics = &registry;
    config.actor.metrics = &registry;
    node = std::make_unique<ClusterNode>(
        config, std::make_shared<InProcessTransport>(hub));
    EXPECT_TRUE(node->Start().ok());
    ShardRegionOptions options;
    options.name = "vessel";
    options.factory = [id, log](const std::string& entity) {
      return std::make_unique<RecorderActor>(id, entity, log);
    };
    region = *node->CreateRegion(std::move(options));
  }

  obs::MetricsRegistry registry;
  std::unique_ptr<ClusterNode> node;
  ShardRegion* region = nullptr;
};

constexpr TimeMicros kT0 = 1'000'000;
constexpr TimeMicros kBeat = 200'000;  // MembershipOptions default interval

/// Ticks every node at `now` (heartbeats + detectors + handoff retries).
void TickAll(std::vector<TestNode*> nodes, TimeMicros now) {
  for (TestNode* n : nodes) n->node->Tick(now);
}

void Quiesce(std::vector<TestNode*> nodes) {
  for (TestNode* n : nodes) n->node->system().AwaitQuiescence();
}

/// Finds an entity owned by `want` in node `view`'s region.
std::string EntityOwnedBy(const TestNode& view, NodeId want) {
  for (int i = 0; i < 10'000; ++i) {
    const std::string entity = "v" + std::to_string(i);
    if (view.region->OwnerOfShard(view.region->ShardForEntity(entity)) ==
        want) {
      return entity;
    }
  }
  ADD_FAILURE() << "no entity owned by node " << want;
  return "v0";
}

TEST(ClusterTwoNodeTest, ConvergesAndRoutesRemoteEnvelopes) {
  chk::ScopedViolationRecorder violations;
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2}, &hub, &log);
  TestNode n2(2, {1, 2}, &hub, &log);

  // One heartbeat round each: joining -> up everywhere.
  TickAll({&n1, &n2}, kT0);
  TickAll({&n1, &n2}, kT0 + kBeat);
  EXPECT_EQ(n1.node->membership().UpNodes(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(n2.node->membership().UpNodes(), (std::vector<NodeId>{1, 2}));
  // Converged views: the shard space splits without overlap.
  EXPECT_EQ(n1.region->OwnedShardCount() + n2.region->OwnedShardCount(), 64u);
  for (int shard = 0; shard < 64; ++shard) {
    EXPECT_EQ(n1.region->OwnerOfShard(shard), n2.region->OwnerOfShard(shard));
  }
  EXPECT_EQ(n1.region->BufferedCount(), 0u);
  EXPECT_EQ(n2.region->BufferedCount(), 0u);

  // A remote envelope: node 1 tells an entity whose shard node 2 owns.
  const std::string remote_entity = EntityOwnedBy(n1, 2);
  EXPECT_TRUE(n1.region->Tell(remote_entity, "remote-payload"));
  Quiesce({&n1, &n2});
  ASSERT_EQ(log.DeliveryCount("remote-payload"), 1u);
  EXPECT_EQ(log.Deliveries("remote-payload")[0].first, 2u);

  // A local envelope stays local.
  const std::string local_entity = EntityOwnedBy(n1, 1);
  EXPECT_TRUE(n1.region->Tell(local_entity, "local-payload"));
  Quiesce({&n1, &n2});
  ASSERT_EQ(log.DeliveryCount("local-payload"), 1u);
  EXPECT_EQ(log.Deliveries("local-payload")[0].first, 1u);

  EXPECT_EQ(violations.count(), 0);
  n2.node->Shutdown();
  n1.node->Shutdown();
}

TEST(ClusterTwoNodeTest, ResolveReturnsRoutedRemoteRef) {
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2}, &hub, &log);
  TestNode n2(2, {1, 2}, &hub, &log);
  TickAll({&n1, &n2}, kT0);
  TickAll({&n1, &n2}, kT0 + kBeat);

  const std::string entity = EntityOwnedBy(n1, 2);
  StatusOr<ActorRef> ref = n1.region->Resolve(entity);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(ref->is_remote());
  EXPECT_TRUE(ref->valid());
  EXPECT_EQ(ref->name(), "vessel/" + entity);

  // String payloads route through the region toward the owner.
  EXPECT_TRUE(n1.node->system().Tell(*ref, std::string("via-ref")));
  Quiesce({&n1, &n2});
  ASSERT_EQ(log.DeliveryCount("via-ref"), 1u);
  EXPECT_EQ(log.Deliveries("via-ref")[0].first, 2u);

  // Non-serialisable payloads are refused, not silently dropped remotely.
  EXPECT_FALSE(n1.node->system().Tell(*ref, 42));

  // Resolving a local entity yields an ordinary live ref.
  StatusOr<ActorRef> local = n1.region->Resolve(EntityOwnedBy(n1, 1));
  ASSERT_TRUE(local.ok());
  EXPECT_FALSE(local->is_remote());
  EXPECT_TRUE(local->valid());

  n2.node->Shutdown();
  n1.node->Shutdown();
}

TEST(ClusterThreeNodeTest, UnreachableNodeHandsOffWithBufferedReplay) {
  chk::ScopedViolationRecorder violations;
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2, 3}, &hub, &log);
  TestNode n2(2, {1, 2, 3}, &hub, &log);
  TestNode n3(3, {1, 2, 3}, &hub, &log);

  TickAll({&n1, &n2, &n3}, kT0);
  TickAll({&n1, &n2, &n3}, kT0 + kBeat);
  ASSERT_EQ(n1.node->membership().UpNodes(), (std::vector<NodeId>{1, 2, 3}));
  ASSERT_EQ(n3.node->membership().UpNodes(), (std::vector<NodeId>{1, 2, 3}));
  ASSERT_EQ(n1.region->BufferedCount(), 0u);

  // Pick an entity that node 3 owns now and node 2 will own once node 3 is
  // unreachable (so its shard goes remote->remote from node 1's seat).
  HashRing survivors(64, 16);
  survivors.SetMembers({1, 2}, 99);
  std::string entity;
  for (int i = 0; i < 10'000 && entity.empty(); ++i) {
    const std::string candidate = "v" + std::to_string(i);
    const int shard = n1.region->ShardForEntity(candidate);
    if (n1.region->OwnerOfShard(shard) == 3 &&
        survivors.OwnerOfShard(shard) == 2) {
      entity = candidate;
    }
  }
  ASSERT_FALSE(entity.empty());

  EXPECT_TRUE(n1.region->Tell(entity, "before-failure"));
  Quiesce({&n1, &n2, &n3});
  ASSERT_EQ(log.DeliveryCount("before-failure"), 1u);
  EXPECT_EQ(log.Deliveries("before-failure")[0].first, 3u);

  // Node 3 dies: cut both of its links. Only node 1 notices at first —
  // node 2's detector lags, so node 1's handoff-begin goes unanswered and
  // envelopes for the moving shard park in node 1's buffer.
  hub.SetLinkUp(1, 3, false);
  hub.SetLinkUp(2, 3, false);
  const uint64_t epoch_before = n1.node->membership().epoch();
  for (int k = 1; k <= 6; ++k) {
    n1.node->Tick(kT0 + kBeat + k * kBeat);
  }
  EXPECT_EQ(n1.node->membership().StateOf(3), NodeState::kUnreachable);
  EXPECT_GT(n1.node->membership().epoch(), epoch_before);
  EXPECT_EQ(n1.region->OwnerOfShard(n1.region->ShardForEntity(entity)), 2u);

  EXPECT_TRUE(n1.region->Tell(entity, "during-handoff-1"));
  EXPECT_TRUE(n1.region->Tell(entity, "during-handoff-2"));
  // Node 2 still thinks node 3 owns the shard: no ack yet, so the
  // envelopes are buffered, not lost and not delivered.
  EXPECT_EQ(n1.region->BufferedCount(), 2u);
  EXPECT_EQ(log.DeliveryCount("during-handoff-1"), 0u);

  // Node 2 catches up, agrees it owns the shard; node 1's next tick
  // re-sends the pending handoff-begin, gets the ack, and replays.
  n2.node->Tick(kT0 + 7 * kBeat);
  ASSERT_EQ(n2.node->membership().StateOf(3), NodeState::kUnreachable);
  n1.node->Tick(kT0 + 8 * kBeat);
  Quiesce({&n1, &n2});
  EXPECT_EQ(n1.region->BufferedCount(), 0u);
  ASSERT_EQ(log.DeliveryCount("during-handoff-1"), 1u);
  ASSERT_EQ(log.DeliveryCount("during-handoff-2"), 1u);
  EXPECT_EQ(log.Deliveries("during-handoff-1")[0].first, 2u);
  EXPECT_EQ(log.Deliveries("during-handoff-2")[0].first, 2u);

  // Post-handoff traffic routes straight to the new owner; nothing is
  // ever delivered twice (the chk invariant would have fired).
  EXPECT_TRUE(n1.region->Tell(entity, "after-handoff"));
  Quiesce({&n1, &n2});
  ASSERT_EQ(log.DeliveryCount("after-handoff"), 1u);
  EXPECT_EQ(log.Deliveries("after-handoff")[0].first, 2u);
  EXPECT_EQ(violations.count(), 0);

  n3.node->Shutdown();
  n2.node->Shutdown();
  n1.node->Shutdown();
}

TEST(ClusterTwoNodeTest, PartitionHealStopsRelocatedEntities) {
  chk::ScopedViolationRecorder violations;
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2}, &hub, &log);
  TestNode n2(2, {1, 2}, &hub, &log);
  TickAll({&n1, &n2}, kT0);
  TickAll({&n1, &n2}, kT0 + kBeat);

  const std::string entity = EntityOwnedBy(n1, 2);
  n1.region->Tell(entity, "seed");
  Quiesce({&n1, &n2});
  EXPECT_EQ(n2.region->LocalEntityCount(), 1u);

  // Full partition: both detectors fire, each survivor takes over the
  // whole shard space in its own view.
  hub.SetLinkUp(1, 2, false);
  for (int k = 1; k <= 6; ++k) {
    n1.node->Tick(kT0 + kBeat + k * kBeat);
    n2.node->Tick(kT0 + kBeat + k * kBeat);
  }
  EXPECT_EQ(n1.node->membership().StateOf(2), NodeState::kUnreachable);
  EXPECT_EQ(n2.node->membership().StateOf(1), NodeState::kUnreachable);
  EXPECT_EQ(n1.region->OwnedShardCount(), 64u);
  EXPECT_EQ(n2.region->OwnedShardCount(), 64u);

  // Node 1 spawns its own copy of the entity during the split-brain window.
  n1.region->Tell(entity, "during-partition");
  Quiesce({&n1});
  ASSERT_EQ(log.DeliveryCount("during-partition"), 1u);
  EXPECT_EQ(log.Deliveries("during-partition")[0].first, 1u);
  EXPECT_TRUE(n1.node->system().Find("vessel/" + entity).ok());

  // Heal: fresh heartbeats resurrect both peers, rings reconverge, and
  // each node stops the entity actors of the shards it gave back.
  hub.SetLinkUp(1, 2, true);
  TickAll({&n1, &n2}, kT0 + 8 * kBeat);
  TickAll({&n1, &n2}, kT0 + 9 * kBeat);
  Quiesce({&n1, &n2});
  EXPECT_EQ(n1.node->membership().StateOf(2), NodeState::kUp);
  EXPECT_EQ(n2.node->membership().StateOf(1), NodeState::kUp);
  EXPECT_EQ(n1.region->OwnedShardCount() + n2.region->OwnedShardCount(), 64u);
  EXPECT_EQ(n1.region->BufferedCount(), 0u);
  EXPECT_EQ(n2.region->BufferedCount(), 0u);
  // Node 1's split-brain copy was stopped when its shard moved back.
  EXPECT_FALSE(n1.node->system().Find("vessel/" + entity).ok());
  EXPECT_EQ(n1.region->LocalEntityCount(), 0u);

  // Traffic flows to the (single) owner again.
  n1.region->Tell(entity, "after-heal");
  Quiesce({&n1, &n2});
  ASSERT_EQ(log.DeliveryCount("after-heal"), 1u);
  EXPECT_EQ(log.Deliveries("after-heal")[0].first, 2u);
  EXPECT_EQ(violations.count(), 0);

  n2.node->Shutdown();
  n1.node->Shutdown();
}

TEST(ClusterStatusTest, StatusJsonReportsMembersAndRegions) {
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2}, &hub, &log);
  TestNode n2(2, {1, 2}, &hub, &log);
  TickAll({&n1, &n2}, kT0);

  const std::string json = n1.node->StatusJson();
  EXPECT_NE(json.find("\"self\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"up\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"vessel\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_shards\":64"), std::string::npos) << json;

  n2.node->Shutdown();
  n1.node->Shutdown();
}

TEST(ClusterUntrustedFrameTest, UnassignedFrameTypesFromAKnownPeerAreDropped) {
  // FrameDecoder accepts any type byte, so a known peer can still send
  // types the protocol never assigned (0, the retired 7/8, 255). The node
  // must drop them without touching membership or the ring, and keep
  // answering heartbeats.
  chk::ScopedViolationRecorder violations;
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2}, &hub, &log);
  std::mutex acks_mu;
  std::vector<uint64_t> acks;
  InProcessTransport peer(&hub);
  ASSERT_TRUE(peer.Start(2, [&](const Frame& frame) {
                    if (frame.type != FrameType::kHeartbeatAck) return;
                    std::lock_guard<std::mutex> lock(acks_mu);
                    acks.push_back(frame.seq);
                  })
                  .ok());
  auto heartbeat = [&](TimeMicros now) {
    Frame frame;
    frame.type = FrameType::kHeartbeat;
    frame.src = 2;
    frame.seq = static_cast<uint64_t>(now);
    ASSERT_TRUE(peer.Send(1, frame));
  };

  heartbeat(kT0);
  n1.node->Tick(kT0);
  ASSERT_EQ(n1.node->membership().UpNodes(), (std::vector<NodeId>{1, 2}));
  const uint64_t epoch = n1.node->membership().epoch();
  std::vector<NodeId> owners;
  for (int shard = 0; shard < 64; ++shard) {
    owners.push_back(n1.region->OwnerOfShard(shard));
  }
  ASSERT_NE(std::count(owners.begin(), owners.end(), NodeId{2}), 0);

  WireWriter region_like;  // shaped like a routed envelope's header
  region_like.PutString16("vessel");
  region_like.PutU32(3);
  region_like.PutU64(epoch);
  const std::vector<std::string> payloads = {
      "", std::string(1, '\xff'), region_like.Take(),
      std::string(4096, '\x07')};
  for (const uint8_t type : {uint8_t{0}, uint8_t{7}, uint8_t{8},
                             uint8_t{255}}) {
    for (const std::string& payload : payloads) {
      Frame frame;
      frame.type = static_cast<FrameType>(type);
      frame.src = 2;
      frame.seq = 0xdeadbeefull;
      frame.payload = payload;
      // Through the codec first: the decoder hands the type byte through.
      FrameDecoder decoder;
      const std::string wire = EncodeFrame(frame);
      decoder.Feed(wire.data(), wire.size());
      Frame decoded;
      ASSERT_TRUE(decoder.Next(&decoded));
      ASSERT_EQ(static_cast<uint8_t>(decoded.type), type);
      EXPECT_TRUE(peer.Send(1, decoded));
    }
  }
  n1.node->system().AwaitQuiescence();

  EXPECT_EQ(n1.node->membership().epoch(), epoch);
  EXPECT_EQ(n1.node->membership().UpNodes(), (std::vector<NodeId>{1, 2}));
  for (int shard = 0; shard < 64; ++shard) {
    EXPECT_EQ(n1.region->OwnerOfShard(shard), owners[shard]) << shard;
  }
  EXPECT_EQ(log.TotalDeliveries(), 0u);

  heartbeat(kT0 + kBeat);
  {
    std::lock_guard<std::mutex> lock(acks_mu);
    ASSERT_FALSE(acks.empty());
    EXPECT_EQ(acks.back(), static_cast<uint64_t>(kT0 + kBeat));
  }
  EXPECT_EQ(n1.node->membership().epoch(), epoch);
  EXPECT_EQ(violations.count(), 0);

  peer.Shutdown();
  n1.node->Shutdown();
}

// The ISSUE acceptance demo: two in-process nodes, 10K entities spawned on
// demand through the ShardRegion front door, envelopes routed across the
// node boundary, zero duplicates (checked builds assert it; the log proves
// exactly-once here in any build).
TEST(ClusterAcceptanceTest, TenThousandEntitiesAcrossTwoNodes) {
  chk::ScopedViolationRecorder violations;
  InProcessHub hub;
  DeliveryLog log;
  TestNode n1(1, {1, 2}, &hub, &log);
  TestNode n2(2, {1, 2}, &hub, &log);
  TickAll({&n1, &n2}, kT0);
  TickAll({&n1, &n2}, kT0 + kBeat);

  constexpr int kEntities = 10'000;
  for (int i = 0; i < kEntities; ++i) {
    ASSERT_TRUE(n1.region->Tell("v" + std::to_string(i),
                                "p" + std::to_string(i)));
  }
  Quiesce({&n1, &n2});

  EXPECT_EQ(log.TotalDeliveries(), static_cast<size_t>(kEntities));
  for (int i = 0; i < kEntities; i += 997) {  // spot-check exactly-once
    EXPECT_EQ(log.DeliveryCount("p" + std::to_string(i)), 1u) << i;
  }
  // Every entity actor lives on exactly one node, split per the ring.
  EXPECT_EQ(n1.region->LocalEntityCount() + n2.region->LocalEntityCount(),
            static_cast<size_t>(kEntities));
  EXPECT_GT(n1.region->LocalEntityCount(), 0u);
  EXPECT_GT(n2.region->LocalEntityCount(), 0u);
  EXPECT_EQ(violations.count(), 0);

  n2.node->Shutdown();
  n1.node->Shutdown();
}

// ---------------------------------------------------------------- tcp

TEST(TcpTransportTest, LoopbackFrameExchange) {
  TcpTransportOptions options;
  auto t1 = std::make_shared<TcpTransport>(options);
  auto t2 = std::make_shared<TcpTransport>(options);
  ASSERT_TRUE(t1->Listen().ok());
  ASSERT_TRUE(t2->Listen().ok());

  t1->SetPeers({TcpPeer{2, "127.0.0.1", t2->port()}});
  t2->SetPeers({TcpPeer{1, "127.0.0.1", t1->port()}});

  std::mutex mu;
  std::vector<Frame> at1, at2;
  ASSERT_TRUE(t1->Start(1, [&](const Frame& f) {
                  std::lock_guard<std::mutex> lock(mu);
                  at1.push_back(f);
                }).ok());
  ASSERT_TRUE(t2->Start(2, [&](const Frame& f) {
                  std::lock_guard<std::mutex> lock(mu);
                  at2.push_back(f);
                }).ok());

  Frame ping;
  ping.type = FrameType::kHeartbeat;
  ping.src = 1;
  ping.seq = 7;
  ping.payload = "ping";
  EXPECT_TRUE(t1->Send(2, ping));
  Frame pong;
  pong.type = FrameType::kEnvelope;
  pong.src = 2;
  pong.seq = 8;
  pong.payload = std::string(100'000, 'x');  // forces multi-read frames
  EXPECT_TRUE(t2->Send(1, pong));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!at1.empty() && !at2.empty()) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(at2.size(), 1u);
    EXPECT_EQ(at2[0].seq, 7u);
    EXPECT_EQ(at2[0].payload, "ping");
    ASSERT_EQ(at1.size(), 1u);
    EXPECT_EQ(at1[0].src, 2u);
    EXPECT_EQ(at1[0].payload.size(), 100'000u);
  }

  // Unknown peers and shut-down transports refuse sends.
  EXPECT_FALSE(t1->Send(9, ping));
  t1->Shutdown();
  EXPECT_FALSE(t1->Send(2, ping));
  t2->Shutdown();
}

TEST(TcpTransportTest, TwoNodeClusterOverTcp) {
  // The same protocol the in-process tests exercise, over real sockets
  // with the auto ticker: two nodes converge and route a remote envelope.
  auto t1 = std::make_shared<TcpTransport>();
  auto t2 = std::make_shared<TcpTransport>();
  ASSERT_TRUE(t1->Listen().ok());
  ASSERT_TRUE(t2->Listen().ok());
  t1->SetPeers({TcpPeer{2, "127.0.0.1", t2->port()}});
  t2->SetPeers({TcpPeer{1, "127.0.0.1", t1->port()}});

  DeliveryLog log;
  auto make_node = [&log](NodeId self, std::shared_ptr<Transport> transport,
                          obs::MetricsRegistry* registry) {
    ClusterNodeConfig config;
    config.self = self;
    config.nodes = {1, 2};
    config.auto_tick = true;
    config.membership.heartbeat_interval = 20'000;  // 20 ms: fast converge
    config.metrics = registry;
    config.actor.metrics = registry;
    auto node = std::make_unique<ClusterNode>(config, std::move(transport));
    EXPECT_TRUE(node->Start().ok());
    ShardRegionOptions options;
    options.name = "vessel";
    options.factory = [self, &log](const std::string& entity) {
      return std::make_unique<RecorderActor>(self, entity, &log);
    };
    EXPECT_TRUE(node->CreateRegion(std::move(options)).ok());
    return node;
  };
  obs::MetricsRegistry r1, r2;
  auto n1 = make_node(1, t1, &r1);
  auto n2 = make_node(2, t2, &r2);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (n1->membership().UpNodes().size() != 2 ||
         n2->membership().UpNodes().size() != 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "membership never converged";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  ShardRegion* region = n1->GetRegion("vessel");
  ASSERT_NE(region, nullptr);
  std::string entity;
  for (int i = 0; i < 10'000 && entity.empty(); ++i) {
    const std::string candidate = "v" + std::to_string(i);
    if (region->OwnerOfShard(region->ShardForEntity(candidate)) == 2) {
      entity = candidate;
    }
  }
  ASSERT_FALSE(entity.empty());
  EXPECT_TRUE(region->Tell(entity, "over-tcp"));
  while (log.DeliveryCount("over-tcp") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "envelope never delivered";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(log.Deliveries("over-tcp")[0].first, 2u);

  n1->Shutdown();
  n2->Shutdown();
}

TEST(TcpTransportTest, SendTimeoutDropsAreCounted) {
  // Frames that sit in the outbound queue past send_timeout are dropped by
  // the sender loop and must be visible in the per-reason drop counter —
  // silent loss here is exactly what the chaos soak hunts for.
  obs::MetricsRegistry registry;
  TcpTransportOptions options;
  options.metrics = &registry;
  options.send_timeout = 1'000;          // 1 ms: queued frames age out fast
  options.reconnect_initial = 5'000;     // 5 ms dial backoff > send_timeout
  options.reconnect_max = 5'000;
  auto transport = std::make_shared<TcpTransport>(options);
  ASSERT_TRUE(transport->Listen().ok());
  // Nothing listens on port 1, so every dial fails fast and frames rot in
  // the queue while the sender parks in its reconnect backoff.
  transport->SetPeers({TcpPeer{2, "127.0.0.1", 1}});
  ASSERT_TRUE(transport->Start(1, [](const Frame&) {}).ok());

  Frame frame;
  frame.type = FrameType::kHeartbeat;
  frame.src = 1;
  for (int i = 0; i < 3; ++i) {
    frame.seq = static_cast<uint64_t>(i);
    EXPECT_TRUE(transport->Send(2, frame));
  }

  obs::Counter* timeout_drops = registry.GetCounter(
      "marlin_cluster_tcp_send_drops_total", "Outbound frames dropped by reason",
      {{"reason", "timeout"}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Of the three frames, at most one can be consumed fresh by the first
  // dial attempt; the rest outlive send_timeout during the backoff park.
  while (timeout_drops->Value() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timeout drops never surfaced in metrics";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  transport->Shutdown();
}

TEST(TcpTransportTest, ShutdownAccountsQueuedFramesAsDrops) {
  // Send accepted the frames; Shutdown kills the sender before they hit the
  // wire. That loss must be accounted under reason="shutdown" so operators
  // can tell a drain-less shutdown from a healthy one.
  obs::MetricsRegistry registry;
  TcpTransportOptions options;
  options.metrics = &registry;
  options.send_timeout = 60'000'000;        // effectively no timeout
  options.reconnect_initial = 60'000'000;   // park ~forever after 1st dial
  options.reconnect_max = 60'000'000;
  auto transport = std::make_shared<TcpTransport>(options);
  ASSERT_TRUE(transport->Listen().ok());
  transport->SetPeers({TcpPeer{2, "127.0.0.1", 1}});
  ASSERT_TRUE(transport->Start(1, [](const Frame&) {}).ok());

  Frame frame;
  frame.type = FrameType::kEnvelope;
  frame.src = 1;
  frame.payload = "never-sent";
  frame.seq = 0;
  EXPECT_TRUE(transport->Send(2, frame));

  // Wait for the sender to consume the first frame (failed dial → io drop)
  // and park in its hour-long backoff; everything sent now stays queued.
  obs::Counter* io_drops = registry.GetCounter(
      "marlin_cluster_tcp_send_drops_total", "Outbound frames dropped by reason",
      {{"reason", "io"}});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (io_drops->Value() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "first dial never failed";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 1; i <= 4; ++i) {
    frame.seq = static_cast<uint64_t>(i);
    EXPECT_TRUE(transport->Send(2, frame));
  }
  transport->Shutdown();

  obs::Counter* shutdown_drops = registry.GetCounter(
      "marlin_cluster_tcp_send_drops_total", "Outbound frames dropped by reason",
      {{"reason", "shutdown"}});
  EXPECT_EQ(shutdown_drops->Value(), 4u);
  // Nothing was ever delivered, so every accepted frame is accounted as
  // exactly one drop across the reason labels.
  obs::Counter* timeout_drops = registry.GetCounter(
      "marlin_cluster_tcp_send_drops_total", "Outbound frames dropped by reason",
      {{"reason", "timeout"}});
  EXPECT_EQ(io_drops->Value() + shutdown_drops->Value() +
                timeout_drops->Value(),
            5u);
}

}  // namespace
}  // namespace cluster
}  // namespace marlin
