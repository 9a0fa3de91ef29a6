// Unit tests for src/fault: the seed-derived plan, the per-point decision
// oracle (independence, determinism, trace fingerprinting), the process
// injector behind MARLIN_FAULT_POINT, the ChaosHub's frame weather
// (drop/delay/duplicate/partition), and the ChaosClock. Labelled `chaos`
// alongside the soak test so `ctest -L chaos` covers the whole layer.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/frame.h"
#include "cluster/transport.h"
#include "fault/fault.h"
#include "util/clock.h"

namespace marlin {
namespace fault {
namespace {

// ------------------------------------------------------------------ plan

TEST(FaultPlanTest, FromSeedIsDeterministic) {
  const FaultPlan a = FaultPlan::FromSeed(42);
  const FaultPlan b = FaultPlan::FromSeed(42);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.delay_rate, b.delay_rate);
  EXPECT_EQ(a.max_delay_ticks, b.max_delay_ticks);
  EXPECT_EQ(a.duplicate_rate, b.duplicate_rate);
  EXPECT_EQ(a.partition_rate, b.partition_rate);
  EXPECT_EQ(a.max_partition_ticks, b.max_partition_ticks);
  EXPECT_EQ(a.crash_rate, b.crash_rate);
  EXPECT_EQ(a.max_crash_ticks, b.max_crash_ticks);
  EXPECT_EQ(a.max_clock_skew, b.max_clock_skew);
}

TEST(FaultPlanTest, FromSeedStaysWithinBounds) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const FaultPlan plan = FaultPlan::FromSeed(seed);
    EXPECT_GE(plan.drop_rate, 0.0);
    EXPECT_LE(plan.drop_rate, 0.15);
    EXPECT_GE(plan.delay_rate, 0.0);
    EXPECT_LE(plan.delay_rate, 0.25);
    EXPECT_GE(plan.max_delay_ticks, 1);
    EXPECT_GE(plan.duplicate_rate, 0.0);
    EXPECT_LE(plan.duplicate_rate, 0.15);
    EXPECT_GE(plan.partition_rate, 0.0);
    EXPECT_LE(plan.partition_rate, 0.06);
    EXPECT_GE(plan.max_partition_ticks, 1);
    EXPECT_GE(plan.crash_rate, 0.0);
    EXPECT_LE(plan.crash_rate, 0.02);
    EXPECT_GE(plan.max_crash_ticks, 1);
    EXPECT_GE(plan.max_clock_skew, 0);
    EXPECT_FALSE(plan.Describe().empty());
  }
}

// -------------------------------------------------------------- injector

TEST(FaultInjectorTest, SameSeedSameDecisionsSameTrace) {
  FaultInjector a(FaultPlan::FromSeed(7));
  FaultInjector b(FaultPlan::FromSeed(7));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Chance("p", 0.3), b.Chance("p", 0.3));
    EXPECT_EQ(a.Pick("q", 10), b.Pick("q", 10));
    const FaultDecision da = a.DecideFrame("r", true);
    const FaultDecision db = b.DecideFrame("r", true);
    EXPECT_EQ(da.action, db.action);
    EXPECT_EQ(da.delay_ticks, db.delay_ticks);
  }
  EXPECT_EQ(a.TraceHash(), b.TraceHash());
  EXPECT_EQ(a.DecisionCount(), b.DecisionCount());
}

TEST(FaultInjectorTest, PointStreamsAreIndependent) {
  // Decisions at point "x" must not change when another point is hit in
  // between — adding an injection point elsewhere in the codebase must not
  // reshuffle the faults here.
  FaultInjector plain(FaultPlan::FromSeed(11));
  std::vector<bool> baseline;
  for (int i = 0; i < 100; ++i) baseline.push_back(plain.Chance("x", 0.5));

  FaultInjector interleaved(FaultPlan::FromSeed(11));
  for (int i = 0; i < 100; ++i) {
    (void)interleaved.Chance("y", 0.5);  // extra traffic at another point
    EXPECT_EQ(interleaved.Chance("x", 0.5), baseline[static_cast<size_t>(i)]);
    (void)interleaved.Pick("z", 5);
  }
}

TEST(FaultInjectorTest, DecideFrameHonorsPlanRates) {
  FaultPlan always_drop;
  always_drop.drop_rate = 1.0;
  FaultInjector dropper(always_drop);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(dropper.DecideFrame("p", true).action, FaultAction::kDrop);
  }

  FaultPlan always_delay;
  always_delay.drop_rate = 0.0;
  always_delay.delay_rate = 1.0;
  always_delay.max_delay_ticks = 3;
  FaultInjector delayer(always_delay);
  for (int i = 0; i < 20; ++i) {
    const FaultDecision d = delayer.DecideFrame("p", true);
    EXPECT_EQ(d.action, FaultAction::kDelay);
    EXPECT_GE(d.delay_ticks, 1);
    EXPECT_LE(d.delay_ticks, 3);
  }

  FaultPlan always_duplicate;
  always_duplicate.drop_rate = 0.0;
  always_duplicate.delay_rate = 0.0;
  always_duplicate.duplicate_rate = 1.0;
  FaultInjector duplicator(always_duplicate);
  EXPECT_EQ(duplicator.DecideFrame("p", true).action, FaultAction::kDuplicate);
  // Envelope frames never duplicate: the band collapses to "no fault".
  EXPECT_EQ(duplicator.DecideFrame("p", false).action, FaultAction::kNone);

  FaultPlan calm;
  calm.drop_rate = 0.0;
  calm.delay_rate = 0.0;
  calm.duplicate_rate = 0.0;
  FaultInjector quiet(calm);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(quiet.DecideFrame("p", true).action, FaultAction::kNone);
  }
}

TEST(FaultInjectorTest, ClockSkewIsPureBoundedAndPerNode) {
  FaultPlan plan = FaultPlan::FromSeed(21);
  plan.max_clock_skew = 100'000;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (uint32_t node = 1; node <= 4; ++node) {
    const TimeMicros skew = a.ClockSkewFor(node);
    EXPECT_LE(skew, plan.max_clock_skew);
    EXPECT_GE(skew, -plan.max_clock_skew);
    // Pure function of (seed, node): stable across calls and instances,
    // and not recorded in the decision trace.
    EXPECT_EQ(skew, a.ClockSkewFor(node));
    EXPECT_EQ(skew, b.ClockSkewFor(node));
  }
  EXPECT_EQ(a.DecisionCount(), 0u);
}

TEST(FaultInjectorTest, CountsHitsAndFirings) {
  FaultPlan plan;
  plan.drop_rate = 1.0;
  FaultInjector injector(plan);
  EXPECT_EQ(injector.HitCount("p"), 0u);
  for (int i = 0; i < 5; ++i) (void)injector.DecideFrame("p", true);
  (void)injector.Chance("q", 0.0);  // hit that can never fire
  EXPECT_EQ(injector.HitCount("p"), 5u);
  EXPECT_EQ(injector.FiredCount("p"), 5u);
  EXPECT_EQ(injector.HitCount("q"), 1u);
  EXPECT_EQ(injector.FiredCount("q"), 0u);
}

TEST(ProcessInjectorTest, ScopedInstallRoutesPointAction) {
  EXPECT_EQ(ProcessInjector(), nullptr);
  EXPECT_EQ(PointAction("p"), FaultAction::kNone);  // no injector: no-op
  FaultPlan plan;
  plan.drop_rate = 1.0;
  FaultInjector injector(plan);
  {
    ScopedProcessInjector scoped(&injector);
    EXPECT_EQ(ProcessInjector(), &injector);
    EXPECT_EQ(PointAction("p"), FaultAction::kDrop);
  }
  EXPECT_EQ(ProcessInjector(), nullptr);
  ScopedProcessInjector scoped(&injector);
#if defined(MARLIN_FAULT) && MARLIN_FAULT
  // Armed build: the macro consults the installed process injector.
  EXPECT_EQ(MARLIN_FAULT_POINT("p"), FaultAction::kDrop);
#else
  // Default build: the macro is a compile-time constant kNone even while
  // an injector is installed.
  EXPECT_EQ(MARLIN_FAULT_POINT("p"), FaultAction::kNone);
#endif
}

// ------------------------------------------------------------------- hub

struct HubEnd {
  std::unique_ptr<cluster::Transport> transport;
  std::vector<cluster::Frame> received;
};

HubEnd MakeEnd(ChaosHub* hub, cluster::NodeId id) {
  HubEnd end;
  end.transport = hub->CreateTransport();
  auto* sink = &end.received;
  EXPECT_TRUE(end.transport
                  ->Start(id, [sink](const cluster::Frame& f) {
                    sink->push_back(f);
                  })
                  .ok());
  return end;
}

cluster::Frame Heartbeat(cluster::NodeId src, uint64_t seq) {
  cluster::Frame frame;
  frame.type = cluster::FrameType::kHeartbeat;
  frame.src = src;
  frame.seq = seq;
  return frame;
}

TEST(ChaosHubTest, CleanWeatherDeliversEverything) {
  FaultPlan calm;
  calm.drop_rate = calm.delay_rate = calm.duplicate_rate = 0.0;
  calm.partition_rate = 0.0;
  FaultInjector injector(calm);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  HubEnd n2 = MakeEnd(&hub, 2);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, i)));
  }
  ASSERT_EQ(n2.received.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(n2.received[i].seq, i);
  EXPECT_FALSE(n1.transport->Send(9, Heartbeat(1, 0)));  // unknown peer
}

TEST(ChaosHubTest, DropsAcceptFramesThenLoseThem) {
  FaultPlan storm;
  storm.drop_rate = 1.0;
  storm.partition_rate = 0.0;
  FaultInjector injector(storm);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  HubEnd n2 = MakeEnd(&hub, 2);
  // A TCP send into a doomed socket succeeds locally; so does this.
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 1)));
  EXPECT_TRUE(n2.received.empty());
  EXPECT_EQ(hub.dropped(), 1u);
}

TEST(ChaosHubTest, DelayedFramesMatureInTickOrderAndReorder) {
  FaultPlan weather;
  weather.drop_rate = 0.0;
  weather.delay_rate = 1.0;
  weather.max_delay_ticks = 1;  // every frame parked exactly one tick
  weather.duplicate_rate = 0.0;
  weather.partition_rate = 0.0;
  FaultInjector injector(weather);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  HubEnd n2 = MakeEnd(&hub, 2);
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 1)));
  EXPECT_TRUE(n2.received.empty());
  EXPECT_EQ(hub.delayed(), 1u);
  hub.Tick();
  ASSERT_EQ(n2.received.size(), 1u);
  EXPECT_EQ(n2.received[0].seq, 1u);

  // Reordering: disable chaos, send a direct frame while another is
  // parked — the direct one overtakes it.
  n2.received.clear();
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 2)));  // parked
  hub.SetChaosEnabled(false);
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 3)));  // direct
  hub.Tick();  // releases the parked frame
  ASSERT_EQ(n2.received.size(), 2u);
  EXPECT_EQ(n2.received[0].seq, 3u);
  EXPECT_EQ(n2.received[1].seq, 2u);
}

TEST(ChaosHubTest, DuplicatesControlFramesButNeverEnvelopes) {
  FaultPlan weather;
  weather.drop_rate = 0.0;
  weather.delay_rate = 0.0;
  weather.duplicate_rate = 1.0;
  weather.partition_rate = 0.0;
  FaultInjector injector(weather);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  HubEnd n2 = MakeEnd(&hub, 2);
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 5)));
  EXPECT_EQ(n2.received.size(), 2u);  // control frame: delivered twice
  EXPECT_EQ(hub.duplicated(), 1u);

  n2.received.clear();
  cluster::Frame envelope;
  envelope.type = cluster::FrameType::kEnvelope;
  envelope.src = 1;
  envelope.seq = 9;
  EXPECT_TRUE(n1.transport->Send(2, envelope));
  EXPECT_EQ(n2.received.size(), 1u);  // exactly-once envelope preserved
}

TEST(ChaosHubTest, AdminLinkCutsNeverAutoHeal) {
  FaultPlan calm;
  calm.drop_rate = calm.delay_rate = calm.duplicate_rate = 0.0;
  calm.partition_rate = 0.0;
  FaultInjector injector(calm);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  HubEnd n2 = MakeEnd(&hub, 2);
  hub.SetLinkUp(1, 2, false);
  EXPECT_FALSE(hub.LinkUp(1, 2));
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 1)));  // eaten by the cut
  for (int i = 0; i < 10; ++i) hub.Tick();  // chaos healing must not apply
  EXPECT_TRUE(n2.received.empty());
  hub.SetLinkUp(1, 2, true);
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 2)));
  ASSERT_EQ(n2.received.size(), 1u);
  EXPECT_EQ(n2.received[0].seq, 2u);
}

TEST(ChaosHubTest, InjectedPartitionsHealOnScheduleOrViaHealAll) {
  FaultPlan stormy;
  stormy.drop_rate = stormy.delay_rate = stormy.duplicate_rate = 0.0;
  stormy.partition_rate = 1.0;  // every live link cut on every Tick
  stormy.max_partition_ticks = 4;
  FaultInjector injector(stormy);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  HubEnd n2 = MakeEnd(&hub, 2);
  hub.Tick();
  EXPECT_GE(hub.partitions(), 1u);
  EXPECT_FALSE(hub.LinkUp(1, 2));
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 1)));
  EXPECT_TRUE(n2.received.empty());
  hub.SetChaosEnabled(false);  // stop cutting new partitions
  hub.HealAll();
  EXPECT_TRUE(hub.LinkUp(1, 2));
  EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 2)));
  ASSERT_EQ(n2.received.size(), 1u);
}

TEST(ChaosHubTest, UnregisteredPeerDrainsParkedFramesHarmlessly) {
  FaultPlan weather;
  weather.drop_rate = 0.0;
  weather.delay_rate = 1.0;
  weather.max_delay_ticks = 1;
  weather.duplicate_rate = 0.0;
  weather.partition_rate = 0.0;
  FaultInjector injector(weather);
  ChaosHub hub(&injector);
  HubEnd n1 = MakeEnd(&hub, 1);
  {
    HubEnd n2 = MakeEnd(&hub, 2);
    EXPECT_TRUE(n1.transport->Send(2, Heartbeat(1, 1)));  // parked
    n2.transport->Shutdown();  // crash while the frame is in flight
  }
  hub.Tick();  // parked frame matures toward a dead node: silently dropped
  EXPECT_EQ(hub.delayed(), 1u);
}

// ------------------------------------------------------------------ clock

TEST(ChaosClockTest, AppliesFixedSkew) {
  VirtualClock base(1'000'000);
  ChaosClock ahead(&base, 250);
  ChaosClock behind(&base, -250);
  EXPECT_EQ(ahead.Now(), 1'000'250);
  EXPECT_EQ(behind.Now(), 999'750);
  base.AdvanceTo(base.Now() + 1'000);
  EXPECT_EQ(ahead.Now(), 1'001'250);
  EXPECT_EQ(behind.Now(), 1'000'750);
}

}  // namespace
}  // namespace fault
}  // namespace marlin
