#ifndef MARLIN_ACTOR_ACTOR_SYSTEM_H_
#define MARLIN_ACTOR_ACTOR_SYSTEM_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "actor/actor.h"
#include "actor/dispatcher.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/status.h"

namespace marlin {

/// Runtime state of one actor: its instance, FIFO mailbox, and scheduling
/// flag. Internal to the runtime; exposed only for ActorRef's weak handle.
struct ActorCell {
  ActorId id = kNoActor;
  /// Process-globally unique key for the thread-ownership checker. Actor
  /// ids restart at 1 in every ActorSystem, so a multi-system process (a
  /// cluster node pair in one test) would alias ids across systems.
  uint64_t chk_key = 0;
  std::string name;
  std::unique_ptr<Actor> actor;
  std::mutex mu;
  std::deque<Envelope> mailbox;
  bool scheduled = false;
  bool stopped = false;
  int restarts = 0;
};

/// Configuration of an ActorSystem.
struct ActorSystemConfig {
  /// Dispatcher threads. <= 0 selects hardware_concurrency(). Ignored when
  /// `dispatcher` is set.
  int num_threads = 0;
  /// Execution substrate. Null selects a ThreadPoolDispatcher with
  /// `num_threads` workers; tests inject chk::DeterministicScheduler here
  /// to explore and replay message interleavings.
  std::shared_ptr<Dispatcher> dispatcher = nullptr;
  /// Messages processed per mailbox drain before yielding the thread
  /// (Akka's "throughput" fairness knob).
  int throughput = 64;
  /// Restarts allowed per actor before it is stopped for good.
  int max_restarts = 5;
  /// Registry the runtime reports its metrics into (null = process global).
  obs::MetricsRegistry* metrics = nullptr;
};

/// An asynchronous message-passing runtime in the style of Akka [8]: actors
/// with isolated state and per-actor FIFO mailboxes are multiplexed onto a
/// fixed dispatcher thread pool; communication is non-blocking `Tell` or
/// future-returning `Ask`. Dynamic spawn (including get-or-spawn keyed by
/// name, used for per-vessel actors), supervision with restart, delayed
/// delivery timers, and quiescence/shutdown control complete the subset of
/// the actor model the paper's architecture needs.
class ActorSystem {
 public:
  explicit ActorSystem(const ActorSystemConfig& config = {});
  ~ActorSystem();

  ActorSystem(const ActorSystem&) = delete;
  ActorSystem& operator=(const ActorSystem&) = delete;

  /// Creates an actor with a unique `name`. Fails with AlreadyExists if the
  /// name is taken, or FailedPrecondition after Shutdown.
  StatusOr<ActorRef> Spawn(std::string name, std::unique_ptr<Actor> actor);

  /// Convenience typed spawn.
  template <typename T, typename... Args>
  StatusOr<ActorRef> SpawnActor(std::string name, Args&&... args) {
    return Spawn(std::move(name),
                 std::make_unique<T>(std::forward<Args>(args)...));
  }

  /// Returns the actor named `name`, spawning it via `factory` on first use.
  /// This is the partitioning primitive: vessel/cell/collision actors are
  /// created on the first message routed to their key.
  StatusOr<ActorRef> GetOrSpawn(
      const std::string& name,
      const std::function<std::unique_ptr<Actor>()>& factory);

  /// Looks up a live actor by name.
  StatusOr<ActorRef> Find(const std::string& name) const;

  /// Asynchronously delivers `message` to `target`. Returns false when the
  /// target is stopped or the system is shutting down (message dropped).
  bool Tell(const ActorRef& target, std::any message,
            ActorId sender = kNoActor);

  /// Request/response: delivers `message` with a reply slot and returns the
  /// future reply. The receiving actor must call ctx.Reply().
  std::future<std::any> Ask(const ActorRef& target, std::any message,
                            ActorId sender = kNoActor);

  /// Delivers `message` to `target` after `delay` microseconds.
  void ScheduleTell(TimeMicros delay, const ActorRef& target,
                    std::any message, ActorId sender = kNoActor);

  /// Stops one actor: pending mailbox messages are dropped, OnStop runs.
  void Stop(const ActorRef& target);

  /// Blocks until every mailbox is empty and no message is being processed.
  /// (Messages sent by timers that have not fired yet are not waited for.)
  void AwaitQuiescence();

  /// True when no message is queued or being processed right now (the
  /// non-blocking check behind AwaitQuiescence).
  bool Idle() const { return pending_.load(std::memory_order_acquire) == 0; }

  /// Drains and joins everything. Idempotent; called by the destructor.
  void Shutdown();

  /// Number of live actors. Lock-free: vessel actors read it on every
  /// message for the Figure-6 latency series.
  size_t ActorCount() const {
    return actor_count_.load(std::memory_order_relaxed);
  }

  /// Messages delivered (processed) since construction.
  int64_t ProcessedCount() const {
    return processed_.load(std::memory_order_relaxed);
  }

  /// The registry this system reports into.
  obs::MetricsRegistry* metrics_registry() const { return metrics_.registry; }

 private:
  /// Cached handles into the metrics registry (resolved once at
  /// construction; updates are lock-free afterwards).
  struct Metrics {
    obs::MetricsRegistry* registry = nullptr;
    obs::Counter* messages_processed = nullptr;
    obs::Counter* messages_dropped = nullptr;
    obs::Counter* actors_spawned = nullptr;
    obs::Counter* actors_stopped = nullptr;
    obs::Counter* restarts = nullptr;
    obs::Gauge* live_actors = nullptr;
    obs::Gauge* mailbox_highwater = nullptr;
    obs::Gauge* dispatcher_queue_depth = nullptr;
  };

  struct TimerEntry {
    TimeMicros fire_at_wall;  // wall-clock micros
    ActorRef target;
    std::any message;
    ActorId sender;
    bool operator<(const TimerEntry& other) const {
      return fire_at_wall > other.fire_at_wall;  // min-heap
    }
  };

  bool Enqueue(const std::shared_ptr<ActorCell>& cell, Envelope envelope);
  void DecrementPending(int64_t n);
  void DrainMailbox(std::shared_ptr<ActorCell> cell);
  void HandleFailure(const std::shared_ptr<ActorCell>& cell,
                     const Status& failure);
  void StopCell(const std::shared_ptr<ActorCell>& cell);
  void TimerLoop();

  const ActorSystemConfig config_;
  Metrics metrics_;
  std::shared_ptr<Dispatcher> dispatcher_;

  mutable std::mutex registry_mu_;
  std::unordered_map<std::string, std::shared_ptr<ActorCell>> by_name_;
  std::unordered_map<ActorId, std::shared_ptr<ActorCell>> by_id_;
  /// by_id_.size(), stored under registry_mu_ wherever by_id_ changes.
  std::atomic<size_t> actor_count_{0};
  /// Names a GetOrSpawn is currently constructing (claim registered under
  /// registry_mu_ before the factory runs, so concurrent callers for the
  /// same name wait on spawn_cv_ instead of double-constructing).
  std::unordered_set<std::string> spawning_;
  std::condition_variable spawn_cv_;
  std::atomic<ActorId> next_id_{1};
  bool shutting_down_ = false;

  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> processed_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEntry> timers_;
  bool timer_stop_ = false;
  std::thread timer_thread_;
};

}  // namespace marlin

#endif  // MARLIN_ACTOR_ACTOR_SYSTEM_H_
