#ifndef MARLIN_SIM_DES_SCHEDULER_H_
#define MARLIN_SIM_DES_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chk/fingerprint.h"
#include "sim/des/event_queue.h"
#include "util/clock.h"

namespace marlin {
namespace des {

class EventScheduler;

/// A component that receives dispatched events. Handlers are registered
/// once (RegisterHandler) and re-post their own future events from inside
/// OnEvent via the scheduler they were registered with.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void OnEvent(EventScheduler* scheduler, const Event& event) = 0;
};

/// Adapts a callable to EventHandler, for components too small to warrant a
/// class of their own (bench drivers, test harness phases).
class FunctionHandler : public EventHandler {
 public:
  using Fn = std::function<void(EventScheduler*, const Event&)>;
  explicit FunctionHandler(Fn fn) : fn_(std::move(fn)) {}
  void OnEvent(EventScheduler* scheduler, const Event& event) override {
    fn_(scheduler, event);
  }

 private:
  Fn fn_;
};

struct EventSchedulerConfig {
  /// Mixed into the trace hash, so one seed fully determines a virtual-time
  /// run's fingerprint. The same value is handed to chk::DeterministicScheduler
  /// when a run also serialises actor interleavings (see tests/des_test.cc).
  uint64_t seed = 1;
  /// Initial virtual time.
  TimeMicros start_time = 0;
};

/// Deterministic discrete-event scheduler: the virtual-time core of
/// DESIGN.md §13. A single global priority queue keyed by virtual
/// TimeMicros with stable (time, post-order) tie-breaking; components post
/// future events and the run loop dispatches them in order, advancing
/// virtual time to each event's timestamp. Every dispatch is folded
/// into an FNV-1a trace fingerprint (chk/fingerprint.h), so
/// "same seed → same trace hash" is checkable across runs, thread counts,
/// and machines.
///
/// Single-threaded by contract: events dispatch on the caller's thread, one
/// at a time, exactly like chk::DeterministicScheduler's serialised drains.
/// Concurrency lives *behind* handlers (e.g. a handler ingests into the
/// actor pipeline and quiesces it), never inside the event loop itself.
class EventScheduler {
 public:
  explicit EventScheduler(const EventSchedulerConfig& config = {});

  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Registers a component and returns its handler id. `name` identifies
  /// the handler in the trace hash (names are hashed, so the fingerprint is
  /// stable against registration-order refactors as long as names and
  /// event sequences are unchanged). Handlers are borrowed, not owned, and
  /// must outlive the scheduler.
  uint32_t RegisterHandler(const std::string& name, EventHandler* handler);

  /// Schedules `handler` to fire at virtual time `at` (clamped to Now() —
  /// posting into the past fires "immediately" at the current virtual
  /// time, after already-pending events at that time).
  void PostAt(TimeMicros at, uint32_t handler, uint64_t arg = 0);

  /// Schedules `handler` to fire `delay` micros from the current virtual
  /// time.
  void PostIn(TimeMicros delay, uint32_t handler, uint64_t arg = 0);

  /// Dispatches the single earliest event. Returns false when the queue is
  /// empty.
  bool Step();

  /// Copies the next event to fire into `out` without dispatching it;
  /// returns false when the queue is empty. Handlers use this to overlap
  /// the next dispatch's state fetch with the current one (see
  /// EventFleet's prefetch).
  bool PeekNext(Event* out) {
    if (queue_.Empty()) return false;
    *out = queue_.Top();
    return true;
  }

  /// Dispatches every event with timestamp <= `until` (including events
  /// they post, transitively), then advances the clock to `until`.
  /// Returns the number of events dispatched.
  int64_t RunUntil(TimeMicros until);

  /// Dispatches until the queue is empty or `max_events` is reached
  /// (-1 = unbounded). Returns the number of events dispatched.
  int64_t RunAll(int64_t max_events = -1);

  /// Current virtual time.
  TimeMicros Now() const { return now_; }

  /// FNV-1a fingerprint of the dispatch history: (time, handler-name hash,
  /// arg) of every event dispatched so far, seeded with the run seed.
  uint64_t TraceHash() const { return trace_.Value(); }

  uint64_t seed() const { return seed_; }
  int64_t dispatched() const { return dispatched_; }
  size_t pending() const { return queue_.Size(); }

 private:
  void Dispatch(const Event& event);

  struct HandlerEntry {
    EventHandler* handler = nullptr;
    uint64_t name_hash = 0;
  };

  const uint64_t seed_;
  TimeMicros now_;
  EventQueue queue_;
  std::vector<HandlerEntry> handlers_;
  chk::Fingerprint trace_;
  uint64_t next_seq_ = 0;
  int64_t dispatched_ = 0;
};

}  // namespace des
}  // namespace marlin

#endif  // MARLIN_SIM_DES_SCHEDULER_H_
