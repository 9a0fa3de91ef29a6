#ifndef MARLIN_UTIL_CLOCK_H_
#define MARLIN_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace marlin {

/// Time is represented as microseconds since the Unix epoch. AIS timestamps,
/// the simulator, the pipeline, and the latency recorder all share this unit.
using TimeMicros = int64_t;

constexpr TimeMicros kMicrosPerSecond = 1'000'000;
constexpr TimeMicros kMicrosPerMinute = 60 * kMicrosPerSecond;

/// Abstract time source so the whole system can run either against the wall
/// clock or against simulated stream time (for replay/evaluation).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeMicros Now() const = 0;
};

/// Reads the system clock.
class WallClock : public Clock {
 public:
  TimeMicros Now() const override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  }
};

/// The manually advanced clock, for tests and the chaos harness that step
/// time themselves. Reads are lock-free; AdvanceTo never moves time
/// backwards even when racing advancers, so components observing it
/// mid-dispatch always see a monotonic timeline.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(TimeMicros start = 0) : now_(start) {}

  TimeMicros Now() const override {
    return now_.load(std::memory_order_acquire);
  }

  /// Advances to `t` if `t` is ahead of the current reading; a stale or
  /// concurrent advance to an earlier time is a no-op.
  void AdvanceTo(TimeMicros t) {
    TimeMicros current = now_.load(std::memory_order_relaxed);
    while (t > current &&
           !now_.compare_exchange_weak(current, t,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<TimeMicros> now_;
};

/// Monotonic nanosecond stopwatch on the host steady clock, for latency
/// and processing-cost measurements.
class Stopwatch {
 public:
  Stopwatch() : start_nanos_(SteadyNanos()) {}
  void Restart() { start_nanos_ = SteadyNanos(); }
  /// Elapsed time since construction/restart, in nanoseconds.
  int64_t ElapsedNanos() const { return SteadyNanos() - start_nanos_; }
  double ElapsedMillis() const { return ElapsedNanos() / 1e6; }

 private:
  static int64_t SteadyNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int64_t start_nanos_ = 0;
};

}  // namespace marlin

#endif  // MARLIN_UTIL_CLOCK_H_
