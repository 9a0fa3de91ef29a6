#ifndef MARLIN_PERFBENCH_TRACE_H_
#define MARLIN_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "actor/dispatcher.h"
#include "vrf/route_forecaster.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names. Feed-side spans run on the feeding thread inside a slice;
/// drain spans come from TimedDispatcher, forecast spans from
/// TimedForecaster.
enum SpanName : int32_t {
  kSlice,
  kIngest,
  kProduce,
  kPump,
  kAwait,
  kApi,
  kSnapshot,
  kDrainVessel,
  kDrainCell,
  kDrainColl,
  kDrainWriter,
  kDrainTraffic,
  kDrainSurveillance,
  kDrainOther,
  kForecast,
  kForecastBatch,
  kNumSpanNames,
};

const char* SpanNameString(int32_t name);

/// Maps a DispatchTask label (the actor's name) to its drain span.
SpanName DrainSpanFor(std::string_view label);

/// One recorded interval. `parent` is the id of the enclosing open span on
/// the same thread or, for a thread's outermost span, the slice being fed
/// when the span started (the slice whose input caused the work).
/// `aux` is span-specific: submit time for drains, batch size for forecast
/// spans, route index for API calls.
struct Span {
  int64_t start = 0;
  int64_t end = 0;
  int64_t parent = -1;
  int64_t aux = 0;
  int32_t name = 0;
  int32_t thread = 0;
};

/// In-memory span recorder. Each thread appends to its own buffer; buffers
/// are read only after every recording thread has been joined. Span ids
/// are (thread << 40 | index).
class Trace {
 public:
  static Trace& Get();

  /// Spans are recorded only while enabled; Begin then returns -1 and
  /// End(-1) does nothing.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  int64_t Begin(int32_t name, int64_t aux = 0);
  void End(int64_t id);

  /// The slice every outermost span on another thread is attributed to.
  void set_current_slice(int64_t id) {
    current_slice_.store(id, std::memory_order_relaxed);
  }

  struct ThreadSpans {
    int32_t thread = 0;
    int32_t tid = 0;  // kernel thread id, for /proc/self/task/<tid>
    std::vector<Span> spans;
    std::vector<int64_t> open;
  };
  /// All buffers; call only after the recording threads have stopped.
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const {
    return threads_;
  }

  /// Writes every span as fixed 40-byte little-endian records after a
  /// name table (see trace.cc). Returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  ThreadSpans* Local();

  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
  std::atomic<int64_t> current_slice_{-1};
  std::atomic<bool> enabled_{false};
};

/// Records one span for the lifetime of a scope.
class SpanScope {
 public:
  explicit SpanScope(int32_t name, int64_t aux = 0)
      : id_(Trace::Get().Begin(name, aux)) {}
  ~SpanScope() { Trace::Get().End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int64_t id_;
};

/// Dispatcher seam decorator: a ThreadPoolDispatcher with the same thread
/// count whose tasks record one drain span each (queue wait = start minus
/// the submit time kept in `aux`).
class TimedDispatcher final : public marlin::Dispatcher {
 public:
  explicit TimedDispatcher(int num_threads) : inner_(num_threads) {}

  bool Submit(marlin::DispatchTask task) override;
  void Shutdown() override { inner_.Shutdown(); }
  size_t QueueDepth() const override { return inner_.QueueDepth(); }

 private:
  marlin::ThreadPoolDispatcher inner_;
};

/// RouteForecaster seam decorator: one span per Forecast/ForecastBatch.
class TimedForecaster final : public marlin::RouteForecaster {
 public:
  explicit TimedForecaster(std::shared_ptr<const marlin::RouteForecaster> inner)
      : inner_(std::move(inner)) {}

  marlin::StatusOr<marlin::ForecastTrajectory> Forecast(
      const marlin::SvrfInput& input) const override;
  void ForecastBatch(
      const std::vector<marlin::SvrfInput>& inputs,
      std::vector<marlin::StatusOr<marlin::ForecastTrajectory>>* results)
      const override;
  std::string_view name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const marlin::RouteForecaster> inner_;
};

}  // namespace perfbench

#endif  // MARLIN_PERFBENCH_TRACE_H_
