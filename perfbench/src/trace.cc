#include "trace.h"

#include <cstdio>
#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

const char* SpanNameString(int32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "slice",         "ingest",
      "produce",       "pump",
      "await",         "api",
      "snapshot",      "drain.vessel",
      "drain.cell",    "drain.coll",
      "drain.writer",  "drain.traffic",
      "drain.surveillance", "drain.other",
      "vrf.forecast",  "vrf.forecast_batch",
  };
  return name >= 0 && name < kNumSpanNames ? kNames[name] : "?";
}

SpanName DrainSpanFor(std::string_view label) {
  // Actor names as spawned by MaritimePipeline and its actors.
  if (label.starts_with("vessel-")) return kDrainVessel;
  if (label.starts_with("cell-")) return kDrainCell;
  if (label.starts_with("coll-")) return kDrainColl;
  if (label.starts_with("writer-")) return kDrainWriter;
  if (label == "traffic") return kDrainTraffic;
  if (label == "surveillance") return kDrainSurveillance;
  return kDrainOther;
}

Trace& Trace::Get() {
  static Trace trace;
  return trace;
}

Trace::ThreadSpans* Trace::Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    auto spans = std::make_unique<ThreadSpans>();
    spans->spans.reserve(1 << 16);
    spans->tid = static_cast<int32_t>(syscall(SYS_gettid));
    std::lock_guard<std::mutex> lock(mu_);
    spans->thread = static_cast<int32_t>(threads_.size());
    local = spans.get();
    threads_.push_back(std::move(spans));
  }
  return local;
}

int64_t Trace::Begin(int32_t name, int64_t aux) {
  if (!enabled_.load(std::memory_order_relaxed)) return -1;
  ThreadSpans* t = Local();
  Span span;
  span.parent = name == kSlice ? -1
                : t->open.empty()
                    ? current_slice_.load(std::memory_order_relaxed)
                    : t->open.back();
  span.aux = aux;
  span.name = name;
  span.thread = t->thread;
  const int64_t id = (static_cast<int64_t>(t->thread) << 40) |
                     static_cast<int64_t>(t->spans.size());
  t->spans.push_back(span);
  t->open.push_back(id);
  t->spans.back().start = NowNs();  // after the bookkeeping it should not bill
  return id;
}

void Trace::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  ThreadSpans* t = Local();
  t->spans[static_cast<size_t>(id & ((int64_t{1} << 40) - 1))].end = now;
  t->open.pop_back();
}

// File layout: "MPBTRACE1\n", u32 name count, the names NUL-terminated,
// u64 span count, then per span int64 start, end, parent, aux and int32
// name, thread (native byte order, steady-clock nanoseconds).
bool Trace::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fputs("MPBTRACE1\n", f) >= 0;
  const uint32_t names = kNumSpanNames;
  ok = ok && std::fwrite(&names, sizeof(names), 1, f) == 1;
  for (int32_t n = 0; n < kNumSpanNames && ok; ++n) {
    const char* s = SpanNameString(n);
    ok = std::fwrite(s, 1, std::char_traits<char>::length(s) + 1, f) > 0;
  }
  uint64_t count = 0;
  for (const auto& t : threads_) count += t->spans.size();
  ok = ok && std::fwrite(&count, sizeof(count), 1, f) == 1;
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      if (!ok) break;
      ok = std::fwrite(&s.start, sizeof(int64_t), 4, f) == 4 &&
           std::fwrite(&s.name, sizeof(int32_t), 2, f) == 2;
    }
  }
  return std::fclose(f) == 0 && ok;
}

bool TimedDispatcher::Submit(marlin::DispatchTask task) {
  const int32_t name = DrainSpanFor(task.label);
  const int64_t submitted = NowNs();
  return inner_.Submit(marlin::DispatchTask{
      [fn = std::move(task.fn), name, submitted] {
        SpanScope span(name, submitted);
        fn();
      },
      std::move(task.label)});
}

marlin::StatusOr<marlin::ForecastTrajectory> TimedForecaster::Forecast(
    const marlin::SvrfInput& input) const {
  SpanScope span(kForecast, 1);
  return inner_->Forecast(input);
}

void TimedForecaster::ForecastBatch(
    const std::vector<marlin::SvrfInput>& inputs,
    std::vector<marlin::StatusOr<marlin::ForecastTrajectory>>* results) const {
  SpanScope span(kForecastBatch, static_cast<int64_t>(inputs.size()));
  inner_->ForecastBatch(inputs, results);
}

}  // namespace perfbench
