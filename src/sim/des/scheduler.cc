#include "sim/des/scheduler.h"

#include <algorithm>

namespace marlin {
namespace des {

EventScheduler::EventScheduler(const EventSchedulerConfig& config)
    : seed_(config.seed), now_(config.start_time) {
  trace_.MixU64(seed_);
}

uint32_t EventScheduler::RegisterHandler(const std::string& name,
                                         EventHandler* handler) {
  HandlerEntry entry;
  entry.handler = handler;
  entry.name_hash = chk::Fnv1a(name);
  handlers_.push_back(entry);
  return static_cast<uint32_t>(handlers_.size() - 1);
}

void EventScheduler::PostAt(TimeMicros at, uint32_t handler, uint64_t arg) {
  Event event;
  event.at = std::max(at, Now());
  event.seq = next_seq_++;
  event.handler = handler;
  event.arg = arg;
  queue_.Push(event);
}

void EventScheduler::PostIn(TimeMicros delay, uint32_t handler, uint64_t arg) {
  PostAt(Now() + std::max<TimeMicros>(delay, 0), handler, arg);
}

bool EventScheduler::Step() {
  if (queue_.Empty()) return false;
  Dispatch(queue_.Pop());
  return true;
}

int64_t EventScheduler::RunUntil(TimeMicros until) {
  int64_t count = 0;
  while (!queue_.Empty() && queue_.Top().at <= until) {
    Dispatch(queue_.Pop());
    ++count;
  }
  now_ = std::max(now_, until);
  return count;
}

int64_t EventScheduler::RunAll(int64_t max_events) {
  int64_t count = 0;
  while (!queue_.Empty() && (max_events < 0 || count < max_events)) {
    Dispatch(queue_.Pop());
    ++count;
  }
  return count;
}

void EventScheduler::Dispatch(const Event& event) {
  now_ = std::max(now_, event.at);
  ++dispatched_;
  trace_.MixU64(static_cast<uint64_t>(event.at));
  trace_.MixU64(handlers_[event.handler].name_hash);
  trace_.MixU64(event.arg);
  handlers_[event.handler].handler->OnEvent(this, event);
}

}  // namespace des
}  // namespace marlin
