#include "actor/actor_system.h"

#include <algorithm>
#include <utility>

#include "chk/chk.h"
#include "fault/fault_injector.h"
#include "util/logging.h"

namespace marlin {
namespace {

TimeMicros WallNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ownership-checker keys must be unique across every ActorSystem in the
/// process (per-system actor ids all start at 1), so they come from one
/// process-wide counter.
uint64_t NextChkKey() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void ActorContext::AssertExclusive(const char* what) const {
#if defined(MARLIN_CHECKED) && MARLIN_CHECKED
  chk::ThreadOwnership::AssertOwned(chk_key_, what);
#else
  (void)what;
#endif
}

ActorSystem::ActorSystem(const ActorSystemConfig& config)
    : config_(config),
      dispatcher_(config.dispatcher
                      ? config.dispatcher
                      : std::make_shared<ThreadPoolDispatcher>(
                            config.num_threads > 0
                                ? config.num_threads
                                : static_cast<int>(std::max(
                                      2u,
                                      std::thread::hardware_concurrency())))) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::OrGlobal(config.metrics);
  metrics_.registry = registry;
  metrics_.messages_processed = registry->GetCounter(
      "marlin_actor_messages_processed_total",
      "Messages delivered to actors and processed");
  metrics_.messages_dropped = registry->GetCounter(
      "marlin_actor_messages_dropped_total",
      "Messages dropped (stopped target or shutdown)");
  metrics_.actors_spawned = registry->GetCounter(
      "marlin_actor_spawned_total", "Actors spawned");
  metrics_.actors_stopped = registry->GetCounter(
      "marlin_actor_stopped_total", "Actors stopped");
  metrics_.restarts = registry->GetCounter(
      "marlin_actor_restarts_total", "Actor supervision restarts");
  metrics_.live_actors = registry->GetGauge(
      "marlin_actor_live", "Actors currently registered");
  metrics_.mailbox_highwater = registry->GetGauge(
      "marlin_actor_mailbox_highwater",
      "Deepest mailbox observed at enqueue time");
  metrics_.dispatcher_queue_depth = registry->GetGauge(
      "marlin_dispatcher_queue_depth",
      "Dispatcher pool queue depth sampled at scheduling points");
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ActorSystem::~ActorSystem() { Shutdown(); }

StatusOr<ActorRef> ActorSystem::Spawn(std::string name,
                                      std::unique_ptr<Actor> actor) {
  std::shared_ptr<ActorCell> cell;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("actor system is shutting down");
    }
    if (by_name_.count(name) > 0) {
      return Status::AlreadyExists("actor '" + name + "' already exists");
    }
    cell = std::make_shared<ActorCell>();
    cell->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    cell->chk_key = NextChkKey();
    cell->name = name;
    cell->actor = std::move(actor);
    // Born "scheduled": the cell is visible in the registry from here on,
    // so concurrent senders can already enqueue — but no mailbox drain may
    // start until OnStart has finished on this thread.
    cell->scheduled = true;
    by_name_.emplace(name, cell);
    by_id_.emplace(cell->id, cell);
    actor_count_.store(by_id_.size(), std::memory_order_relaxed);
  }
  metrics_.actors_spawned->Increment();
  metrics_.live_actors->Add(1);
  ActorRef ref(cell->id, std::move(name), cell);
  Envelope start_env;
  ActorContext ctx(this, cell->id, &start_env, cell->chk_key);
  {
    MARLIN_CHK_OWNERSHIP_SCOPE(cell->chk_key);
    cell->actor->OnStart(ctx);
  }
  // Release the birth claim: drain anything that arrived during OnStart.
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(cell->mu);
    if (cell->mailbox.empty() || cell->stopped) {
      cell->scheduled = false;
    } else {
      drain = true;
    }
  }
  if (drain && !dispatcher_->Submit(DispatchTask{
                   [this, cell] { DrainMailbox(cell); }, cell->name})) {
    size_t dropped;
    {
      std::lock_guard<std::mutex> lock(cell->mu);
      dropped = cell->mailbox.size();
      cell->mailbox.clear();
      cell->scheduled = false;
    }
    DecrementPending(static_cast<int64_t>(dropped));
    metrics_.messages_dropped->Increment(dropped);
  }
  return ref;
}

StatusOr<ActorRef> ActorSystem::GetOrSpawn(
    const std::string& name,
    const std::function<std::unique_ptr<Actor>()>& factory) {
  // Claim the name before running the factory so concurrent callers for the
  // same key construct the actor exactly once: losers wait for the winner's
  // spawn to finish instead of building a throwaway instance. The factory
  // and Spawn run outside registry_mu_, so an OnStart that itself calls
  // GetOrSpawn (for a different name) cannot deadlock.
  {
    std::unique_lock<std::mutex> lock(registry_mu_);
    for (;;) {
      auto it = by_name_.find(name);
      if (it != by_name_.end()) {
        return ActorRef(it->second->id, name, it->second);
      }
      if (shutting_down_) {
        return Status::FailedPrecondition("actor system is shutting down");
      }
      if (spawning_.insert(name).second) break;  // we own the spawn
      spawn_cv_.wait(lock);
    }
  }
  StatusOr<ActorRef> spawned = Spawn(name, factory());
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    spawning_.erase(name);
  }
  spawn_cv_.notify_all();
  if (!spawned.ok() &&
      spawned.status().code() == StatusCode::kAlreadyExists) {
    // A direct Spawn (not holding a claim) slipped in; return the winner.
    return Find(name);
  }
  return spawned;
}

StatusOr<ActorRef> ActorSystem::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("actor '" + name + "' not found");
  }
  return ActorRef(it->second->id, name, it->second);
}

bool ActorSystem::Tell(const ActorRef& target, std::any message,
                       ActorId sender) {
  std::shared_ptr<ActorCell> cell = target.cell_.lock();
  if (cell == nullptr) {
    if (target.remote_ != nullptr) {
      // Remote ref: hand the payload to the cluster layer's routing hook.
      // Remote delivery is the one lossy Tell path (the hook serialises
      // onto a transport), so it carries an injection point; local mailbox
      // delivery below stays reliable by contract.
      if (MARLIN_FAULT_POINT("actor.remote_tell") !=
          fault::FaultAction::kNone) {
        return false;
      }
      return (*target.remote_)(std::move(message));
    }
    return false;
  }
  Envelope env;
  env.payload = std::move(message);
  env.sender = sender;
  return Enqueue(cell, std::move(env));
}

std::future<std::any> ActorSystem::Ask(const ActorRef& target,
                                       std::any message, ActorId sender) {
  auto promise = std::make_shared<std::promise<std::any>>();
  std::future<std::any> future = promise->get_future();
  std::shared_ptr<ActorCell> cell = target.cell_.lock();
  if (cell == nullptr) {
    promise->set_value(std::any());  // broken target: empty reply
    return future;
  }
  Envelope env;
  env.payload = std::move(message);
  env.sender = sender;
  env.reply = promise;
  if (!Enqueue(cell, std::move(env))) {
    promise->set_value(std::any());
  }
  return future;
}

void ActorSystem::ScheduleTell(TimeMicros delay, const ActorRef& target,
                               std::any message, ActorId sender) {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (timer_stop_) return;
    timers_.push(TimerEntry{WallNowMicros() + std::max<TimeMicros>(0, delay),
                            target, std::move(message), sender});
  }
  timer_cv_.notify_one();
}

void ActorSystem::Stop(const ActorRef& target) {
  std::shared_ptr<ActorCell> cell = target.cell_.lock();
  if (cell != nullptr) StopCell(cell);
}

void ActorSystem::AwaitQuiescence() {
  if (dispatcher_->cooperative()) {
    // Cooperative dispatchers (chk::DeterministicScheduler) only run tasks
    // inside Quiesce() on this thread; poll for stragglers racing in from
    // the timer thread between a pending_ increment and its Submit.
    while (pending_.load(std::memory_order_acquire) != 0) {
      dispatcher_->Quiesce();
      if (pending_.load(std::memory_order_acquire) != 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return;
  }
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ActorSystem::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  // Stop the timer first so no new sends originate from it.
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  AwaitQuiescence();
  dispatcher_->Shutdown();
  std::vector<std::shared_ptr<ActorCell>> cells;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    cells.reserve(by_id_.size());
    for (auto& [id, cell] : by_id_) cells.push_back(cell);
  }
  for (auto& cell : cells) {
    std::lock_guard<std::mutex> lock(cell->mu);
    if (!cell->stopped) {
      cell->stopped = true;
      MARLIN_CHK_OWNERSHIP_SCOPE(cell->chk_key);
      cell->actor->OnStop();
      metrics_.actors_stopped->Increment();
      metrics_.live_actors->Sub(1);
    }
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    by_name_.clear();
    by_id_.clear();
    actor_count_.store(0, std::memory_order_relaxed);
  }
}

bool ActorSystem::Enqueue(const std::shared_ptr<ActorCell>& cell,
                          Envelope envelope) {
  // Count the message in-flight *before* it becomes visible to the
  // dispatcher, so AwaitQuiescence never observes a transient zero while a
  // message is queued or being processed.
  pending_.fetch_add(1, std::memory_order_acq_rel);
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(cell->mu);
    if (cell->stopped) {
      DecrementPending(1);
      metrics_.messages_dropped->Increment();
      return false;
    }
    cell->mailbox.push_back(std::move(envelope));
    metrics_.mailbox_highwater->UpdateMax(
        static_cast<int64_t>(cell->mailbox.size()));
    if (!cell->scheduled) {
      cell->scheduled = true;
      schedule = true;
    }
  }
  if (schedule) {
    metrics_.dispatcher_queue_depth->Set(
        static_cast<int64_t>(dispatcher_->QueueDepth()));
    if (!dispatcher_->Submit(
            DispatchTask{[this, cell] { DrainMailbox(cell); }, cell->name})) {
      // Pool already shut down; roll back so quiescence does not hang.
      size_t dropped;
      {
        std::lock_guard<std::mutex> lock(cell->mu);
        dropped = cell->mailbox.size();
        cell->mailbox.clear();
        cell->scheduled = false;
      }
      DecrementPending(static_cast<int64_t>(dropped));
      metrics_.messages_dropped->Increment(dropped);
      return false;
    }
  }
  return true;
}

void ActorSystem::DecrementPending(int64_t n) {
  if (n <= 0) return;
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

void ActorSystem::DrainMailbox(std::shared_ptr<ActorCell> cell) {
  int processed_here = 0;
  for (;;) {
    Envelope env;
    {
      std::lock_guard<std::mutex> lock(cell->mu);
      if (cell->mailbox.empty() || cell->stopped) {
        cell->scheduled = false;
        return;
      }
      if (processed_here >= config_.throughput) {
        // Yield the thread; reschedule for fairness.
        if (!dispatcher_->Submit(DispatchTask{
                [this, cell] { DrainMailbox(cell); }, cell->name})) {
          cell->scheduled = false;
        }
        return;
      }
      env = std::move(cell->mailbox.front());
      cell->mailbox.pop_front();
    }
    ActorContext ctx(this, cell->id, &env, cell->chk_key);
    Status status;
    {
      MARLIN_CHK_OWNERSHIP_SCOPE(cell->chk_key);
      status = cell->actor->Receive(env.payload, ctx);
      // Handle the failure before releasing the pending count so that
      // AwaitQuiescence observes completed supervision, not just delivery;
      // supervision (OnRestart/OnStop) runs inside the ownership scope.
      if (!status.ok()) HandleFailure(cell, status);
    }
    ++processed_here;
    processed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.messages_processed->Increment();
    if (!status.ok()) {
      DecrementPending(1);
      std::lock_guard<std::mutex> lock(cell->mu);
      if (cell->stopped) {
        cell->scheduled = false;
        return;
      }
    } else {
      DecrementPending(1);
    }
  }
}

void ActorSystem::HandleFailure(const std::shared_ptr<ActorCell>& cell,
                                const Status& failure) {
  int restarts;
  {
    std::lock_guard<std::mutex> lock(cell->mu);
    restarts = ++cell->restarts;
  }
  metrics_.restarts->Increment();
  if (restarts > config_.max_restarts) {
    MARLIN_LOG(WARNING) << "actor '" << cell->name << "' exceeded "
                        << config_.max_restarts
                        << " restarts; stopping (last failure: "
                        << failure.ToString() << ")";
    StopCell(cell);
    return;
  }
  MARLIN_LOG(WARNING) << "actor '" << cell->name
                      << "' failed: " << failure.ToString() << " (restart "
                      << restarts << "/" << config_.max_restarts << ")";
  MARLIN_CHK_OWNERSHIP_SCOPE(cell->chk_key);
  cell->actor->OnRestart(failure);
}

void ActorSystem::StopCell(const std::shared_ptr<ActorCell>& cell) {
  size_t dropped;
  {
    std::lock_guard<std::mutex> lock(cell->mu);
    if (cell->stopped) return;
    cell->stopped = true;
    dropped = cell->mailbox.size();
    cell->mailbox.clear();
    MARLIN_CHK_OWNERSHIP_SCOPE(cell->chk_key);
    cell->actor->OnStop();
  }
  DecrementPending(static_cast<int64_t>(dropped));
  if (dropped > 0) metrics_.messages_dropped->Increment(dropped);
  metrics_.actors_stopped->Increment();
  metrics_.live_actors->Sub(1);
  std::lock_guard<std::mutex> lock(registry_mu_);
  by_name_.erase(cell->name);
  by_id_.erase(cell->id);
  actor_count_.store(by_id_.size(), std::memory_order_relaxed);
}

void ActorSystem::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  for (;;) {
    if (timer_stop_) return;
    if (timers_.empty()) {
      timer_cv_.wait(lock,
                     [this] { return timer_stop_ || !timers_.empty(); });
      continue;
    }
    const TimeMicros now = WallNowMicros();
    const TimerEntry& next = timers_.top();
    if (next.fire_at_wall > now) {
      timer_cv_.wait_for(
          lock, std::chrono::microseconds(next.fire_at_wall - now));
      continue;
    }
    TimerEntry entry = timers_.top();
    timers_.pop();
    lock.unlock();
    Tell(entry.target, std::move(entry.message), entry.sender);
    lock.lock();
  }
}

}  // namespace marlin
