#ifndef MARLIN_CORE_QUIESCENCE_H_
#define MARLIN_CORE_QUIESCENCE_H_

#include <thread>

#include "actor/actor_system.h"

namespace marlin {

/// Blocks until `system` and the inference `batcher` its actors submit to
/// are both quiet. They feed each other: draining the mailboxes can enqueue
/// forecast requests, and flushing those requests Tells results back into
/// the mailboxes, so the wait alternates between the two.
///
/// A quiescent batcher alone does not end the wait. A concurrent flusher
/// (the batcher's deadline ticker) can finish a batch after the system went
/// quiet and Tell its results just before the batcher reports quiescent.
/// The wait ends only when the system is still idle after that report: then
/// no actor runs, so none can submit, and nothing is queued anywhere.
///
/// `Batcher` provides `int Flush()` and `bool Quiescent()`; the pipeline
/// passes its InferenceBatcher, or null when inference is not batched.
template <typename Batcher>
void AwaitActorsAndBatcher(ActorSystem* system, Batcher* batcher) {
  for (;;) {
    system->AwaitQuiescence();
    if (batcher == nullptr) return;
    if (batcher->Flush() == 0 && batcher->Quiescent() && system->Idle()) {
      return;
    }
    // A concurrent flusher still owns a batch, or has just delivered one;
    // let it finish before re-checking.
    std::this_thread::yield();
  }
}

}  // namespace marlin

#endif  // MARLIN_CORE_QUIESCENCE_H_
