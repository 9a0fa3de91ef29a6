#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/latency_recorder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace marlin {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad lat");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad lat");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad lat");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string taken = std::move(v).value();
  EXPECT_EQ(taken, "hello");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseMacros(int x, int* out) {
  MARLIN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  MARLIN_RETURN_IF_ERROR(Status::Ok());
  *out = v * 2;
  return Status::Ok();
}

TEST(StatusOrTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  Status bad = UseMacros(-1, &out);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, SimulatedClockAdvances) {
  VirtualClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.AdvanceTo(clock.Now() + 500);
  EXPECT_EQ(clock.Now(), 1500);
}

TEST(ClockTest, WallClockMonotonicallyReasonable) {
  WallClock clock;
  const TimeMicros a = clock.Now();
  const TimeMicros b = clock.Now();
  EXPECT_GE(b, a);
  // After 2020-01-01 in microseconds.
  EXPECT_GT(a, int64_t{1577836800} * 1000000);
}

TEST(ClockTest, StopwatchMeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(sw.ElapsedNanos(), 0);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 5.0);
    const int64_t n = rng.UniformInt(int64_t{3}, int64_t{9});
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 9);
  }
}

TEST(RngTest, NormalHasApproximatelyUnitMoments) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialHasExpectedMean) {
  Rng rng(9);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  // The child stream must not simply mirror the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      const int now = running.fetch_add(1) + 1;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      running.fetch_sub(1);
    });
  }
  pool.WaitIdle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}

// Regression: a second concurrent Shutdown() caller used to race the first
// one's worker.join()/workers_.clear() (joining already-joined threads,
// clearing a vector mid-iteration). Every caller must block until the
// workers are down, and the pool must stay usable for queries afterwards.
TEST(ThreadPoolTest, ConcurrentShutdownIsIdempotent) {
  for (int round = 0; round < 25; ++round) {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([] {});
    }
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&pool] { pool.Shutdown(); });
    }
    for (auto& th : callers) th.join();
    EXPECT_FALSE(pool.Submit([] {}));
    EXPECT_EQ(pool.num_threads(), 4);
  }
}

TEST(ThreadPoolTest, QueueDepthDrainsToZero) {
  ThreadPool pool(2);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([] {});
  }
  pool.WaitIdle();
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

// ------------------------------------------------------- LatencyRecorder

TEST(LatencyRecorderTest, TracksCountAndMean) {
  LatencyRecorder recorder(10);
  recorder.Record(1, 100);
  recorder.Record(1, 300);
  EXPECT_EQ(recorder.Count(), 2);
  EXPECT_DOUBLE_EQ(recorder.MeanNanos(), 200.0);
}

TEST(LatencyRecorderTest, EmitsPointPerNewActorCount) {
  LatencyRecorder recorder(10);
  recorder.Record(1, 100);
  recorder.Record(1, 100);
  recorder.Record(2, 100);
  recorder.Record(3, 100);
  const auto series = recorder.Series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].actor_count, 1);
  EXPECT_EQ(series[1].actor_count, 2);
  EXPECT_EQ(series[2].actor_count, 3);
}

TEST(LatencyRecorderTest, MovingWindowForgetsOldSamples) {
  LatencyRecorder recorder(2);
  recorder.Record(1, 1000);
  recorder.Record(2, 100);
  recorder.Record(3, 100);
  const auto series = recorder.Series();
  // The third point's window holds only the last two samples.
  EXPECT_DOUBLE_EQ(series.back().avg_nanos, 100.0);
}

// Regression: the point emitted at an actor-count boundary used to average
// a window still full of the previous actor count's samples, so a slow
// regime bled into the first point of the next one (skewing the Figure-6
// curve). The window restarts at the boundary: the new point reflects only
// the new count's samples.
TEST(LatencyRecorderTest, WindowRestartsAtActorCountBoundary) {
  LatencyRecorder recorder(4);
  recorder.Record(1, 1000);
  recorder.Record(1, 1000);
  recorder.Record(1, 1000);
  recorder.Record(2, 10);
  const auto series = recorder.Series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].avg_nanos, 1000.0);
  // Old behaviour: (1000*3 + 10) / 4 = 752.5.
  EXPECT_DOUBLE_EQ(series[1].avg_nanos, 10.0);
}

TEST(LatencyRecorderTest, ThreadSafeUnderConcurrentRecords) {
  LatencyRecorder recorder(100);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < 1000; ++i) recorder.Record(t, 50);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.Count(), 8000);
  EXPECT_DOUBLE_EQ(recorder.MeanNanos(), 50.0);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, LevelsFilter) {
  Logger::Instance().set_min_level(LogLevel::kError);
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kError));
  Logger::Instance().set_min_level(LogLevel::kInfo);
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kInfo));
}

}  // namespace
}  // namespace marlin
