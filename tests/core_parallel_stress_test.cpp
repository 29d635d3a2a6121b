// Stress tests designed to give ThreadSanitizer something to chew on.
//
// The regular unit tests touch ParallelFor with small counts and mostly
// uncontended state; under TSan that exercises very few interleavings.
// These tests deliberately maximise cross-thread traffic — shared
// accumulators updated from every worker, repeated fork/join cycles,
// contended mutex paths, and the one production user of ParallelFor
// (RunLatencyStudy) writing slot-parallel results into shared vectors —
// so a data race introduced anywhere in that machinery is actually
// observable. They also pass (quickly) without TSan and so run in every
// suite configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/latency_study.hpp"
#include "core/mutex.hpp"
#include "core/network_builder.hpp"
#include "core/parallel.hpp"
#include "core/thread_annotations.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

TEST(ParallelStressTest, ContendedAtomicAccumulators) {
  // Every iteration updates every accumulator, so all workers hammer the
  // same cache lines for the whole run.
  const ScopedThreads scope(8);
  const int n = 200'000;
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> max_seen{-1};
  std::atomic<int> calls{0};
  ParallelFor(
      n,
      [&](int i) {
        sum.fetch_add(i, std::memory_order_relaxed);
        calls.fetch_add(1, std::memory_order_relaxed);
        std::int64_t prev = max_seen.load(std::memory_order_relaxed);
        while (prev < i &&
               !max_seen.compare_exchange_weak(prev, i,
                                               std::memory_order_relaxed)) {
        }
      });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(n) * (n - 1) / 2);
  EXPECT_EQ(calls.load(), n);
  EXPECT_EQ(max_seen.load(), n - 1);
}

TEST(ParallelStressTest, MutexProtectedSharedVector) {
  const ScopedThreads scope(8);
  const int n = 20'000;
  std::mutex mutex;
  std::vector<int> collected;
  collected.reserve(static_cast<size_t>(n));
  ParallelFor(
      n,
      [&](int i) {
        const std::lock_guard<std::mutex> lock(mutex);
        collected.push_back(i);
      });
  EXPECT_EQ(collected.size(), static_cast<size_t>(n));
  std::int64_t sum = 0;
  for (const int v : collected) {
    sum += v;
  }
  EXPECT_EQ(sum, static_cast<std::int64_t>(n) * (n - 1) / 2);
}

TEST(ParallelStressTest, AnnotatedMutexGuardedCounterFromAllWorkers) {
  // The annotated leosim::Mutex wrapper under maximum contention: every
  // worker locks the same mutex on every iteration to bump a guarded
  // counter and append to a guarded vector, from ParallelForWorkers so
  // the per-worker shard pinning is active too. Proves the annotations
  // (compile-time discipline) and the runtime behaviour agree — TSan
  // must stay as quiet about MutexLock as it was about lock_guard.
  const ScopedThreads scope(8);
  struct Guarded {
    leosim::Mutex mutex;
    std::int64_t counter LEOSIM_GUARDED_BY(mutex) = 0;
    std::vector<int> per_worker_hits LEOSIM_GUARDED_BY(mutex);
  } state;
  {
    const leosim::MutexLock lock(state.mutex);
    state.per_worker_hits.assign(8, 0);
  }

  const int n = 50'000;
  ParallelForWorkers(
      n,
      [&](int worker, int i) {
        const leosim::MutexLock lock(state.mutex);
        state.counter += i;
        state.per_worker_hits[static_cast<size_t>(worker)] += 1;
      });

  const leosim::MutexLock lock(state.mutex);
  EXPECT_EQ(state.counter, static_cast<std::int64_t>(n) * (n - 1) / 2);
  std::int64_t hits = 0;
  for (const int h : state.per_worker_hits) {
    hits += h;
  }
  EXPECT_EQ(hits, n);
}

TEST(ParallelStressTest, AnnotatedMutexTryLockContention) {
  // TryLock under contention: winners mutate guarded state, losers fall
  // back to an atomic tally. Exercises the LEOSIM_TRY_ACQUIRE path of
  // the wrapper, which the studies do not use yet.
  const ScopedThreads scope(8);
  struct Guarded {
    leosim::Mutex mutex;
    std::int64_t acquired LEOSIM_GUARDED_BY(mutex) = 0;
  } state;
  std::atomic<std::int64_t> contended{0};

  const int n = 50'000;
  ParallelFor(
      n,
      [&](int) {
        if (state.mutex.TryLock()) {
          ++state.acquired;
          state.mutex.Unlock();
        } else {
          contended.fetch_add(1, std::memory_order_relaxed);
        }
      });

  const leosim::MutexLock lock(state.mutex);
  EXPECT_EQ(state.acquired + contended.load(), static_cast<std::int64_t>(n));
  EXPECT_GE(state.acquired, 1);
}

TEST(ParallelStressTest, DisjointSlotWritesWithoutSynchronisation) {
  // The pattern the studies rely on: each iteration owns slot i and
  // writes it without locks. Correct by construction — and the exact
  // pattern TSan must stay quiet about.
  const ScopedThreads scope(8);
  const int n = 100'000;
  std::vector<double> slots(static_cast<size_t>(n), 0.0);
  ParallelFor(
      n, [&](int i) { slots[static_cast<size_t>(i)] = 2.0 * i; });
  for (int i = 0; i < n; i += 9973) {
    EXPECT_DOUBLE_EQ(slots[static_cast<size_t>(i)], 2.0 * i);
  }
}

TEST(ParallelStressTest, RepeatedForkJoinCycles) {
  // Many short ParallelFor calls back to back stress thread create/join
  // and the handoff of captured state between rounds.
  const ScopedThreads scope(4);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(
        64, [&](int i) { total.fetch_add(i, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 200LL * (64LL * 63LL / 2LL));
}

TEST(ParallelStressTest, ExceptionStopUnderContention) {
  // Exercise the stop-flag path while every worker is mid-flight; the
  // error machinery (mutex + exception_ptr + stop flag) must be race
  // free against concurrent captures from all workers.
  const ScopedThreads scope(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> executed{0};
    EXPECT_THROW(ParallelFor(
                     10'000,
                     [&](int i) {
                       executed.fetch_add(1, std::memory_order_relaxed);
                       if (i % 97 == 3) {
                         throw std::runtime_error("stress boom");
                       }
                     }),
                 std::runtime_error);
    EXPECT_GE(executed.load(), 1);
  }
}

TEST(ParallelStressTest, ObsCounterAndSpanFromAllWorkers) {
  // Every worker hammers the same counter and, with tracing on, its own
  // trace buffer for the whole run — the exact write pattern the sharded
  // counters and per-thread span buffers claim is race free.
  const ScopedThreads scope(8);
  obs::EnableTracing(true);
  obs::ResetTrace();
  obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("stress.obs_counter");
  const std::uint64_t counter_before = counter.Value();

  const int n = 48'000;
  ParallelFor(
      n,
      [&](int i) {
        const obs::Span span("stress.span");
        counter.Add(static_cast<std::uint64_t>(i % 3 + 1));
      });
  obs::EnableTracing(false);

  // i%3+1 over n iterations: n/3 of each of 1,2,3 when 3 divides n.
  static_assert(48'000 % 3 == 0);
  EXPECT_EQ(counter.Value() - counter_before,
            static_cast<std::uint64_t>(n) / 3 * 6);
  // 48k spans over 8 workers stays under the per-thread buffer cap, and
  // the export machinery must tolerate joined-thread buffers: every span
  // is in the trace exactly once.
  EXPECT_EQ(obs::TraceDroppedEvents(), 0u);
  const std::string trace = obs::TraceToJson();
  int spans = 0;
  for (size_t at = trace.find("\"stress.span\""); at != std::string::npos;
       at = trace.find("\"stress.span\"", at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, n);
  obs::ResetTrace();
}

TEST(ParallelStressTest, LatencyStudySnapshotParallelism) {
  // The production ParallelFor user: per-snapshot workers write RTTs
  // into shared result vectors at disjoint slots. Run it at reduced but
  // non-trivial scale so every worker thread builds snapshots
  // concurrently against the same (const) NetworkModel.
  NetworkOptions options;
  options.mode = ConnectivityMode::kBentPipe;
  options.relay_spacing_deg = 6.0;
  const NetworkModel bp(Scenario::Starlink(), options, data::AnchorCities());
  NetworkOptions hybrid_options = options;
  hybrid_options.mode = ConnectivityMode::kHybrid;
  const NetworkModel hybrid(Scenario::Starlink(), hybrid_options,
                            data::AnchorCities());

  TrafficMatrixOptions tm;
  tm.num_pairs = 16;
  const std::vector<CityPair> pairs = SampleCityPairs(data::AnchorCities(), tm);

  SnapshotSchedule schedule;
  schedule.duration_sec = 4.0 * 3600.0;
  schedule.step_sec = 900.0;  // 16 snapshots -> 16 parallel work items

  const LatencyStudyResult result =
      RunLatencyStudy(bp, hybrid, pairs, schedule);
  ASSERT_EQ(result.snapshot_times.size(), 16u);
  ASSERT_EQ(result.bp.size(), pairs.size());
  ASSERT_EQ(result.hybrid.size(), pairs.size());
  // Every slot of every series must hold either a positive RTT or the
  // +inf unreachable marker — a torn or lost write would show up as 0.
  for (const PairRttSeries& s : result.bp) {
    ASSERT_EQ(s.rtt_ms.size(), 16u);
    for (const double v : s.rtt_ms) {
      EXPECT_GT(v, 0.0);
    }
  }
}

}  // namespace
}  // namespace leosim::core
