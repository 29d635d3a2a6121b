// Process-wide counters for the snapshot pipeline, exportable as JSON.
// Counters measure work only; time is measured by obs::Span (trace and
// profiler), so the export is the same bytes on every run and at every
// worker count.
//
// Hot-loop increments must be contention-free: every counter is sharded
// into kMetricShards cache-line-padded slots, and a thread picks its
// slot via a thread-local shard id (dense when running under
// ParallelForWorkers, which pins each worker to its worker id via
// ScopedShard; round-robin otherwise). Increments are relaxed atomic
// adds on the thread's own slot; readers merge all slots on demand, so
// a merge is associative — any interleaving of writers sums to the same
// totals.
//
// Counter handles returned by MetricsRegistry are stable for the
// registry's lifetime (registration appends, never moves), so hot paths
// resolve a metric once and keep the reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace leosim::obs {

inline constexpr int kMetricShards = 16;

// Thread-local shard id in [0, kMetricShards). Assigned round-robin on
// first use; ParallelForWorkers overrides it with the dense worker id
// for the worker's lifetime (see ScopedShard).
int CurrentShard();

// Pins the calling thread's shard id for the scope's lifetime; restores
// the previous id on destruction. Ids are taken modulo kMetricShards.
class ScopedShard {
 public:
  explicit ScopedShard(int shard);
  ~ScopedShard();
  ScopedShard(const ScopedShard&) = delete;
  ScopedShard& operator=(const ScopedShard&) = delete;

 private:
  int previous_;
};

class Counter {
 public:
  void Add(uint64_t n) {
    slots_[static_cast<size_t>(CurrentShard())].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  // Merged total across shards.
  uint64_t Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  std::string name_;
  std::array<Slot, kMetricShards> slots_;
};

// Registry of named counters. GetCounter registers on first use
// (mutex-guarded; hot paths should cache the returned reference) and
// returns the existing counter on every later call with the same name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the pipeline instruments into.
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);

  // JSON object {"counters": {...}}, counters sorted by name for
  // diff-stable output.
  std::string ToJson() const;

  // Zeroes every counter (handles stay valid). Intended for tests and for
  // delimiting phases in long-running tools.
  void Reset();

  // Resets the registry on entry and again on exit, so a test observes
  // only its own increments and leaves nothing behind for the next one.
  class ScopedReset {
   public:
    explicit ScopedReset(MetricsRegistry& registry = Global())
        : registry_(registry) {
      registry_.Reset();
    }
    ~ScopedReset() { registry_.Reset(); }
    ScopedReset(const ScopedReset&) = delete;
    ScopedReset& operator=(const ScopedReset&) = delete;

   private:
    MetricsRegistry& registry_;
  };

 private:
  // tests/tsa_negative/metrics_guard_probe.cpp reads the guarded vector
  // without the lock and must fail to compile under -Werror=thread-safety;
  // the friend grants it the member access so the probe exercises exactly
  // the GUARDED_BY annotations below.
  friend struct MetricsRegistryTsaProbe;

  mutable leosim::Mutex mutex_;
  std::vector<std::unique_ptr<Counter>> counters_ LEOSIM_GUARDED_BY(mutex_);
};

}  // namespace leosim::obs
