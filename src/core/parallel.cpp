#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

obs::Counter& RunsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("parallel.runs");
  return counter;
}

obs::Counter& ItemsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("parallel.items");
  return counter;
}

int HardwareWorkers() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

// LEOSIM_THREADS, re-read on every run (a getenv and a parse are noise
// next to spawning even one thread, and re-reading lets tests and
// embedding processes vary the worker count between runs — the sweep
// determinism test sweeps 1/4/13 workers inside one process). Returns 0
// when unset, empty or "0" ("use hardware concurrency"), else the value.
// Throws std::invalid_argument for anything but a decimal integer in
// [0, kMaxThreads]. Only ever called from the thread that launches the
// run, before workers spawn, so it never races a setenv between runs.
int EnvThreadOverride() {
  constexpr int kMaxThreads = 1024;
  const char* raw = std::getenv("LEOSIM_THREADS");
  if (raw == nullptr || *raw == '\0') {
    return 0;
  }
  const std::string_view text(raw);
  int value = -1;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < 0 ||
      value > kMaxThreads) {
    throw std::invalid_argument("LEOSIM_THREADS must be an integer in [0, " +
                                std::to_string(kMaxThreads) + "], got '" +
                                std::string(text) + "'");
  }
  return value;
}

int ResolveWorkers(int count) {
  int workers = EnvThreadOverride();
  if (workers <= 0) {
    workers = HardwareWorkers();
  }
  return std::min(workers, count);
}

}  // namespace

void ParallelForWorkers(int count,
                        const std::function<void(int worker, int index)>& body) {
  if (count <= 0) {
    return;
  }
  const int workers = ResolveWorkers(count);
  RunsCounter().Increment();
  ItemsCounter().Add(static_cast<uint64_t>(count));

  if (workers == 1) {
    const obs::Span span("parallel.run");
    const obs::ScopedShard pin(0);
    // Same root frame the threaded path gives each worker, so profiles
    // look alike at every worker count.
    const obs::Span worker_span("parallel.worker");
    for (int i = 0; i < count; ++i) {
      body(0, i);
    }
    return;
  }

  const obs::Span span("parallel.run");
  std::atomic<int> next{0};
  std::atomic<bool> stop{false};
  // Wrapped in a struct so the guarded_by relation is expressible: the
  // analysis tracks members, not loose locals.
  struct ErrorSlot {
    leosim::Mutex mutex;
    std::exception_ptr first LEOSIM_GUARDED_BY(mutex);
  } error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // Pin this worker's metric shard to its dense worker id so
      // hot-loop counter increments from distinct workers never share a
      // cache line.
      const obs::ScopedShard pin(w);
      // The worker's root span: spans opened by `body` nest under it, so
      // worker time is attributable in the collapsed-stack profile even
      // when the body opens no span of its own.
      const obs::Span worker_span("parallel.worker");
      while (!stop.load(std::memory_order_relaxed)) {
        const int i = next.fetch_add(1);
        if (i >= count) {
          break;
        }
        try {
          body(w, i);
        } catch (...) {
          const leosim::MutexLock lock(error.mutex);
          if (!error.first) {
            error.first = std::current_exception();
          }
          stop.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // All workers have joined, but the analysis still wants the lock held
  // to read the guarded slot — an uncontended acquire, once per run.
  const leosim::MutexLock lock(error.mutex);
  if (error.first) {
    std::rethrow_exception(error.first);
  }
}

void ParallelFor(int count, const std::function<void(int)>& body) {
  ParallelForWorkers(count, [&body](int /*worker*/, int index) { body(index); });
}

int DefaultWorkerCount() { return ResolveWorkers(std::numeric_limits<int>::max()); }

}  // namespace leosim::core
