#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace leosim::obs {

namespace {

std::atomic<int> g_next_shard{0};

int& ThreadShardSlot() {
  thread_local int shard = -1;
  return shard;
}

}  // namespace

int CurrentShard() {
  int& shard = ThreadShardSlot();
  if (shard < 0) {
    shard = g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  }
  return shard;
}

ScopedShard::ScopedShard(int shard) : previous_(ThreadShardSlot()) {
  ThreadShardSlot() = ((shard % kMetricShards) + kMetricShards) % kMetricShards;
}

ScopedShard::~ScopedShard() { ThreadShardSlot() = previous_; }

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const leosim::MutexLock lock(mutex_);
  for (const std::unique_ptr<Counter>& c : counters_) {
    if (c->name_ == name) {
      return *c;
    }
  }
  counters_.push_back(std::unique_ptr<Counter>(new Counter(std::string(name))));
  return *counters_.back();
}

std::string MetricsRegistry::ToJson() const {
  // Snapshot name-sorted pointers under the lock, then read the (atomic)
  // values without it — registration appends, so pointers stay valid.
  std::vector<const Counter*> counters;
  {
    const leosim::MutexLock lock(mutex_);
    for (const auto& c : counters_) counters.push_back(c.get());
  }
  std::sort(counters.begin(), counters.end(),
            [](const Counter* a, const Counter* b) {
              return a->name() < b->name();
            });

  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out.append(i == 0 ? "\n    " : ",\n    ");
    AppendJsonString(&out, counters[i]->name());
    out.append(": ");
    AppendUint(&out, counters[i]->Value());
  }
  out.append("\n  }\n}\n");
  return out;
}

void MetricsRegistry::Reset() {
  const leosim::MutexLock lock(mutex_);
  for (const auto& c : counters_) {
    for (Counter::Slot& slot : c->slots_) {
      slot.value.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace leosim::obs
