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

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
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

Histogram::Histogram(std::string name, std::vector<double> upper_bounds)
    : name_(std::move(name)), upper_bounds_(std::move(upper_bounds)) {
  shards_.reserve(kMetricShards);
  for (int s = 0; s < kMetricShards; ++s) {
    shards_.push_back(std::make_unique<Shard>(upper_bounds_.size() + 1));
  }
}

void Histogram::Observe(double value) {
  Shard& shard = *shards_[static_cast<size_t>(CurrentShard())];
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(shard.min, value);
  AtomicMax(shard.max, value);
}

Histogram::Merged Histogram::Merge() const {
  Merged merged;
  merged.upper_bounds = upper_bounds_;
  merged.counts.assign(upper_bounds_.size() + 1, 0);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (size_t b = 0; b < merged.counts.size(); ++b) {
      merged.counts[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
    merged.count += shard->count.load(std::memory_order_relaxed);
    merged.sum += shard->sum.load(std::memory_order_relaxed);
    merged.min = std::min(merged.min, shard->min.load(std::memory_order_relaxed));
    merged.max = std::max(merged.max, shard->max.load(std::memory_order_relaxed));
  }
  return merged;
}

std::vector<double> Histogram::ExponentialBounds(double first, double factor,
                                                 int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
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

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  const leosim::MutexLock lock(mutex_);
  for (const std::unique_ptr<Gauge>& g : gauges_) {
    if (g->name_ == name) {
      return *g;
    }
  }
  gauges_.push_back(std::unique_ptr<Gauge>(new Gauge(std::string(name))));
  return *gauges_.back();
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds) {
  const leosim::MutexLock lock(mutex_);
  for (const std::unique_ptr<Histogram>& h : histograms_) {
    if (h->name_ == name) {
      return *h;
    }
  }
  histograms_.push_back(std::unique_ptr<Histogram>(
      new Histogram(std::string(name), std::move(upper_bounds))));
  return *histograms_.back();
}

std::string MetricsRegistry::ToJson() const {
  // Snapshot name-sorted pointers under the lock, then read the (atomic)
  // values without it — registration appends, so pointers stay valid.
  std::vector<const Counter*> counters;
  std::vector<const Gauge*> gauges;
  std::vector<const Histogram*> histograms;
  {
    const leosim::MutexLock lock(mutex_);
    for (const auto& c : counters_) counters.push_back(c.get());
    for (const auto& g : gauges_) gauges.push_back(g.get());
    for (const auto& h : histograms_) histograms.push_back(h.get());
  }
  const auto by_name = [](const auto* a, const auto* b) {
    return a->name() < b->name();
  };
  std::sort(counters.begin(), counters.end(), by_name);
  std::sort(gauges.begin(), gauges.end(), by_name);
  std::sort(histograms.begin(), histograms.end(), by_name);

  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out.append(i == 0 ? "\n    " : ",\n    ");
    AppendJsonString(&out, counters[i]->name());
    out.append(": ");
    AppendUint(&out, counters[i]->Value());
  }
  out.append("\n  },\n  \"gauges\": {");
  for (size_t i = 0; i < gauges.size(); ++i) {
    out.append(i == 0 ? "\n    " : ",\n    ");
    AppendJsonString(&out, gauges[i]->name());
    out.append(": ");
    AppendJsonNumber(&out, gauges[i]->Value());
  }
  out.append("\n  },\n  \"histograms\": {");
  for (size_t i = 0; i < histograms.size(); ++i) {
    const Histogram::Merged merged = histograms[i]->Merge();
    out.append(i == 0 ? "\n    " : ",\n    ");
    AppendJsonString(&out, histograms[i]->name());
    out.append(": {\n      \"upper_bounds\": [");
    for (size_t b = 0; b < merged.upper_bounds.size(); ++b) {
      if (b > 0) out.append(", ");
      AppendJsonNumber(&out, merged.upper_bounds[b]);
    }
    out.append("],\n      \"counts\": [");
    for (size_t b = 0; b < merged.counts.size(); ++b) {
      if (b > 0) out.append(", ");
      AppendUint(&out, merged.counts[b]);
    }
    out.append("],\n      \"count\": ");
    AppendUint(&out, merged.count);
    out.append(",\n      \"sum\": ");
    AppendJsonNumber(&out, merged.sum);
    out.append(",\n      \"min\": ");
    AppendJsonNumber(&out, merged.count > 0
                               ? merged.min
                               : std::numeric_limits<double>::infinity());
    out.append(",\n      \"max\": ");
    AppendJsonNumber(&out, merged.count > 0
                               ? merged.max
                               : -std::numeric_limits<double>::infinity());
    out.append("\n    }");
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
  for (const auto& g : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (const auto& h : histograms_) {
    for (const std::unique_ptr<Histogram::Shard>& shard : h->shards_) {
      for (std::atomic<uint64_t>& count : shard->counts) {
        count.store(0, std::memory_order_relaxed);
      }
      shard->count.store(0, std::memory_order_relaxed);
      shard->sum.store(0.0, std::memory_order_relaxed);
      shard->min.store(std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
      shard->max.store(-std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
    }
  }
}

}  // namespace leosim::obs
