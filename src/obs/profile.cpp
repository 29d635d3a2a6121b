#include "obs/profile.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace leosim::obs {

namespace detail {

std::atomic<bool> g_span_hook{false};

namespace {

// --- Per-thread span stacks --------------------------------------------
//
// Each thread owns one ProfileStack published in the fixed g_slots table.
// Writers (the owning thread) store frame pointers relaxed then publish
// with a release store of depth; the sampler acquires depth and reads
// at most that many frames. Frame pointers are
// interned, never-freed strings, so a stale read is always a valid
// pointer — never a use-after-free.

struct ProfileStack {
  std::array<std::atomic<const std::string*>, kMaxProfileDepth> frames{};
  std::atomic<int32_t> depth{0};
  // Written once before the stack is published, stable across pooled
  // reuse (the slot index doubles as the tid).
  int tid = 0;
};

std::atomic<ProfileStack*> g_slots[kMaxProfileThreads]{};
std::atomic<int> g_slot_count{0};

struct StackPool {
  Mutex mutex;
  std::vector<ProfileStack*> free_list LEOSIM_GUARDED_BY(mutex);
};

StackPool& Pool() {
  static StackPool* pool = new StackPool();  // never destroyed: thread
  // exits may return stacks past static destruction order.
  return *pool;
}

ProfileStack* AcquireStack() {
  {
    StackPool& pool = Pool();
    const MutexLock lock(pool.mutex);
    if (!pool.free_list.empty()) {
      ProfileStack* stack = pool.free_list.back();
      pool.free_list.pop_back();
      return stack;
    }
  }
  const int slot = g_slot_count.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxProfileThreads) {
    return nullptr;  // over the table: this thread just isn't sampled
  }
  ProfileStack* stack = new ProfileStack();  // owned by the slot table
  stack->tid = slot;
  g_slots[slot].store(stack, std::memory_order_release);
  return stack;
}

// Returns the stack to the pool at thread exit so the next spawned
// worker reuses it — ParallelFor creates fresh threads per run, and
// without pooling every run would burn slots until the table filled.
struct StackHolder {
  ProfileStack* stack = nullptr;
  bool tried = false;
  ~StackHolder() {
    if (stack == nullptr) {
      return;
    }
    stack->depth.store(0, std::memory_order_release);
    StackPool& pool = Pool();
    const MutexLock lock(pool.mutex);
    pool.free_list.push_back(stack);
  }
};

ProfileStack* ThreadStack() {
  thread_local StackHolder holder;
  if (!holder.tried) {
    holder.tried = true;
    holder.stack = AcquireStack();
  }
  return holder.stack;
}

// Nesting depth of hooked spans on this thread. Plain (non-atomic):
// only the owning thread touches it; the shared mirror is
// ProfileStack::depth.
thread_local int32_t t_depth = 0;

// --- Frame-name interning ----------------------------------------------
//
// Span names are string_views that may die with their owner; the
// sampler needs pointers that never dangle. Each
// distinct name is copied once into a leaked std::string, sanitized so
// it can never corrupt collapsed-stack output (';' joins frames, ' '
// separates stack from count, control/non-ASCII bytes would break
// downstream tools).

struct InternTable {
  Mutex mutex;
  std::map<std::string, const std::string*, std::less<>> names
      LEOSIM_GUARDED_BY(mutex);
};

InternTable& Interns() {
  static InternTable* table = new InternTable();  // never destroyed
  return *table;
}

const std::string* InternSlow(std::string_view name) {
  InternTable& table = Interns();
  const MutexLock lock(table.mutex);
  const auto it = table.names.find(name);
  if (it != table.names.end()) {
    return it->second;
  }
  std::string sanitized(name);
  for (char& c : sanitized) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == ';' || u <= 0x20 || u > 0x7e) {
      c = '_';
    }
  }
  if (sanitized.empty()) {
    sanitized = "_";
  }
  const std::string* interned = new std::string(std::move(sanitized));
  table.names.emplace(std::string(name), interned);
  return interned;
}

// Span names are string literals in practice, so a tiny cache keyed by
// the view's (data, size) identity skips the table lock on the hot path.
const std::string* InternName(std::string_view name) {
  struct CacheEntry {
    const char* data = nullptr;
    size_t size = 0;
    const std::string* interned = nullptr;
  };
  thread_local std::array<CacheEntry, 4> cache{};
  thread_local size_t next = 0;
  for (const CacheEntry& entry : cache) {
    if (entry.data == name.data() && entry.size == name.size()) {
      return entry.interned;
    }
  }
  const std::string* interned = InternSlow(name);
  cache[next] = CacheEntry{name.data(), name.size(), interned};
  next = (next + 1) % cache.size();
  return interned;
}

// --- The sampler --------------------------------------------------------

struct Sampler {
  Mutex mutex;
  std::map<std::string, uint64_t> counts LEOSIM_GUARDED_BY(mutex);
  std::atomic<uint64_t> samples{0};
  std::atomic<bool> stop{false};
};

Sampler& TheSampler() {
  static Sampler* sampler = new Sampler();  // never destroyed
  return *sampler;
}

// One walk over the slot table. `key` is caller-owned scratch so the
// steady-state loop does not allocate once stacks have been seen.
void SampleOnce(std::string* key) {
  const int slot_count = std::min(
      g_slot_count.load(std::memory_order_acquire), kMaxProfileThreads);
  bool saw_stack = false;
  for (int i = 0; i < slot_count; ++i) {
    const ProfileStack* stack = g_slots[i].load(std::memory_order_acquire);
    if (stack == nullptr) {
      continue;
    }
    int32_t depth = stack->depth.load(std::memory_order_acquire);
    if (depth <= 0) {
      continue;
    }
    depth = std::min(depth, kMaxProfileDepth);
    key->clear();
    bool torn = false;
    for (int32_t f = 0; f < depth; ++f) {
      const std::string* frame =
          stack->frames[f].load(std::memory_order_relaxed);
      if (frame == nullptr) {
        torn = true;  // raced a concurrent pop/push; drop this stack
        break;
      }
      if (f > 0) {
        key->push_back(';');
      }
      key->append(*frame);
    }
    if (torn || key->empty()) {
      continue;
    }
    saw_stack = true;
    Sampler& sampler = TheSampler();
    const MutexLock lock(sampler.mutex);
    ++sampler.counts[*key];
  }
  if (saw_stack) {
    TheSampler().samples.fetch_add(1, std::memory_order_relaxed);
  }
}

void SamplerLoop(int64_t interval_us) {
  Sampler& sampler = TheSampler();
  std::string key;
  key.reserve(256);
  while (!sampler.stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(interval_us));
    SampleOnce(&key);
  }
}

// Start/stop serialization. The std::thread handle lives here, not in
// Sampler, so the sampler loop itself never touches the control lock.
struct SamplerControl {
  Mutex mutex;
  bool running LEOSIM_GUARDED_BY(mutex) = false;
  std::thread thread LEOSIM_GUARDED_BY(mutex);
};

SamplerControl& Control() {
  static SamplerControl* control = new SamplerControl();  // never destroyed
  return *control;
}

}  // namespace

void PushSpanFrame(std::string_view name) {
  const int32_t depth = t_depth++;
  ProfileStack* stack = ThreadStack();
  if (stack != nullptr) {
    if (depth < kMaxProfileDepth) {
      stack->frames[depth].store(InternName(name), std::memory_order_relaxed);
    }
    stack->depth.store(depth + 1, std::memory_order_release);
  }
}

void PopSpanFrame() {
  const int32_t depth = t_depth > 0 ? --t_depth : 0;
  ProfileStack* stack = ThreadStack();
  if (stack != nullptr) {
    stack->depth.store(depth, std::memory_order_release);
  }
}

}  // namespace detail

void StartProfiling(int64_t interval_us) {
  if (interval_us <= 0) {
    interval_us = kDefaultProfileIntervalUs;
  }
  detail::SamplerControl& control = detail::Control();
  const MutexLock lock(control.mutex);
  if (control.running) {
    return;
  }
  detail::TheSampler().stop.store(false, std::memory_order_release);
  detail::g_span_hook.store(true, std::memory_order_relaxed);
  control.thread = std::thread(detail::SamplerLoop, interval_us);
  control.running = true;
}

void StopProfiling() {
  detail::SamplerControl& control = detail::Control();
  const MutexLock lock(control.mutex);
  if (!control.running) {
    return;
  }
  detail::g_span_hook.store(false, std::memory_order_relaxed);
  detail::TheSampler().stop.store(true, std::memory_order_release);
  control.thread.join();
  control.running = false;
}

bool ProfilingActive() {
  detail::SamplerControl& control = detail::Control();
  const MutexLock lock(control.mutex);
  return control.running;
}

uint64_t ProfileSamplesTaken() {
  return detail::TheSampler().samples.load(std::memory_order_relaxed);
}

std::string CollapsedStacks() {
  std::string out;
  detail::Sampler& sampler = detail::TheSampler();
  const MutexLock lock(sampler.mutex);
  for (const auto& [stack, count] : sampler.counts) {
    out.append(stack);
    char tmp[32];
    std::snprintf(tmp, sizeof(tmp), " %llu\n",
                  static_cast<unsigned long long>(count));
    out.append(tmp);
  }
  return out;
}

void ResetProfile() {
  detail::Sampler& sampler = detail::TheSampler();
  const MutexLock lock(sampler.mutex);
  sampler.counts.clear();
  sampler.samples.store(0, std::memory_order_relaxed);
}

bool ValidateCollapsedStacks(std::string_view text, std::string* why) {
  const auto fail = [why](size_t line_no, const char* what) {
    if (why != nullptr) {
      char tmp[160];
      std::snprintf(tmp, sizeof(tmp), "line %zu: %s", line_no, what);
      *why = tmp;
    }
    return false;
  };
  if (text.empty()) {
    return true;  // zero samples is a valid profile
  }
  if (text.back() != '\n') {
    return fail(1 + std::count(text.begin(), text.end(), '\n'),
                "missing trailing newline");
  }
  std::string_view prev_stack;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    const size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos) {
      return fail(line_no, "no space between stack and count");
    }
    const std::string_view stack = line.substr(0, space);
    const std::string_view count = line.substr(space + 1);
    if (stack.empty()) {
      return fail(line_no, "empty stack");
    }
    bool frame_empty = true;
    for (const char c : stack) {
      if (c == ';') {
        if (frame_empty) {
          return fail(line_no, "empty frame");
        }
        frame_empty = true;
        continue;
      }
      const unsigned char u = static_cast<unsigned char>(c);
      if (u <= 0x20 || u > 0x7e) {
        return fail(line_no, "non-printable or space character in frame");
      }
      frame_empty = false;
    }
    if (frame_empty) {
      return fail(line_no, "empty frame");
    }
    if (count.empty() || count.front() == '0') {
      return fail(line_no, "count must be a positive decimal integer");
    }
    for (const char c : count) {
      if (c < '0' || c > '9') {
        return fail(line_no, "count must be a positive decimal integer");
      }
    }
    if (line_no > 1 && !(prev_stack < stack)) {
      return fail(line_no, "stacks not in strictly ascending order");
    }
    prev_stack = stack;
  }
  return true;
}

}  // namespace leosim::obs
