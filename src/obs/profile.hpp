// In-process profiling for the span pipeline: a background sampling
// profiler over the live Span stacks.
//
// Span-stack sampling
//   While the sampler runs, Span construction pushes its name onto a
//   per-thread lock-free stack (fixed depth, atomic slots) and pop it on
//   destruction. A background sampler thread started by StartProfiling
//   wakes at a configurable interval, walks every registered thread's
//   live stack, and increments a count for the collapsed stack it saw
//   ("parallel.worker;snapshot.build"). CollapsedStacks() exports the
//   counts as standard collapsed-stack text — one "frame;frame;... N"
//   line per distinct stack — which flamegraph.pl and speedscope ingest
//   directly.
//
// Cost model: with the sampler off (the default), the Span-side check is
// one relaxed atomic load and a branch — no push, no interning, no
// clock. With it on, a push is an intern-cache probe plus two
// relaxed stores and one release store; the sampler's walk costs the
// workers nothing (it reads their stacks through atomics).
//
// Sampling is statistical by construction: counts depend on scheduling
// and are NOT deterministic across runs. The export is still stable for
// a given set of counts (sorted by stack), and ValidateCollapsedStacks
// is the strict in-tree format checker used by tests and CI.
//
// Thread lifecycle: stacks are pooled. A thread's stack returns to a
// free pool at thread exit and is handed to the next new thread, so
// studies that spawn ParallelFor workers per run do not grow the
// registry without bound (the sampler's registry walk stays O(live
// threads)).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace leosim::obs {

// Frames beyond this depth are counted but not recorded (the stack
// stays balanced; the sampler sees a truncated stack).
inline constexpr int kMaxProfileDepth = 64;
// Concurrent threads beyond this many are not sampled. Pooling keeps
// the slot count at the peak concurrent thread count, not the
// historical total.
inline constexpr int kMaxProfileThreads = 256;
inline constexpr int64_t kDefaultProfileIntervalUs = 1000;  // 1 kHz

namespace detail {
// Set while the sampler runs: Span then pushes and pops its frame. Span
// reads this once (relaxed) per construction.
extern std::atomic<bool> g_span_hook;

void PushSpanFrame(std::string_view name);
void PopSpanFrame();
}  // namespace detail

// The single relaxed load that gates the Span-side hook.
inline bool SpanHookEnabled() {
  return detail::g_span_hook.load(std::memory_order_relaxed);
}

// --- Sampling profiler -------------------------------------------------

// Starts the background sampler at `interval_us` microseconds between
// samples; interval_us <= 0 means kDefaultProfileIntervalUs. No-op if
// already running.
void StartProfiling(int64_t interval_us = 0);
// Stops and joins the sampler (counts are kept until ResetProfile).
// No-op if not running.
void StopProfiling();
bool ProfilingActive();

// Samples taken that observed at least one non-empty stack.
uint64_t ProfileSamplesTaken();

// Collapsed-stack text: one "frame;frame;... COUNT\n" line per distinct
// sampled stack, sorted by stack so output is diff-stable. Empty string
// when nothing was sampled.
std::string CollapsedStacks();

// Discards sampled counts and the samples-taken total.
void ResetProfile();

// Strict format check for collapsed-stack text: every line is
// `stack SPACE count` where stack is one or more ';'-separated frames of
// printable non-space non-semicolon characters and count is a positive
// decimal integer; lines are strictly ascending by stack (sorted, no
// duplicates). The empty string is valid (zero samples). On failure
// returns false and, when `why` is non-null, describes the first
// offence.
bool ValidateCollapsedStacks(std::string_view text, std::string* why);

}  // namespace leosim::obs
