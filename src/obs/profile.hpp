// The span profile: --profile-out's export of the Span clock
// (obs/trace.hpp), as exact self time per span stack.
//
// While profiling is on (StartProfiling .. StopProfiling), each Span also
// pushes its name onto a plain thread_local frame stack. When it closes,
// its self time — its duration less the durations of the spans it
// directly enclosed — is added to its stack, the joined frame path
// ("parallel.worker;snapshot.build"). The duration is the Span's own, so
// with tracing also on a span's self time comes from the same two clock
// reads as its trace event, and the stacks under a root span sum to that
// root's duration, in integer nanoseconds.
//
// Each thread sums into a map of its own and merges it into one global
// map under a mutex when its depth returns to 0. A stack therefore shows
// in CollapsedStacks() once its root span has closed, and no per-thread
// state outlives a joined ParallelFor worker.
//
// A Span latches the profile bit when it opens. One opened before
// StartProfiling is not a frame (the spans it opens while profiling are
// roots); one open at StopProfiling is popped, and counted, when it
// closes. Stacks stay balanced across any start or stop.
//
// Cost model: with profiling off, nothing beyond Span's one relaxed
// load. With it on, a push appends the sanitised name to the thread's
// path and a pop does one map update; a root's close also takes the
// global mutex once.
//
// CollapsedStacks() exports standard collapsed-stack text, one
// "frame;frame;... NANOSECONDS" line per stack, which flamegraph.pl and
// speedscope ingest directly. The nanoseconds vary from run to run; the
// set of stacks does not, for work that opens the same spans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace leosim::obs {

namespace detail {
// Called by Span on the calling thread while its latched mode has the
// profile bit.
void PushProfileFrame(std::string_view name);
void PopProfileFrame(int64_t duration_ns);
}  // namespace detail

// Turns the profile bit of the span mode on or off. Both are idempotent;
// the summed self times are kept until ResetProfile.
void StartProfiling();
void StopProfiling();

// Collapsed-stack text: one "frame;frame;... NANOSECONDS\n" line per
// stack with positive self time, sorted by stack so output is
// diff-stable. Frame names have ';', spaces, control and non-ASCII
// bytes replaced by '_'. Empty string when nothing was recorded.
std::string CollapsedStacks();

// Discards the merged self times.
void ResetProfile();

// Strict format check for collapsed-stack text: every line is
// `stack SPACE count` where stack is one or more ';'-separated frames of
// printable non-space non-semicolon characters and count is a positive
// decimal integer; lines are strictly ascending by stack (sorted, no
// duplicates). The empty string is valid (an empty profile). On failure
// returns false and, when `why` is non-null, describes the first
// offence.
bool ValidateCollapsedStacks(std::string_view text, std::string* why);

}  // namespace leosim::obs
