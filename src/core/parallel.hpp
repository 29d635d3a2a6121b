// Minimal parallel-for over independent work items (snapshots are
// embarrassingly parallel: each builds its own graph and routes its own
// pairs). Used by the latency study; harmless with 1 thread.
#pragma once

#include <functional>

namespace leosim::core {

// Worker-count resolution, shared by both entry points below: the
// LEOSIM_THREADS environment variable when set to an integer in
// [1, 1024], else (unset, empty or "0") hardware concurrency, and never
// more workers than `count`. Any other value throws
// std::invalid_argument naming it, before any worker starts. It is the
// only environment setting leosim reads and the only thread setting; it
// is re-read at the start of every run (from the launching thread,
// before workers spawn), so a process can vary it between runs — the
// determinism tests rely on this.
//
// Exception semantics: the first exception captured from any worker is
// rethrown to the caller after all workers have joined. Capturing an
// exception also raises a shared stop flag, so iterations that have not
// yet been claimed by a worker are skipped rather than drained —
// callers must not assume every index ran when ParallelFor throws.
// Iterations already in flight on other workers still run to
// completion; at most one additional iteration per worker may start
// after the failure due to the relaxed flag check.

// Invokes body(0..count-1) across the resolved number of worker threads.
// The body must be thread-safe for distinct indices. `count <= 0` is a
// no-op.
void ParallelFor(int count, const std::function<void(int)>& body);

// The worker count ParallelFor would resolve for unbounded work (i.e.
// LEOSIM_THREADS or hardware concurrency); throws like ParallelFor on a
// bad LEOSIM_THREADS.
// Exposed so bench records can note the effective parallelism.
int DefaultWorkerCount();

// As ParallelFor, additionally passing the worker's index (0..workers-1)
// so the body can keep per-worker scratch state (e.g. snapshot/Dijkstra
// workspaces) alive across the iterations that worker claims. Worker
// indices are dense; the worker count is capped at `count`.
void ParallelForWorkers(int count,
                        const std::function<void(int worker, int index)>& body);

}  // namespace leosim::core
