// Single source of truth for every versioned export schema identifier.
//
// Each machine-readable artifact the tree emits carries a
// "leosim.<kind>/<version>" schema string so downstream tooling
// (tools/obs_report.py, tools/trace_check.py, external consumers) can
// dispatch on shape without sniffing. The identifiers live here — and
// only here — so a version bump is one diff line and the lint rule
// `schema-header` (tools/leosim_lint.py) can enforce that no other
// source file mints its own "leosim.*/N" literal.
//
// Bump a version when the emitted shape changes incompatibly; additive
// fields keep the version (consumers must ignore unknown keys).
#pragma once

namespace leosim::obs {

// Per-snapshot study timeseries (obs/timeseries.hpp).
inline constexpr const char kTimeseriesSchema[] = "leosim.timeseries/1";

// Per-slot full network state trace, one JSON object per line
// (core/net_trace.hpp).
inline constexpr const char kNetStateSchema[] = "leosim.netstate/1";

// Incremental network event stream, one JSON object per line
// (core/net_trace.hpp).
inline constexpr const char kNetEventsSchema[] = "leosim.netevents/1";

}  // namespace leosim::obs
