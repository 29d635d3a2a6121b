// Emulation-grade network-state trace recorder.
//
// Downstream consumers in the Celestial mold drive real network stacks
// from per-interval topology traces: which nodes exist, which links
// exist, what each link's delay and capacity are, and how routes churn
// as the constellation moves. The recorder captures exactly that from
// the snapshots the studies already build:
//
//   netstate.jsonl  — `leosim.netstate/1`: one JSON object per captured
//     slot with every node (kind + ECEF position) and every enabled
//     link (endpoints, one-way delay in ms, capacity in Gbps, type).
//   netevents.jsonl — `leosim.netevents/1`: one JSON object per slot
//     with the *delta* against the previous captured slot — link_up /
//     link_down / weight events plus the study-level route_change /
//     reachable / unreachable / handover events. Only link_up/link_down
//     scale with churn: almost every link's delay changes between slots,
//     so netevents carries a weight event for nearly every link in every
//     slot, and its size is O(slots × edges) like netstate's. ROADMAP
//     item "Trace streams sized by churn" plans the schema /2 that drops
//     the derivable weights.
//
// Replay invariant: applying each slot's event batch (plus its moving
// sat_ecef / air_ecef arrays) to the previous slot's state reproduces
// that slot's full netstate line bit-identically. ValidateReplay()
// proves it in-process against the stored full captures (so a missed
// diff is a hard failure, not a self-consistent lie), and
// tools/trace_check.py proves it again from the files alone.
//
// Concurrency contract: SetTimeline() preallocates one slot record per
// sweep slot; CaptureSlot() writes only its own slot's record, so the
// parallel sweep bodies may capture distinct slots concurrently with no
// locking. The Add*Event() calls, the serializers, WriteTo() and
// ValidateReplay() are serial-only — studies emit events from their
// order-sensitive serial diff passes, which is also what makes the
// event order deterministic. The serializers, WriteTo() and
// ValidateReplay() encode and check slots on core::ParallelForWorkers
// workers internally (LEOSIM_THREADS sets how many); their output does
// not depend on the worker count. Each worker encodes the slots it
// claims into its own buffer and hands them to the output in slot
// order, so the output's writes run on the workers, one slot at a time
// and in slot order, while the other workers keep encoding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/network_builder.hpp"
#include "geo/vec3.hpp"

namespace leosim::core {

class NetTraceRecorder {
 public:
  // One enabled link, endpoint-normalized so a < b.
  struct Link {
    int32_t a{0};
    int32_t b{0};
    double delay_ms{0.0};
    double capacity_gbps{0.0};
  };

  // A study-level event attached to a slot, serialized in Add order.
  struct StudyEvent {
    enum class Kind { kRouteChange, kReachable, kUnreachable, kHandover };
    Kind kind{Kind::kRouteChange};
    int pair{0};
    double rtt_ms{0.0};
    std::vector<int32_t> nodes;   // route_change: sorted path node set;
                                  // handover: lost satellite ids
    std::vector<int32_t> nodes2;  // handover: gained satellite ids
  };

  struct SlotRecord {
    bool captured{false};
    double time_sec{0.0};
    int num_sats{0};
    int num_cities{0};
    int num_relays{0};
    int num_aircraft{0};
    std::vector<geo::Vec3> node_ecef;
    std::vector<Link> radio_links;  // sorted by (a, b)
    std::vector<Link> isl_links;    // sorted by (a, b)
    std::vector<StudyEvent> events;
  };

  static NetTraceRecorder& Global();

  bool Enabled() const;
  void Enable(bool enabled);

  // Declares the sweep's slot → time mapping and preallocates the slot
  // records. First caller wins for the recorder's lifetime (until
  // Reset()): a CLI run that executes nested studies traces the first
  // timeline it sees and ignores the rest, rather than mixing slot
  // numberings from two sweeps in one file.
  void SetTimeline(const std::vector<double>& times_sec);

  int NumSlots() const;

  // Records slot `slot`'s full network state. Safe to call from
  // parallel sweep workers as long as no two workers capture the same
  // slot. Disabled edges are skipped (the capture is "what the network
  // can carry right now"). Out-of-range slots and captures before
  // SetTimeline are counted as drops, not errors.
  void CaptureSlot(int slot, double time_sec,
                   const NetworkModel::Snapshot& snapshot);

  // Study-level events (serial-only; see the concurrency contract).
  void AddRouteChange(int slot, int pair, double rtt_ms,
                      std::vector<int32_t> sorted_path_nodes);
  void AddReachable(int slot, int pair, double rtt_ms);
  void AddUnreachable(int slot, int pair);
  void AddHandover(int slot, std::vector<int32_t> lost,
                   std::vector<int32_t> gained);

  // Serializers (serial-only). One JSON object per line, '\n'-separated.
  // WriteTo() writes these same bytes.
  std::string NetStateJsonl() const;
  std::string NetEventsJsonl() const;

  // Writes netstate.jsonl and netevents.jsonl into `dir` (created if
  // missing). The workers that encode the slots write them, in slot
  // order, and at most one slot per worker is held at once, so neither
  // stream is ever held whole. Adds the events written to
  // `nettrace.events_emitted`. Returns false on I/O failure, including
  // one that surfaces only when a file is closed. Throws what encoding
  // throws (a std::logic_error when netevents/1 cannot describe a slot)
  // once every worker has stopped.
  bool WriteTo(const std::string& dir) const;

  // Replays the event stream over the first captured slot's state and
  // compares the result against every subsequent full capture, field by
  // field with bit-exact doubles. Returns false (and fills `why`) on the
  // first divergence: a gap in the captures, ground nodes that move, an
  // event that does not apply, or a replayed state unequal to the
  // capture. Vacuously true with fewer than two captures.
  bool ValidateReplay(std::string* why) const;

  // Drops the timeline, every capture, and every event; keeps the
  // enabled flag. Serial-only.
  void Reset();

  // Test accessor.
  const SlotRecord& Slot(int slot) const;

 private:
  NetTraceRecorder() = default;
};

}  // namespace leosim::core
