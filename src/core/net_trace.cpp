#include "core/net_trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/mutex.hpp"
#include "core/parallel.hpp"
#include "core/thread_annotations.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/schemas.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

using Link = NetTraceRecorder::Link;
using SlotRecord = NetTraceRecorder::SlotRecord;
using StudyEvent = NetTraceRecorder::StudyEvent;
using obs::AppendInt;
using obs::AppendJsonNumber;

// Recorder state, owned file-locally so the header stays a pure
// interface. Never destroyed: sweep workers may capture past static
// destruction order, same as the obs recorders.
struct RecorderState {
  std::atomic<bool> enabled{false};
  // Published once SetTimeline has sized `slots`; CaptureSlot reads it
  // with acquire so the vector is fully constructed before any worker
  // indexes into it lock-free.
  std::atomic<int> num_slots{0};
  Mutex mutex;
  bool timeline_set LEOSIM_GUARDED_BY(mutex) = false;
  std::vector<SlotRecord> slots;
};

RecorderState& State() {
  static RecorderState* state = new RecorderState();
  return *state;
}

obs::Counter& SlotsCapturedCounter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Global().GetCounter("nettrace.slots_captured");
  return *counter;
}

obs::Counter& CapturesDroppedCounter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Global().GetCounter("nettrace.captures_dropped");
  return *counter;
}

obs::Counter& EventsEmittedCounter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Global().GetCounter("nettrace.events_emitted");
  return *counter;
}

bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool BitsEqual(const geo::Vec3& a, const geo::Vec3& b) {
  return BitsEqual(a.x, b.x) && BitsEqual(a.y, b.y) && BitsEqual(a.z, b.z);
}

void AppendVec3Array(std::string* out, const geo::Vec3* begin, size_t count) {
  out->push_back('[');
  for (size_t i = 0; i < count; ++i) {
    if (i != 0) {
      out->push_back(',');
    }
    out->push_back('[');
    AppendJsonNumber(out, begin[i].x);
    out->push_back(',');
    AppendJsonNumber(out, begin[i].y);
    out->push_back(',');
    AppendJsonNumber(out, begin[i].z);
    out->push_back(']');
  }
  out->push_back(']');
}

void AppendIntArray(std::string* out, const std::vector<int32_t>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      out->push_back(',');
    }
    AppendInt(out, values[i]);
  }
  out->push_back(']');
}

void AppendLink(std::string* out, const Link& link, const char* type) {
  out->push_back('[');
  AppendInt(out, link.a);
  out->push_back(',');
  AppendInt(out, link.b);
  out->push_back(',');
  AppendJsonNumber(out, link.delay_ms);
  out->push_back(',');
  AppendJsonNumber(out, link.capacity_gbps);
  out->append(",\"");
  out->append(type);
  out->append("\"]");
}

void AppendStudyEvent(std::string* out, const StudyEvent& event) {
  switch (event.kind) {
    case StudyEvent::Kind::kRouteChange:
      out->append("[\"route_change\",");
      AppendInt(out, event.pair);
      out->push_back(',');
      AppendJsonNumber(out, event.rtt_ms);
      out->push_back(',');
      AppendIntArray(out, event.nodes);
      out->push_back(']');
      break;
    case StudyEvent::Kind::kReachable:
      out->append("[\"reachable\",");
      AppendInt(out, event.pair);
      out->push_back(',');
      AppendJsonNumber(out, event.rtt_ms);
      out->push_back(']');
      break;
    case StudyEvent::Kind::kUnreachable:
      out->append("[\"unreachable\",");
      AppendInt(out, event.pair);
      out->push_back(']');
      break;
    case StudyEvent::Kind::kHandover:
      out->append("[\"handover\",");
      AppendIntArray(out, event.nodes);
      out->push_back(',');
      AppendIntArray(out, event.nodes2);
      out->push_back(']');
      break;
  }
}

// One link-level delta between two consecutive captured slots, split by
// type so the replayer can maintain the radio and ISL sections
// independently.
struct LinkDiff {
  std::vector<Link> radio_down;
  std::vector<Link> radio_up;
  std::vector<Link> radio_weight;
  std::vector<Link> isl_down;
  std::vector<Link> isl_up;
  std::vector<Link> isl_weight;

  size_t Total() const {
    return radio_down.size() + radio_up.size() + radio_weight.size() +
           isl_down.size() + isl_up.size() + isl_weight.size();
  }
  void Clear() {
    radio_down.clear();
    radio_up.clear();
    radio_weight.clear();
    isl_down.clear();
    isl_up.clear();
    isl_weight.clear();
  }
};

// Merge-walks two (a, b)-sorted link lists. A capacity change is a
// down+up (the link was replaced, not retuned); a delay-only change is
// a weight event. Comparisons are bit-exact so the diff stream carries
// exactly the information the replay invariant needs.
void DiffLinks(const std::vector<Link>& prev, const std::vector<Link>& cur,
               std::vector<Link>* down, std::vector<Link>* up,
               std::vector<Link>* weight) {
  size_t i = 0;
  size_t j = 0;
  while (i < prev.size() || j < cur.size()) {
    const bool take_prev =
        j == cur.size() ||
        (i < prev.size() &&
         std::pair(prev[i].a, prev[i].b) < std::pair(cur[j].a, cur[j].b));
    const bool take_cur =
        i == prev.size() ||
        (j < cur.size() &&
         std::pair(cur[j].a, cur[j].b) < std::pair(prev[i].a, prev[i].b));
    if (take_prev) {
      down->push_back(prev[i]);
      ++i;
    } else if (take_cur) {
      up->push_back(cur[j]);
      ++j;
    } else {
      if (!BitsEqual(prev[i].capacity_gbps, cur[j].capacity_gbps)) {
        down->push_back(prev[i]);
        up->push_back(cur[j]);
      } else if (!BitsEqual(prev[i].delay_ms, cur[j].delay_ms)) {
        weight->push_back(cur[j]);
      }
      ++i;
      ++j;
    }
  }
}

// Fills `diff` (cleared first, so callers can reuse its capacity).
void ComputeDiff(const SlotRecord& prev, const SlotRecord& cur,
                 LinkDiff* diff) {
  const obs::Span span("trace.diff");
  diff->Clear();
  DiffLinks(prev.radio_links, cur.radio_links, &diff->radio_down,
            &diff->radio_up, &diff->radio_weight);
  DiffLinks(prev.isl_links, cur.isl_links, &diff->isl_down, &diff->isl_up,
            &diff->isl_weight);
}

// The netevents stream only re-sends satellite and aircraft positions;
// cities and relays are declared static in slot 0's keyframe. A model
// change that starts moving them must bump the schema, and this check
// turns that omission into a hard error instead of a silently
// unreplayable trace.
void CheckStaticGroundNodes(const SlotRecord& prev, const SlotRecord& cur) {
  if (prev.num_cities != cur.num_cities || prev.num_relays != cur.num_relays) {
    throw std::logic_error(
        "netevents/1 assumes a fixed city/relay count across slots");
  }
  const size_t prev_base = static_cast<size_t>(prev.num_sats);
  const size_t cur_base = static_cast<size_t>(cur.num_sats);
  const size_t ground = static_cast<size_t>(cur.num_cities + cur.num_relays);
  for (size_t i = 0; i < ground; ++i) {
    if (!BitsEqual(prev.node_ecef[prev_base + i], cur.node_ecef[cur_base + i])) {
      throw std::logic_error(
          "netevents/1 assumes static city/relay positions across slots");
    }
  }
}

// Applies one slot's delta to `links` and writes the result to `out`, in
// one merge walk over the four (a, b)-sorted lists. The result is in the
// (a, b) order a fresh capture would produce. A link both downed and
// upped (a capacity change) is replaced in place; weight events apply to
// the links the downs and ups leave.
void ApplyDiff(const std::vector<Link>& links, const std::vector<Link>& down,
               const std::vector<Link>& up, const std::vector<Link>& weight,
               std::vector<Link>* out) {
  const auto key = [](const Link& x) { return std::pair(x.a, x.b); };
  out->clear();
  size_t d = 0;
  size_t u = 0;
  size_t w = 0;
  const auto emit = [&](Link link) {
    if (w < weight.size() && key(weight[w]) < key(link)) {
      throw std::logic_error("replay: weight event for a link that is not up");
    }
    if (w < weight.size() && key(weight[w]) == key(link)) {
      link.delay_ms = weight[w].delay_ms;
      ++w;
    }
    out->push_back(link);
  };
  for (const Link& link : links) {
    while (u < up.size() && key(up[u]) < key(link)) {
      emit(up[u++]);
    }
    if (d < down.size() && key(down[d]) < key(link)) {
      throw std::logic_error("replay: link_down for a link that is not up");
    }
    if (d < down.size() && key(down[d]) == key(link)) {
      ++d;
      continue;  // an up with the same key, if any, is emitted next
    }
    if (u < up.size() && key(up[u]) == key(link)) {
      throw std::logic_error("replay: link_up for a link that is already up");
    }
    emit(link);
  }
  if (d < down.size()) {
    throw std::logic_error("replay: link_down for a link that is not up");
  }
  while (u < up.size()) {
    emit(up[u++]);
  }
  if (w < weight.size()) {
    throw std::logic_error("replay: weight event for a link that is not up");
  }
}

std::string DescribeMismatch(int slot, const char* what) {
  std::string out = "slot ";
  AppendInt(&out, slot);
  out.append(": replayed ");
  out.append(what);
  out.append(" diverges from the stored capture");
  return out;
}

// Appends slot `slot`'s netstate line: every node and every enabled link
// of the captured state.
void EncodeNetState(const SlotRecord& record, int slot, std::string* out) {
  out->append("{\"schema\":\"");
  out->append(obs::kNetStateSchema);
  out->append("\",\"slot\":");
  AppendInt(out, slot);
  out->append(",\"t\":");
  AppendJsonNumber(out, record.time_sec);
  out->append(",\"counts\":[");
  AppendInt(out, record.num_sats);
  out->push_back(',');
  AppendInt(out, record.num_cities);
  out->push_back(',');
  AppendInt(out, record.num_relays);
  out->push_back(',');
  AppendInt(out, record.num_aircraft);
  out->append("],\"nodes\":[");
  for (size_t n = 0; n < record.node_ecef.size(); ++n) {
    if (n != 0) {
      out->push_back(',');
    }
    const int i = static_cast<int>(n);
    const char* kind = i < record.num_sats ? "sat"
                       : i < record.num_sats + record.num_cities
                           ? "city"
                       : i < record.num_sats + record.num_cities +
                                 record.num_relays
                           ? "relay"
                           : "air";
    out->append("[\"");
    out->append(kind);
    out->append("\",");
    AppendJsonNumber(out, record.node_ecef[n].x);
    out->push_back(',');
    AppendJsonNumber(out, record.node_ecef[n].y);
    out->push_back(',');
    AppendJsonNumber(out, record.node_ecef[n].z);
    out->push_back(']');
  }
  out->append("],\"links\":[");
  bool first = true;
  for (const Link& link : record.radio_links) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendLink(out, link, "radio");
  }
  for (const Link& link : record.isl_links) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendLink(out, link, "isl");
  }
  out->append("]}\n");
}

// Appends slot `slot`'s netevents line: the delta against the previous
// captured slot plus the slot's study events. Returns the number of
// events written. `diff` is caller scratch.
uint64_t EncodeNetEvents(const std::vector<SlotRecord>& slots, int slot,
                         LinkDiff* diff, std::string* out) {
  const SlotRecord& record = slots[static_cast<size_t>(slot)];
  out->append("{\"schema\":\"");
  out->append(obs::kNetEventsSchema);
  out->append("\",\"slot\":");
  AppendInt(out, slot);
  out->append(",\"t\":");
  AppendJsonNumber(out, record.time_sec);
  const bool has_delta = slot > 0 && record.captured &&
                         slots[static_cast<size_t>(slot - 1)].captured;
  diff->Clear();
  if (has_delta) {
    const SlotRecord& prev = slots[static_cast<size_t>(slot - 1)];
    CheckStaticGroundNodes(prev, record);
    ComputeDiff(prev, record, diff);
    out->append(",\"sat_ecef\":");
    AppendVec3Array(out, record.node_ecef.data(),
                    static_cast<size_t>(record.num_sats));
    out->append(",\"air_ecef\":");
    AppendVec3Array(out,
                    record.node_ecef.data() + record.num_sats +
                        record.num_cities + record.num_relays,
                    static_cast<size_t>(record.num_aircraft));
  }
  out->append(",\"events\":[");
  bool first = true;
  const auto emit_links = [&](const std::vector<Link>& links, const char* name,
                              const char* type, bool with_attrs) {
    for (const Link& link : links) {
      if (!first) {
        out->push_back(',');
      }
      first = false;
      out->append("[\"");
      out->append(name);
      out->append("\",");
      AppendInt(out, link.a);
      out->push_back(',');
      AppendInt(out, link.b);
      if (with_attrs) {
        out->push_back(',');
        AppendJsonNumber(out, link.delay_ms);
        out->push_back(',');
        AppendJsonNumber(out, link.capacity_gbps);
        out->append(",\"");
        out->append(type);
        out->push_back('"');
      }
      out->push_back(']');
    }
  };
  // Deterministic order: downs, then ups, then weight changes — radio
  // before ISL within each class, each list (a, b)-sorted. Study
  // events follow in the order the serial study passes added them.
  emit_links(diff->radio_down, "link_down", "radio", false);
  emit_links(diff->isl_down, "link_down", "isl", false);
  emit_links(diff->radio_up, "link_up", "radio", true);
  emit_links(diff->isl_up, "link_up", "isl", true);
  const auto emit_weights = [&](const std::vector<Link>& links) {
    for (const Link& link : links) {
      if (!first) {
        out->push_back(',');
      }
      first = false;
      out->append("[\"weight\",");
      AppendInt(out, link.a);
      out->push_back(',');
      AppendInt(out, link.b);
      out->push_back(',');
      AppendJsonNumber(out, link.delay_ms);
      out->push_back(']');
    }
  };
  emit_weights(diff->radio_weight);
  emit_weights(diff->isl_weight);
  for (const StudyEvent& event : record.events) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendStudyEvent(out, event);
  }
  out->append("]}\n");
  return diff->Total() + record.events.size();
}

// One slot's encoded lines. Reused from window to window, so the
// buffers keep their capacity.
struct EncodedSlot {
  std::string netstate;
  std::string netevents;
  uint64_t events{0};
  LinkDiff diff;  // scratch
};

// Encodes every slot's lines on ParallelFor workers, one window of
// worker-count slots at a time, and hands them to `sink` serially in
// slot order. Only one window of lines is alive at once, so a sink that
// streams them out never holds a whole trace.
void EncodeSlots(bool netstate, bool netevents,
                 const std::function<void(const EncodedSlot&)>& sink) {
  const RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  if (num_slots == 0) {
    return;
  }
  const int window = std::min(DefaultWorkerCount(), num_slots);
  std::vector<EncodedSlot> lines(static_cast<size_t>(window));
  for (int begin = 0; begin < num_slots; begin += window) {
    const int count = std::min(window, num_slots - begin);
    ParallelFor(count, [&](int k) {
      const obs::Span span("trace.encode");
      const int slot = begin + k;
      const SlotRecord& record = state.slots[static_cast<size_t>(slot)];
      EncodedSlot& out = lines[static_cast<size_t>(k)];
      out.netstate.clear();
      out.netevents.clear();
      if (netstate && record.captured) {
        EncodeNetState(record, slot, &out.netstate);
      }
      if (netevents) {
        out.events =
            EncodeNetEvents(state.slots, slot, &out.diff, &out.netevents);
      }
    });
    for (int k = 0; k < count; ++k) {
      sink(lines[static_cast<size_t>(k)]);
    }
  }
}

// Per-worker scratch of ValidateReplay.
struct ReplayScratch {
  LinkDiff diff;
  SlotRecord replayed;
};

// Replays slot `slot` from the stored capture of slot - 1: applies their
// diff to a copy of that capture, exactly as a downstream replayer
// would, and compares the result with the stored capture of `slot`, bit
// for bit. Returns the mismatch text, or "" when they agree.
std::string ReplaySlot(const std::vector<SlotRecord>& slots, int slot,
                       ReplayScratch* scratch) {
  const obs::Span span("trace.validate");
  const SlotRecord& record = slots[static_cast<size_t>(slot)];
  if (!record.captured) {
    return DescribeMismatch(slot, "stream (gap in captured slots)");
  }
  const SlotRecord& prev = slots[static_cast<size_t>(slot - 1)];
  if (!prev.captured) {
    return {};  // slot - 1 fails as the gap
  }
  const LinkDiff& diff = scratch->diff;
  ComputeDiff(prev, record, &scratch->diff);
  SlotRecord& replayed = scratch->replayed;
  replayed.num_sats = prev.num_sats;
  replayed.num_cities = prev.num_cities;
  replayed.num_relays = prev.num_relays;
  replayed.num_aircraft = record.num_aircraft;
  replayed.node_ecef = prev.node_ecef;
  // Apply the delta: replace the moving node positions, merge the link
  // lists.
  try {
    CheckStaticGroundNodes(prev, record);
    replayed.node_ecef.resize(
        static_cast<size_t>(record.num_sats + record.num_cities +
                            record.num_relays + record.num_aircraft));
    std::copy_n(record.node_ecef.begin(), record.num_sats,
                replayed.node_ecef.begin());
    std::copy_n(record.node_ecef.begin() + record.num_sats +
                    record.num_cities + record.num_relays,
                record.num_aircraft,
                replayed.node_ecef.begin() + record.num_sats +
                    record.num_cities + record.num_relays);
    ApplyDiff(prev.radio_links, diff.radio_down, diff.radio_up,
              diff.radio_weight, &replayed.radio_links);
    ApplyDiff(prev.isl_links, diff.isl_down, diff.isl_up, diff.isl_weight,
              &replayed.isl_links);
  } catch (const std::logic_error& error) {
    return DescribeMismatch(slot, error.what());
  }
  // Compare the replayed state against the stored full capture, bit for
  // bit — this is the invariant trace_check.py re-proves from the files
  // alone.
  if (replayed.num_sats != record.num_sats ||
      replayed.num_cities != record.num_cities ||
      replayed.num_relays != record.num_relays ||
      replayed.num_aircraft != record.num_aircraft) {
    return DescribeMismatch(slot, "node counts");
  }
  if (replayed.node_ecef.size() != record.node_ecef.size()) {
    return DescribeMismatch(slot, "node array size");
  }
  for (size_t n = 0; n < record.node_ecef.size(); ++n) {
    if (!BitsEqual(replayed.node_ecef[n], record.node_ecef[n])) {
      return DescribeMismatch(slot, "node positions");
    }
  }
  const auto links_equal = [](const std::vector<Link>& x,
                              const std::vector<Link>& y) {
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].a != y[i].a || x[i].b != y[i].b ||
          !BitsEqual(x[i].delay_ms, y[i].delay_ms) ||
          !BitsEqual(x[i].capacity_gbps, y[i].capacity_gbps)) {
        return false;
      }
    }
    return true;
  };
  if (!links_equal(replayed.radio_links, record.radio_links)) {
    return DescribeMismatch(slot, "radio links");
  }
  if (!links_equal(replayed.isl_links, record.isl_links)) {
    return DescribeMismatch(slot, "isl links");
  }
  return {};
}

}  // namespace

NetTraceRecorder& NetTraceRecorder::Global() {
  static NetTraceRecorder* recorder = new NetTraceRecorder();
  return *recorder;
}

bool NetTraceRecorder::Enabled() const {
  return State().enabled.load(std::memory_order_relaxed);
}

void NetTraceRecorder::Enable(bool enabled) {
  State().enabled.store(enabled, std::memory_order_relaxed);
}

void NetTraceRecorder::SetTimeline(const std::vector<double>& times_sec) {
  RecorderState& state = State();
  const MutexLock lock(state.mutex);
  if (state.timeline_set) {
    return;  // first sweep wins; see the header contract
  }
  state.timeline_set = true;
  state.slots.assign(times_sec.size(), SlotRecord{});
  for (size_t i = 0; i < times_sec.size(); ++i) {
    state.slots[i].time_sec = times_sec[i];
  }
  state.num_slots.store(static_cast<int>(times_sec.size()),
                        std::memory_order_release);
}

int NetTraceRecorder::NumSlots() const {
  return State().num_slots.load(std::memory_order_acquire);
}

void NetTraceRecorder::CaptureSlot(int slot, double time_sec,
                                   const NetworkModel::Snapshot& snapshot) {
  RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  if (slot < 0 || slot >= num_slots) {
    CapturesDroppedCounter().Increment();
    return;
  }
  const obs::Span span("trace.capture");
  SlotRecord& record = state.slots[static_cast<size_t>(slot)];
  record.time_sec = time_sec;
  record.num_sats = snapshot.num_sats;
  record.num_cities = snapshot.num_cities;
  record.num_relays = snapshot.num_relays;
  record.num_aircraft = snapshot.num_aircraft;
  record.node_ecef = snapshot.node_ecef;
  record.radio_links.clear();
  record.isl_links.clear();
  const auto capture_edges = [&](const std::vector<graph::EdgeId>& ids,
                                 std::vector<Link>* out) {
    out->reserve(ids.size());
    for (const graph::EdgeId e : ids) {
      if (!snapshot.graph.IsEnabled(e)) {
        continue;
      }
      const graph::EdgeRecord& rec = snapshot.graph.Edge(e);
      Link link;
      link.a = std::min(rec.a, rec.b);
      link.b = std::max(rec.a, rec.b);
      link.delay_ms = rec.weight;
      link.capacity_gbps = rec.capacity;
      out->push_back(link);
    }
    std::sort(out->begin(), out->end(), [](const Link& x, const Link& y) {
      return std::pair(x.a, x.b) < std::pair(y.a, y.b);
    });
  };
  capture_edges(snapshot.radio_edges, &record.radio_links);
  capture_edges(snapshot.isl_edges, &record.isl_links);
  record.captured = true;
  SlotsCapturedCounter().Increment();
}

void NetTraceRecorder::AddRouteChange(int slot, int pair, double rtt_ms,
                                      std::vector<int32_t> sorted_path_nodes) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kRouteChange;
  event.pair = pair;
  event.rtt_ms = rtt_ms;
  event.nodes = std::move(sorted_path_nodes);
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

void NetTraceRecorder::AddReachable(int slot, int pair, double rtt_ms) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kReachable;
  event.pair = pair;
  event.rtt_ms = rtt_ms;
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

void NetTraceRecorder::AddUnreachable(int slot, int pair) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kUnreachable;
  event.pair = pair;
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

void NetTraceRecorder::AddHandover(int slot, std::vector<int32_t> lost,
                                   std::vector<int32_t> gained) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kHandover;
  event.nodes = std::move(lost);
  event.nodes2 = std::move(gained);
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

std::string NetTraceRecorder::NetStateJsonl() const {
  std::string out;
  EncodeSlots(true, false, [&out](const EncodedSlot& lines) {
    out.append(lines.netstate);
  });
  return out;
}

std::string NetTraceRecorder::NetEventsJsonl() const {
  std::string out;
  EncodeSlots(false, true, [&out](const EncodedSlot& lines) {
    out.append(lines.netevents);
  });
  return out;
}

bool NetTraceRecorder::WriteTo(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return false;
  }
  // The deleter only runs when encoding throws; the normal path checks
  // fclose below.
  const auto close = [](std::FILE* f) { std::fclose(f); };
  using File = std::unique_ptr<std::FILE, decltype(close)>;
  File netstate(std::fopen((dir + "/netstate.jsonl").c_str(), "w"), close);
  File netevents(std::fopen((dir + "/netevents.jsonl").c_str(), "w"), close);
  if (netstate == nullptr || netevents == nullptr) {
    return false;
  }
  const auto write = [](std::FILE* f, const std::string& body) {
    return std::fwrite(body.data(), 1, body.size(), f) == body.size();
  };
  uint64_t events = 0;
  bool written = true;
  EncodeSlots(true, true, [&](const EncodedSlot& lines) {
    const obs::Span span("trace.write");
    events += lines.events;
    written = written && write(netstate.get(), lines.netstate) &&
              write(netevents.get(), lines.netevents);
  });
  EventsEmittedCounter().Add(events);
  // A write error can first surface when fclose flushes the buffer.
  const bool netstate_closed = std::fclose(netstate.release()) == 0;
  const bool netevents_closed = std::fclose(netevents.release()) == 0;
  return written && netstate_closed && netevents_closed;
}

bool NetTraceRecorder::ValidateReplay(std::string* why) const {
  const RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  int first = 0;
  while (first < num_slots &&
         !state.slots[static_cast<size_t>(first)].captured) {
    ++first;
  }
  // Every slot after the first capture is replayed from its
  // predecessor's stored capture, independently and in parallel. This is
  // the sequential replay from `first` by induction: while slots up to
  // s - 1 reproduce their captures, the state replayed up to s - 1 is
  // the capture of s - 1. So the lowest failing slot is the one the
  // sequential replay stops at, with the same message.
  const int count = num_slots - first - 1;
  if (count <= 0) {
    return true;  // fewer than two captures: nothing to replay
  }
  std::vector<std::string> failures(static_cast<size_t>(count));
  std::vector<ReplayScratch> scratch(
      static_cast<size_t>(std::min(DefaultWorkerCount(), count)));
  ParallelForWorkers(count, [&](int worker, int k) {
    failures[static_cast<size_t>(k)] = ReplaySlot(
        state.slots, first + 1 + k, &scratch[static_cast<size_t>(worker)]);
  });
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      if (why != nullptr) {
        *why = failure;
      }
      return false;
    }
  }
  return true;
}

void NetTraceRecorder::Reset() {
  RecorderState& state = State();
  const MutexLock lock(state.mutex);
  state.num_slots.store(0, std::memory_order_release);
  state.slots.clear();
  state.timeline_set = false;
}

const NetTraceRecorder::SlotRecord& NetTraceRecorder::Slot(int slot) const {
  return State().slots.at(static_cast<size_t>(slot));
}

}  // namespace leosim::core
