#include "core/net_trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
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

// One link list's delta between two consecutive captured slots, as
// indices: downs into the previous slot's (a, b)-sorted list, ups and
// weight changes into the current slot's. An encoder thus finds each
// event's link, and the text it formatted for it, without a search.
struct LinkDelta {
  std::vector<size_t> down;
  std::vector<size_t> up;
  std::vector<size_t> weight;

  size_t Total() const { return down.size() + up.size() + weight.size(); }
  void Clear() {
    down.clear();
    up.clear();
    weight.clear();
  }
};

// The delta split by type, so the replayer can maintain the radio and
// ISL sections independently.
struct LinkDiff {
  LinkDelta radio;
  LinkDelta isl;

  size_t Total() const { return radio.Total() + isl.Total(); }
  void Clear() {
    radio.Clear();
    isl.Clear();
  }
};

// Merge-walks two (a, b)-sorted link lists. A capacity change is a
// down+up (the link was replaced, not retuned); a delay-only change is
// a weight event. Comparisons are bit-exact so the diff stream carries
// exactly the information the replay invariant needs.
void DiffLinks(const std::vector<Link>& prev, const std::vector<Link>& cur,
               LinkDelta* delta) {
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
      delta->down.push_back(i);
      ++i;
    } else if (take_cur) {
      delta->up.push_back(j);
      ++j;
    } else {
      if (!BitsEqual(prev[i].capacity_gbps, cur[j].capacity_gbps)) {
        delta->down.push_back(i);
        delta->up.push_back(j);
      } else if (!BitsEqual(prev[i].delay_ms, cur[j].delay_ms)) {
        delta->weight.push_back(j);
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
  DiffLinks(prev.radio_links, cur.radio_links, &diff->radio);
  DiffLinks(prev.isl_links, cur.isl_links, &diff->isl);
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

// Applies one slot's delta to `prev` (the previous slot's links) and
// writes the result to `out`, in one merge walk over the four
// (a, b)-sorted lists. Ups and weights take their values from `cur`, as
// the events carry them. The result is in the (a, b) order a fresh
// capture would produce. A link both downed and upped (a capacity
// change) is replaced in place; weight events apply to the links the
// downs and ups leave.
void ApplyDiff(const std::vector<Link>& prev, const std::vector<Link>& cur,
               const LinkDelta& delta, std::vector<Link>* out) {
  const auto key = [](const Link& x) { return std::pair(x.a, x.b); };
  const auto down = [&](size_t d) -> const Link& { return prev[delta.down[d]]; };
  const auto up = [&](size_t u) -> const Link& { return cur[delta.up[u]]; };
  const auto weight = [&](size_t w) -> const Link& {
    return cur[delta.weight[w]];
  };
  out->clear();
  size_t d = 0;
  size_t u = 0;
  size_t w = 0;
  const auto emit = [&](Link link) {
    if (w < delta.weight.size() && key(weight(w)) < key(link)) {
      throw std::logic_error("replay: weight event for a link that is not up");
    }
    if (w < delta.weight.size() && key(weight(w)) == key(link)) {
      link.delay_ms = weight(w).delay_ms;
      ++w;
    }
    out->push_back(link);
  };
  for (const Link& link : prev) {
    while (u < delta.up.size() && key(up(u)) < key(link)) {
      emit(up(u++));
    }
    if (d < delta.down.size() && key(down(d)) < key(link)) {
      throw std::logic_error("replay: link_down for a link that is not up");
    }
    if (d < delta.down.size() && key(down(d)) == key(link)) {
      ++d;
      continue;  // an up with the same key, if any, is emitted next
    }
    if (u < delta.up.size() && key(up(u)) == key(link)) {
      throw std::logic_error("replay: link_up for a link that is already up");
    }
    emit(link);
  }
  if (d < delta.down.size()) {
    throw std::logic_error("replay: link_down for a link that is not up");
  }
  while (u < delta.up.size()) {
    emit(up(u++));
  }
  if (w < delta.weight.size()) {
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

// The text of the few capacity values a trace repeats (every study
// uses two: the radio and the ISL capacity), formatted once per encoder
// and export. Values past the first kSize distinct ones are formatted at
// each use.
class CapacityMemo {
 public:
  void Append(std::string* out, double value) {
    const uint64_t bits = std::bit_cast<uint64_t>(value);
    for (size_t i = 0; i < size_; ++i) {
      if (bits_[i] == bits) {
        out->append(text_[i]);
        return;
      }
    }
    if (size_ == kSize) {
      AppendJsonNumber(out, value);
      return;
    }
    bits_[size_] = bits;
    AppendJsonNumber(&text_[size_], value);
    out->append(text_[size_]);
    ++size_;
  }

 private:
  static constexpr size_t kSize = 4;
  size_t size_{0};
  std::array<uint64_t, kSize> bits_{};
  std::array<std::string, kSize> text_;
};

// A slot's ground nodes (cities, then relays) in node_ecef.
size_t GroundBegin(const SlotRecord& record) {
  return std::min(static_cast<size_t>(record.num_sats),
                  record.node_ecef.size());
}
size_t GroundEnd(const SlotRecord& record) {
  return std::min(static_cast<size_t>(record.num_sats + record.num_cities +
                                      record.num_relays),
                  record.node_ecef.size());
}

void AppendXyz(std::string* out, const geo::Vec3& p) {
  AppendJsonNumber(out, p.x);
  out->push_back(',');
  AppendJsonNumber(out, p.y);
  out->push_back(',');
  AppendJsonNumber(out, p.z);
}

// The netstate text of a slot's city and relay nodes. The studies keep
// them static, so the text is formatted once per encoder and export and
// reused while the positions, and the city/relay split, stay bit-equal
// to those it was formatted from.
class GroundText {
 public:
  const std::string& For(const SlotRecord& record) {
    const geo::Vec3* begin = record.node_ecef.data() + GroundBegin(record);
    const size_t count = GroundEnd(record) - GroundBegin(record);
    if (num_cities_ == record.num_cities && ecef_.size() == count &&
        std::equal(ecef_.begin(), ecef_.end(), begin,
                   [](const geo::Vec3& a, const geo::Vec3& b) {
                     return BitsEqual(a, b);
                   })) {
      return text_;
    }
    num_cities_ = record.num_cities;
    ecef_.assign(begin, begin + count);
    text_.clear();
    for (size_t i = 0; i < count; ++i) {
      if (i != 0) {
        text_.push_back(',');
      }
      text_.append(static_cast<int>(i) < record.num_cities ? "[\"city\","
                                                           : "[\"relay\",");
      AppendXyz(&text_, ecef_[i]);
      text_.push_back(']');
    }
    return text_;
  }

 private:
  int num_cities_{-1};
  std::vector<geo::Vec3> ecef_;
  std::string text_;
};

// Where a link's formatted fields sit in SlotEncoder's link text:
// `a,b,delay` is [begin, delay_end), `a,b,delay,capacity` [begin, end).
struct LinkSpan {
  size_t begin{0};
  size_t delay_end{0};
  size_t end{0};
};

// One worker's encoder. For each slot it formats every number the two
// streams share once — a moving node's x,y,z, a link's delay and
// capacity — and both lines copy that text. Holds one slot's lines at a
// time; the capacity memo and the ground text live for the export.
class SlotEncoder {
 public:
  // Encodes slot `slot`'s lines of the streams asked for, replacing the
  // previous slot's. Throws std::logic_error when netevents/1 cannot
  // describe the slot (see CheckStaticGroundNodes).
  void Encode(const std::vector<SlotRecord>& slots, int slot, bool netstate,
              bool netevents) {
    const SlotRecord& record = slots[static_cast<size_t>(slot)];
    netstate_.clear();
    netevents_.clear();
    events_ = 0;
    link_text_.clear();
    link_spans_.resize(record.radio_links.size() + record.isl_links.size());
    const bool state_line = netstate && record.captured;
    if (state_line) {
      FormatMovingNodes(record);
      for (size_t i = 0; i < link_spans_.size(); ++i) {
        FormatLink(record, i);
      }
      EncodeNetState(record, slot);
    }
    if (!netevents) {
      return;
    }
    diff_.Clear();
    const bool has_delta = slot > 0 && record.captured &&
                           slots[static_cast<size_t>(slot - 1)].captured;
    if (has_delta) {
      const SlotRecord& prev = slots[static_cast<size_t>(slot - 1)];
      CheckStaticGroundNodes(prev, record);
      ComputeDiff(prev, record, &diff_);
      if (!state_line) {  // alone, netevents formats only what it writes
        FormatMovingNodes(record);
        const size_t num_radio = record.radio_links.size();
        for (const size_t i : diff_.radio.up) {
          FormatLink(record, i);
        }
        for (const size_t i : diff_.radio.weight) {
          FormatLink(record, i);
        }
        for (const size_t i : diff_.isl.up) {
          FormatLink(record, num_radio + i);
        }
        for (const size_t i : diff_.isl.weight) {
          FormatLink(record, num_radio + i);
        }
      }
    }
    EncodeNetEvents(slots, slot, has_delta);
  }

  const std::string& netstate() const { return netstate_; }
  const std::string& netevents() const { return netevents_; }
  uint64_t events() const { return events_; }

 private:
  // The `x,y,z` of moving node m: satellites first, then the nodes past
  // the ground block (the aircraft).
  std::string_view Xyz(size_t m) const {
    const size_t begin = m == 0 ? 0 : node_end_[m - 1];
    return std::string_view(node_text_).substr(begin, node_end_[m] - begin);
  }

  std::string_view LinkFields(size_t index, bool with_capacity) const {
    const LinkSpan& span = link_spans_[index];
    return std::string_view(link_text_)
        .substr(span.begin,
                (with_capacity ? span.end : span.delay_end) - span.begin);
  }

  void FormatMovingNodes(const SlotRecord& record) {
    node_text_.clear();
    node_end_.clear();
    const auto format = [&](size_t begin, size_t end) {
      for (size_t n = begin; n < end; ++n) {
        AppendXyz(&node_text_, record.node_ecef[n]);
        node_end_.push_back(node_text_.size());
      }
    };
    format(0, GroundBegin(record));
    format(GroundEnd(record), record.node_ecef.size());
  }

  // Formats link `index` of the slot's radio links followed by its ISLs.
  void FormatLink(const SlotRecord& record, size_t index) {
    const size_t num_radio = record.radio_links.size();
    const Link& link = index < num_radio
                           ? record.radio_links[index]
                           : record.isl_links[index - num_radio];
    LinkSpan& span = link_spans_[index];
    span.begin = link_text_.size();
    AppendInt(&link_text_, link.a);
    link_text_.push_back(',');
    AppendInt(&link_text_, link.b);
    link_text_.push_back(',');
    AppendJsonNumber(&link_text_, link.delay_ms);
    span.delay_end = link_text_.size();
    link_text_.push_back(',');
    capacities_.Append(&link_text_, link.capacity_gbps);
    span.end = link_text_.size();
  }

  // Slot `slot`'s netstate line: every node and every enabled link of the
  // captured state.
  void EncodeNetState(const SlotRecord& record, int slot) {
    std::string* out = &netstate_;
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
    bool first = true;
    const auto separate = [&] {
      if (!first) {
        out->push_back(',');
      }
      first = false;
    };
    const size_t num_sats = GroundBegin(record);
    for (size_t m = 0; m < num_sats; ++m) {
      separate();
      out->append("[\"sat\",");
      out->append(Xyz(m));
      out->push_back(']');
    }
    if (GroundEnd(record) > num_sats) {
      separate();
      out->append(ground_.For(record));
    }
    for (size_t m = num_sats; m < node_end_.size(); ++m) {
      separate();
      out->append("[\"air\",");
      out->append(Xyz(m));
      out->push_back(']');
    }
    out->append("],\"links\":[");
    first = true;
    const size_t num_radio = record.radio_links.size();
    for (size_t i = 0; i < link_spans_.size(); ++i) {
      separate();
      out->push_back('[');
      out->append(LinkFields(i, true));
      out->append(i < num_radio ? ",\"radio\"]" : ",\"isl\"]");
    }
    out->append("]}\n");
  }

  // Slot `slot`'s netevents line: the delta against the previous
  // captured slot plus the slot's study events.
  void EncodeNetEvents(const std::vector<SlotRecord>& slots, int slot,
                       bool has_delta) {
    const SlotRecord& record = slots[static_cast<size_t>(slot)];
    std::string* out = &netevents_;
    out->append("{\"schema\":\"");
    out->append(obs::kNetEventsSchema);
    out->append("\",\"slot\":");
    AppendInt(out, slot);
    out->append(",\"t\":");
    AppendJsonNumber(out, record.time_sec);
    if (has_delta) {
      const auto append_nodes = [&](size_t begin, size_t count) {
        out->push_back('[');
        for (size_t m = begin; m < begin + count; ++m) {
          if (m != begin) {
            out->push_back(',');
          }
          out->push_back('[');
          out->append(Xyz(m));
          out->push_back(']');
        }
        out->push_back(']');
      };
      const size_t num_sats = GroundBegin(record);
      out->append(",\"sat_ecef\":");
      append_nodes(0, num_sats);
      out->append(",\"air_ecef\":");
      append_nodes(num_sats,
                   std::min(static_cast<size_t>(record.num_aircraft),
                            node_end_.size() - num_sats));
    }
    out->append(",\"events\":[");
    bool first = true;
    const auto separate = [&] {
      if (!first) {
        out->push_back(',');
      }
      first = false;
    };
    const auto emit_downs = [&](const std::vector<Link>& prev,
                                const std::vector<size_t>& indices) {
      for (const size_t i : indices) {
        separate();
        out->append("[\"link_down\",");
        AppendInt(out, prev[i].a);
        out->push_back(',');
        AppendInt(out, prev[i].b);
        out->push_back(']');
      }
    };
    const size_t num_radio = record.radio_links.size();
    // `base` turns an index into the slot's list into one into the link
    // text, which holds the radio links first.
    const auto emit_ups = [&](const std::vector<size_t>& indices, size_t base,
                              const char* tail) {
      for (const size_t i : indices) {
        separate();
        out->append("[\"link_up\",");
        out->append(LinkFields(base + i, true));
        out->append(tail);
      }
    };
    const auto emit_weights = [&](const std::vector<size_t>& indices,
                                  size_t base) {
      for (const size_t i : indices) {
        separate();
        out->append("[\"weight\",");
        out->append(LinkFields(base + i, false));
        out->push_back(']');
      }
    };
    // Deterministic order: downs, then ups, then weight changes — radio
    // before ISL within each class, each list (a, b)-sorted. Study
    // events follow in the order the serial study passes added them.
    if (has_delta) {
      const SlotRecord& prev = slots[static_cast<size_t>(slot - 1)];
      emit_downs(prev.radio_links, diff_.radio.down);
      emit_downs(prev.isl_links, diff_.isl.down);
    }
    emit_ups(diff_.radio.up, 0, ",\"radio\"]");
    emit_ups(diff_.isl.up, num_radio, ",\"isl\"]");
    emit_weights(diff_.radio.weight, 0);
    emit_weights(diff_.isl.weight, num_radio);
    for (const StudyEvent& event : record.events) {
      separate();
      AppendStudyEvent(out, event);
    }
    out->append("]}\n");
    events_ = diff_.Total() + record.events.size();
  }

  std::string netstate_;
  std::string netevents_;
  uint64_t events_{0};
  LinkDiff diff_;
  std::string node_text_;          // moving nodes' `x,y,z`, back to back
  std::vector<size_t> node_end_;   // end of moving node m's text
  std::string link_text_;
  std::vector<LinkSpan> link_spans_;  // radio links, then ISLs
  CapacityMemo capacities_;
  GroundText ground_;
};

// Hands slots to a sink in slot order from the workers that encoded
// them: a worker that has encoded slot s waits until slot s - 1 is
// handed over, hands over its own and moves on, while the other workers
// keep encoding. A failing worker abandons the turnstile and wakes every
// waiter, or the slot after it would wait for a turn that never comes.
class Turnstile {
 public:
  // Runs `commit` once every slot before `slot` has run its own. Returns
  // without running it when the turnstile was abandoned.
  void InTurn(int slot, const std::function<void()>& commit) {
    {
      const MutexLock lock(mutex_);
      while (turn_ != slot && !abandoned_) {
        turn_changed_.Wait(mutex_);
      }
      if (abandoned_) {
        return;
      }
    }
    commit();
    {
      const MutexLock lock(mutex_);
      ++turn_;
    }
    turn_changed_.NotifyAll();
  }

  void Abandon() {
    {
      const MutexLock lock(mutex_);
      abandoned_ = true;
    }
    turn_changed_.NotifyAll();
  }

 private:
  Mutex mutex_;
  CondVar turn_changed_;
  int turn_ LEOSIM_GUARDED_BY(mutex_) = 0;
  bool abandoned_ LEOSIM_GUARDED_BY(mutex_) = false;
};

// Encodes every slot's lines on ParallelForWorkers workers, each slot
// into its worker's encoder, and hands them to `sink` in slot order,
// from whichever worker holds the slot. At most one slot per worker is
// alive at once, so a sink that streams the lines out never holds a
// whole trace.
void EncodeSlots(bool netstate, bool netevents,
                 const std::function<void(const SlotEncoder&)>& sink) {
  const RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  if (num_slots == 0) {
    return;
  }
  std::vector<SlotEncoder> encoders(
      static_cast<size_t>(std::min(DefaultWorkerCount(), num_slots)));
  Turnstile turnstile;
  ParallelForWorkers(num_slots, [&](int worker, int slot) {
    SlotEncoder& encoder = encoders[static_cast<size_t>(worker)];
    try {
      {
        const obs::Span span("trace.encode");
        encoder.Encode(state.slots, slot, netstate, netevents);
      }
      turnstile.InTurn(slot, [&] { sink(encoder); });
    } catch (...) {
      turnstile.Abandon();
      throw;
    }
  });
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
    ApplyDiff(prev.radio_links, record.radio_links, diff.radio,
              &replayed.radio_links);
    ApplyDiff(prev.isl_links, record.isl_links, diff.isl,
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
  EncodeSlots(true, false, [&out](const SlotEncoder& lines) {
    out.append(lines.netstate());
  });
  return out;
}

std::string NetTraceRecorder::NetEventsJsonl() const {
  std::string out;
  EncodeSlots(false, true, [&out](const SlotEncoder& lines) {
    out.append(lines.netevents());
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
  EncodeSlots(true, true, [&](const SlotEncoder& lines) {
    const obs::Span span("trace.write");
    events += lines.events();
    written = written && write(netstate.get(), lines.netstate()) &&
              write(netevents.get(), lines.netevents());
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
