// leobench: the repository benchmark's program. perfbench/run.py builds it
// and runs it once per benchmark run; it prints one JSON record as its
// last stdout line.
//
//   leobench --workload=NAME --seed=N --seconds=S --trace=0|1 --threads=T
//            --out=DIR [--commit=ID] [--tiny] [--corrupt=rtt|gbps|netevents]
//
// --trace=0 measures the end-to-end metrics with tracing off: set-up is
// repeated at least five times and the median kept, one warm-up call is
// discarded, then study calls repeat until S seconds have passed and the
// median call is reported.
// --trace=1 sets up once under spans, makes a warm-up call, one untraced
// and one traced study call (obs tracing on; their difference is the
// tracing overhead), then replays the traced call's slots layer by layer
// on the same number of threads and reports the per-layer metrics. Spans
// are written to DIR when the run ends.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace leobench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  int threads{0};
  std::string out_dir;
  std::string commit{"unknown"};
  bool tiny{false};
  std::string corrupt;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Set-up repeats: at least five, more while they take under three
// seconds in total, so a cheap set-up still yields a steady median.
constexpr size_t kMinSetupRepeats = 5;
constexpr size_t kMaxSetupRepeats = 101;
constexpr double kMinSetupSeconds = 3.0;

// Span names whose durations become `<name>_ms.{p50,tail,n}`.
constexpr const char* kLayerTimings[] = {
    "data.cities",           "ground.relay_grid",       "air.model",
    "core.model",            "core.snapshot",           "graph.components",
    "graph.tree",            "graph.astar",             "graph.route",
    "graph.disjoint",        "flow.maxmin",             "core.net_trace.capture",
    "core.net_trace.encode", "core.net_trace.validate", "core.net_trace.write"};

// Phases of NetworkModel::BuildSnapshot, timed by the library's own obs
// spans (src/core/network_builder.cpp), and the layer each one reports
// as. snapshot.propagate also packs the positions and places aircraft.
constexpr std::pair<const char*, const char*> kLibraryPhases[] = {
    {"snapshot.propagate", "orbit.propagate"},
    {"snapshot.index", "link.index"},
    {"snapshot.visibility", "link.visibility"}};

// Exact counts a replay fills (absent = the workload never runs it).
constexpr std::pair<const char*, const char*> kReplayCounts[] = {
    {"core.snapshot.nodes", "count"},
    {"core.snapshot.edges", "count"},
    {"graph.tree.builds", "count"},
    {"graph.astar.queries", "count"},
    {"graph.disjoint.paths", "count"},
    {"flow.links", "count"},
    {"flow.flows", "count"},
    {"core.net_trace.netstate_bytes", "bytes"},
    {"core.net_trace.netevents_bytes", "bytes"},
    {"trace_bytes_per_slot", "bytes"}};

// Program counters read through obs::MetricsRegistry around the traced
// study call. The first five must match the replay's exactly.
constexpr const char* kProgramCounters[] = {
    "dijkstra.queries",   "dijkstra.nodes_popped", "dijkstra.edges_relaxed",
    "dijkstra.heap_pushes", "snapshot.builds",     "snapshot.steps",
    "nettrace.events_emitted"};
constexpr int kReplayMatchedCounters = 5;

// Spans that only group others; time in them is not attributed to a layer.
// `replay.parallel` is the replay thread waiting for its workers
// (`replay.worker`), so it counts as neither busy nor attributed time.
const std::set<std::string> kGroupingSpans = {"replay", "replay.hybrid", "replay.bp",
                                               "replay.worker", "slot"};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "leobench: %s\n", why.c_str());
  std::exit(2);
}

long ParseInt(const std::string& flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || value < lo || value > hi) {
    Usage(flag + " must be an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--workload=")) {
      o.workload = v;
    } else if (const char* v = value_of("--seed=")) {
      o.seed = static_cast<uint64_t>(ParseInt("--seed", v, 0, 1L << 40));
      have_seed = true;
    } else if (const char* v = value_of("--seconds=")) {
      o.seconds = static_cast<double>(ParseInt("--seconds", v, 1, 3600));
      have_seconds = true;
    } else if (const char* v = value_of("--trace=")) {
      o.trace = ParseInt("--trace", v, 0, 1) == 1;
      have_trace = true;
    } else if (const char* v = value_of("--threads=")) {
      o.threads = static_cast<int>(ParseInt("--threads", v, 1, 256));
    } else if (const char* v = value_of("--out=")) {
      o.out_dir = v;
    } else if (const char* v = value_of("--commit=")) {
      o.commit = v;
    } else if (const char* v = value_of("--corrupt=")) {
      o.corrupt = v;
      if (o.corrupt != "rtt" && o.corrupt != "gbps" && o.corrupt != "netevents") {
        Usage("--corrupt must be rtt, gbps or netevents");
      }
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || o.threads == 0 || o.out_dir.empty()) {
    Usage("--workload, --seed, --seconds, --trace, --threads and --out are required");
  }
  return o;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double SysSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// p50, tail and n of a timing. The tail is the highest percentile with
// at least ten samples beyond it; below twenty samples it is the p50.
void AddTiming(const std::string& base, std::vector<double> ms, std::vector<Metric>* out) {
  std::sort(ms.begin(), ms.end());
  const double n = static_cast<double>(ms.size());
  const double tail_q = n >= 20 ? 100.0 * (1.0 - 10.0 / n) : 50.0;
  out->push_back({base + "_ms.p50", Percentile(ms, 50.0), "ms"});
  out->push_back({base + "_ms.tail", Percentile(ms, tail_q), "ms"});
  out->push_back({base + "_ms.n", n, "count"});
}

std::vector<double> ReadCounters() {
  std::vector<double> values;
  for (const char* name : kProgramCounters) {
    values.push_back(static_cast<double>(
        leosim::obs::MetricsRegistry::Global().GetCounter(name).Value()));
  }
  return values;
}

// Durations (ms) of the obs spans recorded since the last ResetTrace,
// keyed by span name, parsed from the library's trace export (one
// `{"name": "...", ..., "dur": <us>}` object per event).
std::map<std::string, std::vector<double>> LibraryPhasesMs() {
  std::map<std::string, std::vector<double>> out;
  const std::string json = leosim::obs::TraceToJson();
  const std::string name_key = "{\"name\": \"";
  const std::string dur_key = "\"dur\": ";
  for (size_t at = json.find(name_key); at != std::string::npos;
       at = json.find(name_key, at)) {
    at += name_key.size();
    const size_t name_end = json.find('"', at);
    const size_t dur = json.find(dur_key, name_end);
    if (name_end == std::string::npos || dur == std::string::npos) {
      break;
    }
    out[json.substr(at, name_end - at)].push_back(
        std::strtod(json.c_str() + dur + dur_key.size(), nullptr) * 1e-3);
    at = dur;
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

std::string ContextJson(const Options& o) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.0f, "
                "\"trace\": %d, \"nproc\": %d, \"threads\": %d, \"scale\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}",
                JsonEscape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, Nproc(), o.threads,
                o.tiny ? "tiny" : "paper", LEOBENCH_BUILD_TYPE,
                JsonEscape(LEOBENCH_COMPILER).c_str(), JsonEscape(o.commit).c_str());
  return buf;
}

bool WriteSpans(const std::string& path, const std::string& context,
                const SpanRecorder& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"context\": %s,\n\"spans\": [\n", context.c_str());
  const std::vector<SpanRecord>& all = spans.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"slot\": %d, \"self_ms\": %.6f}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.slot, s.SelfMs(),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

struct CallTime {
  double wall_s;
  double cpu_s;
  double sys_s;  // the kernel's share of cpu_s (page faults, file writes)
};

CallTime TimedCall(Workload* w) {
  const double cpu0 = CpuSeconds();
  const double sys0 = SysSeconds();
  const int64_t t0 = NowNs();
  w->RunStudy();
  return {static_cast<double>(NowNs() - t0) * 1e-9, CpuSeconds() - cpu0,
          SysSeconds() - sys0};
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  setenv("LEOSIM_THREADS", std::to_string(o.threads).c_str(), 1);
  RunConfig config;
  config.seed = o.seed;
  config.threads = o.threads;
  config.tiny = o.tiny;
  config.corrupt = o.corrupt;
  config.out_dir = o.out_dir;
  if (MakeWorkload(o.workload, config) == nullptr) {
    Usage("unknown workload '" + o.workload + "'");
  }

  std::vector<Metric> metrics;
  Checks checks;
  bool stale = false;
  if (!o.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    const int64_t setup_start = NowNs();
    while (setup_s.size() < kMinSetupRepeats ||
           (setup_s.size() < kMaxSetupRepeats &&
            static_cast<double>(NowNs() - setup_start) * 1e-9 < kMinSetupSeconds)) {
      w.reset();
      w = MakeWorkload(o.workload, config);
      const int64_t t0 = NowNs();
      w->Setup(nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    // The first call after set-up also pays for heap growth; it is made
    // and discarded before timing starts.
    const CallTime warmup = TimedCall(w.get());
    std::printf("# warm-up call, wall/cpu/sys s: %.3f/%.3f/%.3f\n", warmup.wall_s,
                warmup.cpu_s, warmup.sys_s);
    std::vector<double> wall;
    std::vector<double> cpu;
    const int64_t start = NowNs();
    std::printf("# study calls, wall/cpu/sys s:");
    do {
      const CallTime t = TimedCall(w.get());
      wall.push_back(t.wall_s);
      cpu.push_back(t.cpu_s);
      std::printf(" %.3f/%.3f/%.3f", t.wall_s, t.cpu_s, t.sys_s);
    } while (static_cast<double>(NowNs() - start) * 1e-9 < o.seconds);
    std::printf("\n");
    // Read before the checks, whose fresh snapshots are not the workload's.
    const double peak_rss_mb = PeakRssMb();
    w->Check(&checks);
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"run_s", Median(wall), "s"});
    metrics.push_back({"cpu_s", Median(cpu), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    SpanRecorder spans;
    const std::unique_ptr<Workload> w = MakeWorkload(o.workload, config);
    {
      const Span span(&spans, "setup");
      w->Setup(&spans);
    }
    // The first call after set-up also pays for heap growth; a discarded
    // warm-up call keeps that out of the overhead estimate.
    TimedCall(w.get());
    const CallTime untraced = TimedCall(w.get());
    // The traced call and the replay run with the library's obs spans
    // recording; the replay's snapshot phases are read back from them.
    leosim::obs::MetricsRegistry::Global().Reset();
    leosim::obs::EnableTracing(true);
    CallTime traced{};
    {
      const Span span(&spans, "study");
      traced = TimedCall(w.get());
    }
    leosim::obs::EnableTracing(false);
    const std::vector<double> study_counters = ReadCounters();
    w->Check(&checks);

    leosim::obs::MetricsRegistry::Global().Reset();
    leosim::obs::ResetTrace();
    Counts counts;
    Checks fidelity;
    int replay_id = 0;
    {
      replay_id = static_cast<int>(spans.spans().size());
      leosim::obs::EnableTracing(true);
      const Span span(&spans, "replay");
      w->Replay(&spans, &counts, &fidelity);
    }
    leosim::obs::EnableTracing(false);
    const std::map<std::string, std::vector<double>> phases = LibraryPhasesMs();
    fidelity.Expect(leosim::obs::TraceDroppedEvents() == 0,
                    "no library span of the replay was dropped");
    const std::vector<double> replay_counters = ReadCounters();
    for (int i = 0; i < kReplayMatchedCounters; ++i) {
      fidelity.Expect(study_counters[static_cast<size_t>(i)] ==
                          replay_counters[static_cast<size_t>(i)],
                      std::string("replay ") + kProgramCounters[i] + " " +
                          std::to_string(replay_counters[static_cast<size_t>(i)]) +
                          " != study " +
                          std::to_string(study_counters[static_cast<size_t>(i)]));
    }
    stale = fidelity.failed > 0;
    for (const std::string& why : fidelity.failures) {
      std::printf("# replay mismatch: %s\n", why.c_str());
    }

    // Share of the replay's busy thread time (its own thread outside the
    // waits, plus every worker's lifetime) inside a named layer span.
    double busy_ms = 0.0;
    double grouping_self_ms = 0.0;
    for (size_t i = static_cast<size_t>(replay_id); i < spans.spans().size(); ++i) {
      const SpanRecord& s = spans.spans()[i];
      if (s.name == "replay" || s.name == "replay.worker") {
        busy_ms += s.DurationMs();
      } else if (s.name == "replay.parallel") {
        busy_ms -= s.DurationMs();
      }
      if (kGroupingSpans.count(s.name) != 0) {
        grouping_self_ms += s.SelfMs();
      }
    }

    for (const char* name : kLayerTimings) {
      AddTiming(name, spans.DurationsMs(name), &metrics);
    }
    for (const auto& [span_name, layer] : kLibraryPhases) {
      const auto it = phases.find(span_name);
      AddTiming(layer, it == phases.end() ? std::vector<double>{} : it->second, &metrics);
    }
    for (const auto& [name, unit] : kReplayCounts) {
      const auto it = counts.find(name);
      metrics.push_back({name, it == counts.end() ? 0.0 : it->second, unit});
    }
    for (size_t i = 0; i < std::size(kProgramCounters); ++i) {
      metrics.push_back({kProgramCounters[i], study_counters[i], "count"});
    }
    metrics.push_back({"core.sweep.idle_frac",
                       1.0 - untraced.cpu_s / (o.threads * untraced.wall_s), "fraction"});
    metrics.push_back(
        {"bench.trace_overhead_ms", (traced.wall_s - untraced.wall_s) * 1e3, "ms"});
    metrics.push_back({"bench.replay_match", stale ? 0.0 : 1.0, "count"});
    metrics.push_back({"bench.span_coverage", 1.0 - grouping_self_ms / busy_ms,
                       "fraction"});

    const std::string path =
        o.out_dir + "/spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
    if (!WriteSpans(path, ContextJson(o), spans)) {
      std::fprintf(stderr, "leobench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# wrote %s (%zu spans)\n", path.c_str(), spans.spans().size());
  }

  for (const std::string& why : checks.failures) {
    std::printf("# check failed: %s\n", why.c_str());
  }
  std::printf("{\"context\": %s, \"attempted\": %llu, \"failed\": %llu, \"stale\": %s, "
              "\"metrics\": {",
              ContextJson(o).c_str(), static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), stale ? "true" : "false");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace leobench

int main(int argc, char** argv) { return leobench::Main(argc, argv); }
