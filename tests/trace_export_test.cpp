// Determinism and replay guarantees of the network-state trace export.
//
// The headline claims under test:
//   * the serialized netstate/netevents streams are byte-identical at
//     any thread count (LEOSIM_THREADS=1/4/13), with and without
//     aircraft — traces are stable artifacts, diffable across machines
//     and configurations;
//   * ValidateReplay() holds on a >= 60-slot, 10 s-spacing sweep for
//     both the bent-pipe and the +Grid hybrid network (the acceptance
//     scenario, proven here in-process and again from the files alone
//     by tools/trace_check.py via the trace_replay ctest target);
//   * ValidateReplay() rejects a gap, a moving city, a tampered link
//     list and a tampered node array, naming the first bad slot, at any
//     thread count;
//   * WriteTo() writes the serializers' bytes and reports a failed
//     write, even one that only surfaces when the file is closed;
//   * an export that fails mid-stream throws at any thread count
//     instead of hanging;
//   * both streams keep their recorded bytes on the encoder paths real
//     sweeps never reach (capacity changes, links added and dropped,
//     a change in aircraft count, many distinct capacities, non-finite
//     values, an uncaptured slot).
#include "core/net_trace.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "obs/metrics.hpp"
#include "scoped_threads.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode, double relay_spacing_deg) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = relay_spacing_deg;
  options.aircraft_scale = 1.0;
  return options;
}

std::vector<CityPair> SamplePairs(int num_pairs) {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = num_pairs;
  return SampleCityPairs(data::AnchorCities(), traffic);
}

// Runs the aggregate churn study with tracing on and returns the two
// serialized streams. LEOSIM_THREADS is set for the duration of the run.
std::pair<std::string, std::string> TraceChurnRun(const char* threads,
                                                  bool use_aircraft) {
  const ScopedThreads scope(threads);
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  NetworkOptions options = FastOptions(ConnectivityMode::kHybrid, 6.0);
  options.use_aircraft = use_aircraft;
  const NetworkModel hybrid(Scenario::Starlink(), options,
                            data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 120.0;
  RunAggregateChurnStudy(hybrid, SamplePairs(6), schedule);

  std::pair<std::string, std::string> out{net_trace.NetStateJsonl(),
                                          net_trace.NetEventsJsonl()};
  net_trace.Enable(false);
  net_trace.Reset();
  return out;
}

TEST(TraceDeterminismTest, StreamsIdenticalAtAnyThreadCount) {
  for (const bool use_aircraft : {true, false}) {
    const auto at1 = TraceChurnRun("1", use_aircraft);
    const auto at4 = TraceChurnRun("4", use_aircraft);
    const auto at13 = TraceChurnRun("13", use_aircraft);
    EXPECT_FALSE(at1.first.empty()) << "aircraft " << use_aircraft;
    EXPECT_FALSE(at1.second.empty()) << "aircraft " << use_aircraft;
    EXPECT_EQ(at1.first, at4.first) << "aircraft " << use_aircraft;
    EXPECT_EQ(at1.second, at4.second) << "aircraft " << use_aircraft;
    EXPECT_EQ(at1.first, at13.first) << "aircraft " << use_aircraft;
    EXPECT_EQ(at1.second, at13.second) << "aircraft " << use_aircraft;
  }
}

// The acceptance sweep: 60 slots at 10 s spacing (the schedule's
// endpoint is exclusive), replay must hold bit-exactly from the slot-0
// keyframe through every later capture.
void ValidateSixtySlotSweep(ConnectivityMode mode) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const NetworkModel model(Scenario::Starlink(), FastOptions(mode, 6.0),
                           data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 600.0;
  RunAggregateChurnStudy(model, SamplePairs(5), schedule);

  EXPECT_GE(net_trace.NumSlots(), 60);
  std::string why;
  EXPECT_TRUE(net_trace.ValidateReplay(&why)) << why;

  net_trace.Enable(false);
  net_trace.Reset();
}

TEST(TraceReplayTest, SixtySlotBentPipeSweepReplays) {
  ValidateSixtySlotSweep(ConnectivityMode::kBentPipe);
}

TEST(TraceReplayTest, SixtySlotHybridSweepReplays) {
  ValidateSixtySlotSweep(ConnectivityMode::kHybrid);
}

TEST(TraceReplayTest, LatencyStudySharedSweepReplays) {
  // The latency study traces through the shared-build path (one capture
  // per slot, taken before the bent-pipe ISL masking) and is the one
  // that emits reachable/unreachable transitions.
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe, 6.0),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid, 6.0),
                            data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 100.0;
  RunLatencyStudy(bp, hybrid, SamplePairs(6), schedule);

  EXPECT_EQ(net_trace.NumSlots(), 10);
  std::string why;
  EXPECT_TRUE(net_trace.ValidateReplay(&why)) << why;

  net_trace.Enable(false);
  net_trace.Reset();
}

// Four consecutive 10 s snapshots of a small hybrid network, captured
// by hand so a test can corrupt one before it is recorded.
std::vector<NetworkModel::Snapshot> FourSnapshots() {
  const NetworkModel model(Scenario::Starlink(),
                           FastOptions(ConnectivityMode::kHybrid, 6.0),
                           data::AnchorCities());
  std::vector<NetworkModel::Snapshot> snaps;
  for (int slot = 0; slot < 4; ++slot) {
    snaps.push_back(model.BuildSnapshot(10.0 * slot));
  }
  return snaps;
}

// Records `snaps` (skipping nullptr entries: never captured) and runs
// ValidateReplay at LEOSIM_THREADS 1 and 4. Expects a failure with
// exactly `expected_why` at both.
void ExpectReplayFailure(
    const std::function<void(std::vector<NetworkModel::Snapshot>*)>& tamper,
    const std::vector<int>& captured_slots, const std::string& expected_why) {
  std::vector<NetworkModel::Snapshot> snaps = FourSnapshots();
  tamper(&snaps);
  for (const char* threads : {"1", "4"}) {
    const ScopedThreads scope(threads);
    NetTraceRecorder& net_trace = NetTraceRecorder::Global();
    net_trace.Reset();
    net_trace.Enable(true);
    net_trace.SetTimeline({0.0, 10.0, 20.0, 30.0});
    for (const int slot : captured_slots) {
      net_trace.CaptureSlot(slot, 10.0 * slot,
                            snaps[static_cast<size_t>(slot)]);
    }
    std::string why;
    EXPECT_FALSE(net_trace.ValidateReplay(&why)) << "threads " << threads;
    EXPECT_EQ(why, expected_why) << "threads " << threads;
    net_trace.Enable(false);
    net_trace.Reset();
  }
}

TEST(TraceReplayNegativeTest, UntamperedSnapshotsReplay) {
  const std::vector<NetworkModel::Snapshot> snaps = FourSnapshots();
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);
  net_trace.SetTimeline({0.0, 10.0, 20.0, 30.0});
  for (int slot = 0; slot < 4; ++slot) {
    net_trace.CaptureSlot(slot, 10.0 * slot, snaps[static_cast<size_t>(slot)]);
  }
  std::string why;
  EXPECT_TRUE(net_trace.ValidateReplay(&why)) << why;
  net_trace.Enable(false);
  net_trace.Reset();
}

TEST(TraceReplayNegativeTest, GapInCapturesFails) {
  ExpectReplayFailure([](std::vector<NetworkModel::Snapshot>*) {}, {0, 2, 3},
                      "slot 1: replayed stream (gap in captured slots) "
                      "diverges from the stored capture");
}

void MoveFirstCity(NetworkModel::Snapshot* snap) {
  snap->node_ecef[static_cast<size_t>(snap->CityNode(0))].x += 1.0;
}

TEST(TraceReplayNegativeTest, MovedCityFails) {
  ExpectReplayFailure(
      [](std::vector<NetworkModel::Snapshot>* snaps) {
        MoveFirstCity(&(*snaps)[2]);
      },
      {0, 1, 2, 3},
      "slot 2: replayed netevents/1 assumes static city/relay positions "
      "across slots diverges from the stored capture");
}

// A duplicated link: the diff turns the copy into a link_up for a link
// that is already up, which no replayer can apply.
void DuplicateFirstRadioLink(NetworkModel::Snapshot* snap) {
  const graph::EdgeRecord rec = snap->graph.Edge(snap->radio_edges.front());
  snap->radio_edges.push_back(
      snap->graph.AddEdge(rec.a, rec.b, rec.weight + 1.0, rec.capacity));
}

TEST(TraceReplayNegativeTest, TamperedLinkListFails) {
  ExpectReplayFailure(
      [](std::vector<NetworkModel::Snapshot>* snaps) {
        DuplicateFirstRadioLink(&(*snaps)[3]);
      },
      {0, 1, 2, 3},
      "slot 3: replayed replay: link_up for a link that is already up "
      "diverges from the stored capture");
}

TEST(TraceReplayNegativeTest, TamperedNodeArrayFails) {
  // Only the final comparison sees this one: the diff and its
  // application both succeed.
  ExpectReplayFailure(
      [](std::vector<NetworkModel::Snapshot>* snaps) {
        (*snaps)[2].node_ecef.push_back({1.0, 2.0, 3.0});
      },
      {0, 1, 2, 3},
      "slot 2: replayed node array size diverges from the stored capture");
}

TEST(TraceReplayNegativeTest, LowestFailingSlotIsReported) {
  ExpectReplayFailure(
      [](std::vector<NetworkModel::Snapshot>* snaps) {
        (*snaps)[2].node_ecef.push_back({1.0, 2.0, 3.0});
        DuplicateFirstRadioLink(&(*snaps)[3]);
      },
      {0, 1, 2, 3},
      "slot 2: replayed node array size diverges from the stored capture");
}

// A fresh directory under the test temp dir.
std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(testing::TempDir()) /
                                    (name + "_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

TEST(TraceWriteTest, FilesMatchSerializersAtAnyThreadCount) {
  const auto [netstate, netevents] = TraceChurnRun("1", /*use_aircraft=*/true);
  for (const char* threads : {"1", "3", "13"}) {
    const ScopedThreads scope(threads);
    NetTraceRecorder& net_trace = NetTraceRecorder::Global();
    net_trace.Reset();
    net_trace.Enable(true);
    const NetworkModel hybrid(Scenario::Starlink(),
                              FastOptions(ConnectivityMode::kHybrid, 6.0),
                              data::AnchorCities());
    SnapshotSchedule schedule;
    schedule.step_sec = 10.0;
    schedule.duration_sec = 120.0;
    RunAggregateChurnStudy(hybrid, SamplePairs(6), schedule);
    const std::filesystem::path dir = FreshDir("trace_write");
    obs::Counter& events = obs::MetricsRegistry::Global().GetCounter(
        "nettrace.events_emitted");
    const uint64_t events_before = events.Value();
    ASSERT_TRUE(net_trace.WriteTo(dir.string()));
    EXPECT_EQ(ReadFile(dir / "netstate.jsonl"), netstate);
    EXPECT_EQ(ReadFile(dir / "netevents.jsonl"), netevents);
    EXPECT_GT(events.Value(), events_before);
    std::filesystem::remove_all(dir);
    net_trace.Enable(false);
    net_trace.Reset();
  }
}

// The what() of the std::logic_error `fn` throws, or "" when it throws
// none.
std::string LogicErrorOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::logic_error& error) {
    return error.what();
  }
  return "";
}

// Workers hand slots over in slot order, so the workers holding the
// slots after a failed one wait for a turn that never comes unless the
// failure wakes them: without that this test hangs (the ctest TIMEOUT
// on this binary turns a hang into a failure). The city moves at slot 2
// and stays there, so slot 2 fails and slot 3 encodes and waits.
TEST(TraceWriteTest, FailureMidStreamThrowsAtAnyThreadCount) {
  std::vector<NetworkModel::Snapshot> snaps = FourSnapshots();
  MoveFirstCity(&snaps[2]);
  MoveFirstCity(&snaps[3]);
  const std::string expected =
      "netevents/1 assumes static city/relay positions across slots";
  for (const char* threads : {"1", "4", "13"}) {
    const ScopedThreads scope(threads);
    NetTraceRecorder& net_trace = NetTraceRecorder::Global();
    net_trace.Reset();
    net_trace.Enable(true);
    net_trace.SetTimeline({0.0, 10.0, 20.0, 30.0});
    for (int slot = 0; slot < 4; ++slot) {
      net_trace.CaptureSlot(slot, 10.0 * slot,
                            snaps[static_cast<size_t>(slot)]);
    }
    const std::filesystem::path dir = FreshDir("trace_fail");
    EXPECT_EQ(LogicErrorOf([&] { net_trace.WriteTo(dir.string()); }),
              expected)
        << "threads " << threads;
    EXPECT_EQ(LogicErrorOf([&] { net_trace.NetEventsJsonl(); }), expected)
        << "threads " << threads;
    std::filesystem::remove_all(dir);
    net_trace.Enable(false);
    net_trace.Reset();
  }
}

// Four hand-built slots of two satellites, one city, one relay and one
// or two aircraft, reaching the encoder paths real sweeps never do:
//   slot 1: a capacity change (a down+up pair carrying slot 1's values),
//           a link added, a link dropped, an infinite capacity and a
//           NaN aircraft coordinate (both written as null; the graph
//           rejects a non-finite delay);
//   slot 2: a second aircraft, and eight distinct capacity values, more
//           than the encoder's capacity memo holds;
//   slot 3: left uncaptured, with a study event.
// The study events cover every kind. Positions and delays are
// fractions whose %.17g needs all 17 digits.
void RecordEdgePathCapture() {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);
  net_trace.SetTimeline({0.0, 10.0, 20.0, 30.0});
  const double inf = std::numeric_limits<double>::infinity();
  for (int slot = 0; slot < 3; ++slot) {
    const double t = 10.0 * slot;
    NetworkModel::Snapshot snap;
    snap.num_sats = 2;
    snap.num_cities = 1;
    snap.num_relays = 1;
    snap.num_aircraft = slot == 2 ? 2 : 1;
    snap.node_ecef = {{6900.0 + t / 3.0, 10.0 / 7.0, 100.0 + t},
                      {-6900.0, 0.1 * t, 7000.0 / 3.0},
                      {6371.0 / 3.0, 1.0e-3, -0.0},
                      {1.0 / 3.0, 6371.0, 2.5},
                      {6380.0, slot == 1 ? std::nan("") : t / 7.0, 1.0}};
    if (slot == 2) {
      snap.node_ecef.push_back({-1.0e300, 6380.5, 1.0 / 9.0});
    }
    snap.graph.Reset(snap.NumNodes());
    const auto radio = [&](int a, int b, double delay, double capacity) {
      snap.radio_edges.push_back(snap.graph.AddEdge(a, b, delay, capacity));
    };
    const auto isl = [&](int a, int b, double delay, double capacity) {
      snap.isl_edges.push_back(snap.graph.AddEdge(a, b, delay, capacity));
    };
    switch (slot) {
      case 0:
        radio(2, 0, 1.0 / 3.0, 20.0);
        radio(0, 3, 2.0 / 3.0, 20.0);
        radio(1, 3, 5.0 / 7.0, 20.0);
        radio(1, 4, 0.25, 20.0);
        radio(1, 2, 0.5, 20.0);
        snap.graph.SetEnabled(snap.radio_edges.back(), false);
        isl(0, 1, 45.1, 100.0);
        break;
      case 1:
        radio(0, 2, 1.0 / 3.0 + 0.01, 20.0);
        radio(0, 3, 2.0 / 3.0, inf);
        radio(1, 3, 5.0 / 7.0, 40.0);
        radio(2, 1, 0.5, 20.0);
        isl(0, 1, 45.2, 100.0);
        break;
      default:
        radio(0, 2, 1.0 / 3.0, 1.5);
        radio(0, 3, 1.0 / 6.0, inf);
        radio(1, 2, 2.0 / 9.0, 2.5);
        radio(1, 3, 5.0 / 7.0, 40.0);
        radio(0, 4, 3.0 / 11.0, 3.5);
        radio(1, 5, 4.0 / 13.0, 4.5);
        radio(0, 5, 5.0 / 17.0, 5.5);
        isl(0, 1, 45.3, 100.0);
        break;
    }
    net_trace.CaptureSlot(slot, t, snap);
  }
  net_trace.AddRouteChange(1, 0, 10.0 / 3.0, {0, 2, 3});
  net_trace.AddReachable(1, 1, 2.0 / 3.0);
  net_trace.AddHandover(2, {0}, {1});
  net_trace.AddUnreachable(3, 1);
}

// The bytes RecordEdgePathCapture() exports, recorded from the encoder
// that formatted every number at each use; the encoder that formats
// each number once per slot must write them unchanged.
constexpr const char* kEdgePathNetState =
    R"({"schema":"leosim.netstate/1","slot":0,"t":0,"counts":[2,1,1,1],"nodes":[["sat",6900,1.4285714285714286,100],["sat",-6900,0,2333.3333333333335],["city",2123.6666666666665,0.001,-0],["relay",0.33333333333333331,6371,2.5],["air",6380,0,1]],"links":[[0,2,0.33333333333333331,20,"radio"],[0,3,0.66666666666666663,20,"radio"],[1,3,0.7142857142857143,20,"radio"],[1,4,0.25,20,"radio"],[0,1,45.100000000000001,100,"isl"]]})" "\n"
    R"({"schema":"leosim.netstate/1","slot":1,"t":10,"counts":[2,1,1,1],"nodes":[["sat",6903.333333333333,1.4285714285714286,110],["sat",-6900,1,2333.3333333333335],["city",2123.6666666666665,0.001,-0],["relay",0.33333333333333331,6371,2.5],["air",6380,null,1]],"links":[[0,2,0.34333333333333332,20,"radio"],[0,3,0.66666666666666663,null,"radio"],[1,2,0.5,20,"radio"],[1,3,0.7142857142857143,40,"radio"],[0,1,45.200000000000003,100,"isl"]]})" "\n"
    R"({"schema":"leosim.netstate/1","slot":2,"t":20,"counts":[2,1,1,2],"nodes":[["sat",6906.666666666667,1.4285714285714286,120],["sat",-6900,2,2333.3333333333335],["city",2123.6666666666665,0.001,-0],["relay",0.33333333333333331,6371,2.5],["air",6380,2.8571428571428572,1],["air",-1.0000000000000001e+300,6380.5,0.1111111111111111]],"links":[[0,2,0.33333333333333331,1.5,"radio"],[0,3,0.16666666666666666,null,"radio"],[0,4,0.27272727272727271,3.5,"radio"],[0,5,0.29411764705882354,5.5,"radio"],[1,2,0.22222222222222221,2.5,"radio"],[1,3,0.7142857142857143,40,"radio"],[1,5,0.30769230769230771,4.5,"radio"],[0,1,45.299999999999997,100,"isl"]]})" "\n";
constexpr const char* kEdgePathNetEvents =
    R"({"schema":"leosim.netevents/1","slot":0,"t":0,"events":[]})" "\n"
    R"({"schema":"leosim.netevents/1","slot":1,"t":10,"sat_ecef":[[6903.333333333333,1.4285714285714286,110],[-6900,1,2333.3333333333335]],"air_ecef":[[6380,null,1]],"events":[["link_down",0,3],["link_down",1,3],["link_down",1,4],["link_up",0,3,0.66666666666666663,null,"radio"],["link_up",1,2,0.5,20,"radio"],["link_up",1,3,0.7142857142857143,40,"radio"],["weight",0,2,0.34333333333333332],["weight",0,1,45.200000000000003],["route_change",0,3.3333333333333335,[0,2,3]],["reachable",1,0.66666666666666663]]})" "\n"
    R"({"schema":"leosim.netevents/1","slot":2,"t":20,"sat_ecef":[[6906.666666666667,1.4285714285714286,120],[-6900,2,2333.3333333333335]],"air_ecef":[[6380,2.8571428571428572,1],[-1.0000000000000001e+300,6380.5,0.1111111111111111]],"events":[["link_down",0,2],["link_down",1,2],["link_up",0,2,0.33333333333333331,1.5,"radio"],["link_up",0,4,0.27272727272727271,3.5,"radio"],["link_up",0,5,0.29411764705882354,5.5,"radio"],["link_up",1,2,0.22222222222222221,2.5,"radio"],["link_up",1,5,0.30769230769230771,4.5,"radio"],["weight",0,3,0.16666666666666666],["weight",0,1,45.299999999999997],["handover",[0],[1]]]})" "\n"
    R"({"schema":"leosim.netevents/1","slot":3,"t":30,"events":[["unreachable",1]]})" "\n";

TEST(TraceGoldenTest, EdgePathsMatchRecordedBytes) {
  for (const char* threads : {"1", "4", "13"}) {
    const ScopedThreads scope(threads);
    RecordEdgePathCapture();
    NetTraceRecorder& net_trace = NetTraceRecorder::Global();
    EXPECT_EQ(net_trace.NetStateJsonl(), kEdgePathNetState)
        << "threads " << threads;
    EXPECT_EQ(net_trace.NetEventsJsonl(), kEdgePathNetEvents)
        << "threads " << threads;
    const std::filesystem::path dir = FreshDir("trace_golden");
    ASSERT_TRUE(net_trace.WriteTo(dir.string()));
    EXPECT_EQ(ReadFile(dir / "netstate.jsonl"), kEdgePathNetState)
        << "threads " << threads;
    EXPECT_EQ(ReadFile(dir / "netevents.jsonl"), kEdgePathNetEvents)
        << "threads " << threads;
    std::filesystem::remove_all(dir);
    net_trace.Enable(false);
    net_trace.Reset();
  }
}

TEST(TraceWriteTest, UnwritablePathsFail) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.SetTimeline({0.0});  // one uncaptured slot: a short netevents line
  const std::filesystem::path dir = FreshDir("trace_unwritable");

  // The directory cannot be created under a regular file.
  std::ofstream(dir / "file") << "x";
  EXPECT_FALSE(net_trace.WriteTo((dir / "file" / "out").string()));

  // A stream's file name is taken by a directory, so it cannot be opened.
  std::filesystem::create_directories(dir / "taken" / "netevents.jsonl");
  EXPECT_FALSE(net_trace.WriteTo((dir / "taken").string()));

  // A device that takes the buffered bytes but fails the flush in
  // fclose: the error surfaces only when the file is closed.
  if (std::filesystem::exists("/dev/full")) {
    std::filesystem::create_directories(dir / "full");
    std::filesystem::create_symlink("/dev/full",
                                    dir / "full" / "netevents.jsonl");
    EXPECT_FALSE(net_trace.WriteTo((dir / "full").string()));
  }
  std::filesystem::remove_all(dir);
  net_trace.Reset();
}

TEST(TraceRecorderTest, DisabledRecorderCapturesNothing) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(false);

  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid, 6.0),
                            data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 30.0;
  RunAggregateChurnStudy(hybrid, SamplePairs(3), schedule);

  EXPECT_EQ(net_trace.NumSlots(), 0);
  EXPECT_TRUE(net_trace.NetStateJsonl().empty());
  EXPECT_TRUE(net_trace.NetEventsJsonl().empty());
}

}  // namespace
}  // namespace leosim::core
