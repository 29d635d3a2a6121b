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
//     write, even one that only surfaces when the file is closed.
#include "core/net_trace.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
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

TEST(TraceReplayNegativeTest, MovedCityFails) {
  ExpectReplayFailure(
      [](std::vector<NetworkModel::Snapshot>* snaps) {
        NetworkModel::Snapshot& snap = (*snaps)[2];
        snap.node_ecef[static_cast<size_t>(snap.CityNode(0))].x += 1.0;
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
  for (const char* threads : {"1", "3"}) {
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
