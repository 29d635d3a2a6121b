// Shared flag parsing and model construction for the figure-reproduction
// harnesses. Every binary accepts:
//
//   --pairs=N         city pairs in the traffic matrix   (default 500)
//   --cities=N        cities in the world model          (default 332 anchors)
//   --spacing=DEG     relay grid spacing                 (default 2.5)
//   --aircraft=SCALE  flight-frequency multiplier        (default 1.0)
//   --snapshots=N     time snapshots                     (default 12)
//   --step=SEC        snapshot spacing                   (default 900 = 15 min)
//   --full            paper-scale run: 1000 cities, 5000 pairs, 0.5-deg
//                     grid, 96 snapshots (hours of compute)
//
// plus the shared observability flags of core::ObsFlags (--metrics-out,
// --trace-out, --timeseries-out, --profile-out, --progress[=SEC]) and
// any extras the binary itself declares.
// Parsing is strict (core/cli_flags.hpp): an unknown flag or a malformed
// or out-of-range value throws, and main's core::RunMain turns that
// into one stderr line and exit 2; a failed output write exits 1.
//
// Scaled-down defaults preserve the paper's qualitative shape; see
// EXPERIMENTS.md for the mapping.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cli_flags.hpp"
#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/city_catalog.hpp"
#include "obs/json.hpp"

namespace leosim::bench {

struct BenchConfig {
  int num_pairs{500};
  int num_cities{static_cast<int>(data::AnchorCities().size())};
  double relay_spacing_deg{2.5};
  double aircraft_scale{1.0};
  int num_snapshots{12};
  double step_sec{900.0};
  uint64_t seed{20201104};
  core::ObsFlags obs;
};

inline constexpr int kMaxCount = 1000000;

// Parses argv. `take_extra` may consume flags only this binary knows
// (documented in `extra_usage` for --help); anything left unclaimed is
// rejected.
inline BenchConfig ParseFlags(
    int argc, char** argv, const char* extra_usage = "",
    const std::function<bool(std::string_view)>& take_extra = nullptr) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (config.obs.Take(arg) || (take_extra && take_extra(arg))) {
      continue;
    }
    if (const auto v = core::FlagValue(arg, "--pairs")) {
      config.num_pairs = core::ParseInt("--pairs", *v, 1, kMaxCount);
    } else if (const auto v = core::FlagValue(arg, "--cities")) {
      config.num_cities = core::ParseInt("--cities", *v, 2, kMaxCount);
    } else if (const auto v = core::FlagValue(arg, "--spacing")) {
      config.relay_spacing_deg = core::ParseDouble("--spacing", *v, 0.1, 90.0);
    } else if (const auto v = core::FlagValue(arg, "--aircraft")) {
      config.aircraft_scale = core::ParseDouble("--aircraft", *v, 0.0, 100.0);
    } else if (const auto v = core::FlagValue(arg, "--snapshots")) {
      config.num_snapshots = core::ParseInt("--snapshots", *v, 1, kMaxCount);
    } else if (const auto v = core::FlagValue(arg, "--step")) {
      config.step_sec = core::ParseDouble("--step", *v, 0.001, 1e7);
    } else if (arg == "--full") {
      config.num_cities = 1000;
      config.num_pairs = 5000;
      config.relay_spacing_deg = 0.5;
      config.num_snapshots = 96;
      config.step_sec = 900.0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --pairs=N --cities=N --spacing=DEG --aircraft=SCALE "
          "--snapshots=N --step=SEC --full %s%s%s\n",
          core::ObsFlags::kUsage, *extra_usage != '\0' ? " " : "",
          extra_usage);
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown flag " + std::string(arg) +
                                  " (see --help)");
    }
  }
  return config;
}

// Applies the observability flags: call once after ParseFlags, before any
// timed work (tracing must be on before the spans of interest run).
inline void ApplyObsConfig(const BenchConfig& config) { config.obs.Apply(); }

// Writes the requested obs files; call once on exit and return its
// result from main (1 if a write failed, else 0).
inline int WriteObsOutputs(const BenchConfig& config) {
  return config.obs.WriteOutputs("# ");
}

inline std::vector<data::City> MakeCities(const BenchConfig& config) {
  std::vector<data::City> cities = data::GenerateWorldCities(config.num_cities, 42);
  // The named-pair figures (3, 8, 10, 11) need the paper's cities even if
  // a small --cities truncation would have dropped them by population.
  for (const char* name : {"Maceio", "Durban", "Delhi", "Sydney", "Brisbane",
                           "Tokyo", "Paris", "New York", "London"}) {
    const data::City& city = data::FindCity(name);
    bool present = false;
    for (const data::City& c : cities) {
      if (c.name == city.name) {
        present = true;
        break;
      }
    }
    if (!present) {
      cities.push_back(city);
    }
  }
  return cities;
}

inline core::NetworkOptions MakeOptions(const BenchConfig& config,
                                        core::ConnectivityMode mode) {
  core::NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = config.relay_spacing_deg;
  options.aircraft_scale = config.aircraft_scale;
  return options;
}

inline core::SnapshotSchedule MakeSchedule(const BenchConfig& config) {
  core::SnapshotSchedule schedule;
  schedule.step_sec = config.step_sec;
  schedule.duration_sec = config.step_sec * config.num_snapshots;
  return schedule;
}

inline std::vector<core::CityPair> MakePairs(const BenchConfig& config,
                                             const std::vector<data::City>& cities) {
  core::TrafficMatrixOptions options;
  options.num_pairs = config.num_pairs;
  options.seed = config.seed;
  return core::SampleCityPairs(cities, options);
}

// --- Timed micro/pipeline benchmarks with a machine-readable record ----
//
// BenchSuite is the harness behind bench_pipeline: each benchmark runs `reps` repetitions of a timed block (each block
// performing `iters_per_rep` operations) and records the MEDIAN ns/op, so
// one-off scheduler hiccups do not skew the perf trajectory tracked in
// git. The emitted JSON schema (BENCH_pipeline.json):
//
//   {
//     "suite": "<name>",
//     "config": { "<key>": "<value>", ... },
//     "results": [
//       { "name": "<bench>", "reps": N, "iters_per_rep": M,
//         "median_ns_per_op": X, "min_ns_per_op": Y, "max_ns_per_op": W,
//         "mad_ns_per_op": D, "ops_per_sec": Z,
//         "samples_ns": [S1, S2, ...] },
//       ...
//     ]
//   }
//
// samples_ns holds every rep's ns/op in run order — the raw
// distribution obs_report.py feeds its Mann-Whitney significance test
// (it rejects a record without it); mad_ns_per_op is the median
// absolute deviation, the matching robust spread estimate.
struct BenchResult {
  std::string name;
  int reps{0};
  int64_t iters_per_rep{0};
  double median_ns_per_op{0.0};
  double min_ns_per_op{0.0};
  double max_ns_per_op{0.0};
  double mad_ns_per_op{0.0};
  double ops_per_sec{0.0};
  std::vector<double> samples_ns;  // per-rep ns/op, run order
};

class BenchSuite {
 public:
  explicit BenchSuite(std::string name) : name_(std::move(name)) {}

  void AddConfig(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }

  // Runs `fn` (a block of `iters_per_rep` operations) `reps` times and
  // records the median per-operation latency. Prints a human-readable row
  // as it goes so the binary is useful interactively too.
  template <typename Fn>
  void Run(const std::string& bench_name, int reps, int64_t iters_per_rep, Fn&& fn) {
    Run(bench_name, reps, iters_per_rep, [] {}, fn);
  }

  // As above, with `setup` run untimed before each rep: for an operation
  // that consumes its input.
  template <typename Setup, typename Fn>
  void Run(const std::string& bench_name, int reps, int64_t iters_per_rep,
           Setup&& setup, Fn&& fn) {
    std::vector<double> ns_per_op(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      setup();
      const auto start = std::chrono::steady_clock::now();
      fn();
      const auto stop = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      ns_per_op[static_cast<size_t>(r)] = ns / static_cast<double>(iters_per_rep);
    }
    BenchResult result;
    result.name = bench_name;
    result.reps = reps;
    result.iters_per_rep = iters_per_rep;
    result.samples_ns = ns_per_op;  // run order, before the stats sort
    std::sort(ns_per_op.begin(), ns_per_op.end());
    result.min_ns_per_op = ns_per_op.front();
    result.max_ns_per_op = ns_per_op.back();
    const auto median_of = [](std::vector<double>& sorted) {
      const size_t mid = sorted.size() / 2;
      return sorted.size() % 2 == 1 ? sorted[mid]
                                    : 0.5 * (sorted[mid - 1] + sorted[mid]);
    };
    result.median_ns_per_op = median_of(ns_per_op);
    std::vector<double> deviations(ns_per_op.size());
    for (size_t i = 0; i < ns_per_op.size(); ++i) {
      deviations[i] = std::abs(ns_per_op[i] - result.median_ns_per_op);
    }
    std::sort(deviations.begin(), deviations.end());
    result.mad_ns_per_op = median_of(deviations);
    result.ops_per_sec =
        result.median_ns_per_op > 0.0 ? 1e9 / result.median_ns_per_op : 0.0;
    std::printf(
        "%-32s median %14.1f ns/op   min %14.1f ns/op   max %14.1f ns/op   "
        "%12.1f ops/s\n",
        bench_name.c_str(), result.median_ns_per_op, result.min_ns_per_op,
        result.max_ns_per_op, result.ops_per_sec);
    std::fflush(stdout);
    results_.push_back(std::move(result));
  }

  // Writes the JSON record; returns false (with a stderr note) on I/O error.
  bool WriteJson(const std::string& path) const {
    const auto append_fixed = [](std::string* out, double value) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", value);
      out->append(buf);
    };
    std::string out = "{\n  \"suite\": ";
    obs::AppendJsonString(&out, name_);
    out += ",\n  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      obs::AppendJsonString(&out, config_[i].first);
      out += ": ";
      obs::AppendJsonString(&out, config_[i].second);
    }
    out += "\n  },\n  \"results\": [";
    for (size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      out += i == 0 ? "\n    { \"name\": " : ",\n    { \"name\": ";
      obs::AppendJsonString(&out, r.name);
      out += ", \"reps\": ";
      obs::AppendInt(&out, r.reps);
      out += ", \"iters_per_rep\": ";
      obs::AppendInt(&out, r.iters_per_rep);
      const std::pair<const char*, double> stats[] = {
          {"median_ns_per_op", r.median_ns_per_op},
          {"min_ns_per_op", r.min_ns_per_op},
          {"max_ns_per_op", r.max_ns_per_op},
          {"mad_ns_per_op", r.mad_ns_per_op},
          {"ops_per_sec", r.ops_per_sec}};
      for (const auto& [key, value] : stats) {
        out += ", \"";
        out += key;
        out += "\": ";
        append_fixed(&out, value);
      }
      out += ", \"samples_ns\": [";
      for (size_t s = 0; s < r.samples_ns.size(); ++s) {
        out += s == 0 ? "" : ", ";
        append_fixed(&out, r.samples_ns[s]);
      }
      out += "] }";
    }
    out += "\n  ]\n}\n";
    if (!obs::WriteFile(path, out)) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "# wrote %s\n", path.c_str());
    return true;
  }

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<BenchResult> results_;
};

inline void PrintConfig(const BenchConfig& config, const char* what) {
  std::printf("# %s\n", what);
  std::printf(
      "# config: cities=%d pairs=%d spacing=%.2fdeg aircraft=%.2fx "
      "snapshots=%d step=%.0fs\n",
      config.num_cities, config.num_pairs, config.relay_spacing_deg,
      config.aircraft_scale, config.num_snapshots, config.step_sec);
}

}  // namespace leosim::bench
