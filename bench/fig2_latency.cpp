// Reproduces Fig. 2 (paper §4): CDFs across city pairs of (a) minimum RTT
// and (b) RTT variation (max - min) over a simulated day, for BP-only vs
// hybrid Starlink connectivity — plus the headline "+80% median / +422%
// 95th-percentile variation" statistics.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "core/stats.hpp"
#include "obs/json.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  // Optional plot export: --csv=PREFIX writes PREFIX_{min,range}_{bp,hybrid}.csv
  std::string csv_prefix;
  const bench::BenchConfig config = bench::ParseFlags(
      argc, argv, "--csv=PREFIX", [&csv_prefix](std::string_view arg) {
        const auto v = FlagValue(arg, "--csv");
        if (v) {
          csv_prefix = *v;
        }
        return v.has_value();
      });
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 2: min RTT and RTT variation CDFs (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            bench::MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const SnapshotSchedule schedule = bench::MakeSchedule(config);

  const LatencyStudyResult result = RunLatencyStudy(bp, hybrid, pairs, schedule);

  const std::vector<double> bp_min = result.MinRtts(result.bp);
  const std::vector<double> hy_min = result.MinRtts(result.hybrid);
  const std::vector<double> bp_range = result.Ranges(result.bp);
  const std::vector<double> hy_range = result.Ranges(result.hybrid);

  PrintBanner(std::cout, "Fig. 2(a): CDF of min RTT across city pairs (ms)");
  Table min_table({"percentile", "BP min RTT (ms)", "hybrid min RTT (ms)"});
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    min_table.AddRow({FormatDouble(p, 0), FormatDouble(Percentile(bp_min, p)),
                      FormatDouble(Percentile(hy_min, p))});
  }
  min_table.Print(std::cout);
  std::printf("max BP-vs-hybrid min-RTT difference: %.1f ms (paper: up to 57 ms)\n",
              Percentile(bp_min, 100.0) - Percentile(hy_min, 100.0));

  PrintBanner(std::cout, "Fig. 2(b): CDF of RTT variation (max-min) across pairs (ms)");
  Table range_table({"percentile", "BP range (ms)", "hybrid range (ms)"});
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    range_table.AddRow({FormatDouble(p, 0), FormatDouble(Percentile(bp_range, p)),
                        FormatDouble(Percentile(hy_range, p))});
  }
  range_table.Print(std::cout);

  const double median_increase =
      (Percentile(bp_range, 50.0) / std::max(Percentile(hy_range, 50.0), 1e-9) - 1.0) *
      100.0;
  const double p95_increase =
      (Percentile(bp_range, 95.0) / std::max(Percentile(hy_range, 95.0), 1e-9) - 1.0) *
      100.0;
  int csv_rc = 0;
  if (!csv_prefix.empty()) {
    const auto dump = [&](const std::string& name, std::vector<double> values) {
      const std::string path = csv_prefix + "_" + name + ".csv";
      std::ostringstream csv;
      WriteCdfCsv(csv, "rtt_ms", EmpiricalCdf(std::move(values), 200));
      if (!obs::WriteFile(path, csv.str())) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        csv_rc = 1;
      }
    };
    dump("min_bp", bp_min);
    dump("min_hybrid", hy_min);
    dump("range_bp", bp_range);
    dump("range_hybrid", hy_range);
    if (csv_rc == 0) {
      std::printf("\nwrote %s_{min,range}_{bp,hybrid}.csv\n", csv_prefix.c_str());
    }
  }

  std::printf("\nRTT-variation increase without ISLs: median %+.0f%% (paper: +80%%), "
              "95th-p %+.0f%% (paper: +422%%)\n",
              median_increase, p95_increase);
  std::printf("max hybrid range: %.1f ms (paper: <20 ms); max BP range: %.1f ms "
              "(paper: up to 100 ms)\n",
              Percentile(hy_range, 100.0), Percentile(bp_range, 100.0));
  const int rc = bench::WriteObsOutputs(config);
  return csv_rc != 0 ? csv_rc : rc;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
