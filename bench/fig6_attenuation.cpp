// Reproduces Fig. 6 (paper §6): CDF across city pairs of the 99.5th-
// percentile (0.5% exceedance) worst-link atmospheric attenuation, for BP
// paths (every up/down bounce counts) vs ISL paths (first/last radio hop
// only). Ku band: 14.25 GHz up / 11.7 GHz down.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/attenuation_study.hpp"
#include "core/report.hpp"
#include "core/stats.hpp"
#include "itur/slant_path.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 6: 99.5th-pct attenuation across pairs (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const std::vector<CityPair> pairs = bench::MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();

  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel isl(scenario,
                         bench::MakeOptions(config, ConnectivityMode::kIslOnly),
                         cities);

  const AttenuationDistributions result =
      RunAttenuationStudy(bp, isl, pairs, 0.0, 0.5);  // 99.5th percentile

  PrintBanner(std::cout, "Fig. 6: CDF of worst-link attenuation (dB), 0.5% exceedance");
  Table table({"percentile", "BP (dB)", "ISL (dB)"});
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    table.AddRow({FormatDouble(p, 0), FormatDouble(Percentile(result.bp_db, p)),
                  FormatDouble(Percentile(result.isl_db, p))});
  }
  table.Print(std::cout);

  const double median_gap = Median(result.bp_db) - Median(result.isl_db);
  std::printf("\nmedian BP-vs-ISL gap: %.2f dB (paper: >1 dB, i.e. ~11%% received "
              "power)\n", median_gap);
  std::printf("received power at median: BP %.0f%%, ISL %.0f%%\n",
              itur::ReceivedPowerFraction(Median(result.bp_db)) * 100.0,
              itur::ReceivedPowerFraction(Median(result.isl_db)) * 100.0);
  std::printf("unreachable pairs: BP %d, ISL %d (of %zu)\n", result.bp_unreachable,
              result.isl_unreachable, pairs.size());
  return bench::WriteObsOutputs(config);
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
