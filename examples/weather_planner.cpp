// Link-budget planning with the ITU-R attenuation chain: for a ground
// terminal site, print the attenuation breakdown (gas / cloud / rain /
// scintillation) across elevations and availability targets.
//
//   ./weather_planner [city] [freq_ghz]    (default: Singapore 14.25)
#include <cstdio>
#include <iostream>

#include "core/cli_flags.hpp"
#include "core/report.hpp"
#include "data/cities.hpp"
#include "itur/slant_path.hpp"

using namespace leosim;
using namespace leosim::core;

int Run(int argc, char** argv) {
  const std::string city = argc > 1 ? argv[1] : "Singapore";
  const double freq =
      argc > 2 ? core::ParseDouble("freq_ghz", argv[2], 1.0, 100.0) : 14.25;
  const data::City& site = data::FindCity(city);
  itur::SlantPathConfig config;
  config.frequency_ghz = freq;

  std::printf("atmospheric attenuation at %s (%.2f, %.2f), %.2f GHz\n",
              city.c_str(), site.latitude_deg, site.longitude_deg, freq);

  PrintBanner(std::cout, "breakdown at 0.5% exceedance (99.5% availability)");
  Table table({"elevation (deg)", "gas (dB)", "cloud (dB)", "rain (dB)",
               "scint (dB)", "total (dB)", "rx power"});
  for (const double el : {10.0, 20.0, 30.0, 45.0, 60.0, 90.0}) {
    const itur::AttenuationBreakdown b =
        itur::SlantPathAttenuation(site.Coord(), el, config, 0.5);
    table.AddRow({FormatDouble(el, 0), FormatDouble(b.gas_db), FormatDouble(b.cloud_db),
                  FormatDouble(b.rain_db), FormatDouble(b.scintillation_db),
                  FormatDouble(b.total_db),
                  FormatDouble(itur::ReceivedPowerFraction(b.total_db) * 100.0, 0) + "%"});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "availability sweep at 30 deg elevation");
  Table avail({"availability", "exceedance (%)", "total (dB)", "rx power"});
  for (const double p : {5.0, 1.0, 0.5, 0.1, 0.01}) {
    const double total = itur::SlantPathAttenuationDb(site.Coord(), 30.0, config, p);
    avail.AddRow({FormatDouble(100.0 - p, 2) + "%", FormatDouble(p, 2),
                  FormatDouble(total),
                  FormatDouble(itur::ReceivedPowerFraction(total) * 100.0, 0) + "%"});
  }
  avail.Print(std::cout);
  std::printf("\nhigher availability targets require surviving deeper fades — "
              "the MODCOD margin the paper's §6 discusses.\n");
  return 0;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
