// Demonstrates building a constellation from a TLE catalogue instead of
// an idealised Walker shell. Reads a 2-line or 3-line catalogue from a
// file (or, with no argument, generates a small synthetic catalogue so
// the example is runnable offline), then reports the constellation and a
// sample pass prediction.
//
//   ./tle_ingest [catalogue.tle]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cli_flags.hpp"
#include "geo/geodesic.hpp"
#include "orbit/ground_track.hpp"
#include "orbit/tle.hpp"

using namespace leosim;

namespace {

// Builds a valid synthetic catalogue: one 12-satellite plane at 550 km.
std::string SyntheticCatalogue() {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    char line1[70];
    char line2[70];
    std::snprintf(line1, sizeof(line1),
                  "1 %05dU 20001A   20001.00000000  .00000000  00000-0  00000-0 0  999",
                  45000 + i);
    std::snprintf(line2, sizeof(line2),
                  "2 %05d  53.0000 120.0000 0001000 000.0000 %8.4f 15.05000000    1",
                  45000 + i, i * 30.0);
    std::string l1(line1);
    std::string l2(line2);
    l1 += static_cast<char>('0' + orbit::TleChecksum(l1));
    l2 += static_cast<char>('0' + orbit::TleChecksum(l2));
    text += "DEMOSAT-" + std::to_string(i) + "\n" + l1 + "\n" + l2 + "\n";
  }
  return text;
}

}  // namespace

int Run(int argc, char** argv) {
  std::string text;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::printf("cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  } else {
    std::printf("no catalogue given; using a built-in synthetic one\n\n");
    text = SyntheticCatalogue();
  }

  const std::vector<orbit::Tle> tles = orbit::ParseTleCatalog(text);
  if (tles.empty()) {
    std::printf("no element sets found\n");
    return 1;
  }
  std::printf("parsed %zu element sets\n", tles.size());
  for (size_t i = 0; i < std::min<size_t>(tles.size(), 5); ++i) {
    const orbit::Tle& t = tles[i];
    std::printf("  %-14s cat %5d  alt %6.1f km  incl %5.2f deg  raan %7.2f\n",
                t.name.empty() ? "(unnamed)" : t.name.c_str(), t.catalog_number,
                t.AltitudeKm(), t.inclination_deg, t.raan_deg);
  }

  const orbit::Constellation constellation = orbit::ConstellationFromTles(tles);
  std::printf("\nconstellation: %d satellites, mean altitude %.0f km, mean "
              "inclination %.1f deg\n",
              constellation.NumSatellites(), constellation.shell(0).altitude_km,
              constellation.shell(0).inclination_deg);

  // Pass prediction for the first satellite over Zurich.
  const geo::GeodeticCoord zurich{47.38, 8.54, 0.0};
  const auto pass =
      orbit::FindNextPass(constellation.orbit(0), zurich, 25.0, 0.0, 86400.0);
  if (pass.has_value()) {
    std::printf("next pass of sat 0 over Zurich: rise t+%.0f s, duration %.0f s, "
                "max elevation %.1f deg\n",
                pass->rise_time_sec, pass->DurationSec(), pass->max_elevation_deg);
  } else {
    std::printf("sat 0 never rises over Zurich in the next 24 h\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
