// Randomized property test: the cell-hashed SatelliteIndex must agree
// exactly with the brute-force visibility scan for arbitrary ground
// points — including the poles and the antimeridian, where the index's
// longitude wrapping and polar cell handling earn their keep — for both
// paper constellations' coverage radii — and the range-writing query the
// snapshot builder runs must return the same set with exact slant ranges.
// Seeded std::mt19937 (fixed seed), so failures reproduce
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "geo/geodesic.hpp"
#include "link/radio.hpp"
#include "link/visibility.hpp"
#include "orbit/walker.hpp"

namespace leosim::link {
namespace {

struct ShellCase {
  const char* name;
  orbit::OrbitalShell shell;
  double min_elevation_deg;
};

std::vector<ShellCase> ShellCases() {
  return {{"starlink", orbit::StarlinkShell1(), 25.0},
          {"kuiper", orbit::KuiperShell1(), 30.0}};
}

// Ground points that historically break lat/lon cell hashes: both poles,
// the antimeridian at several latitudes, and the exact +/-180 seam.
std::vector<geo::GeodeticCoord> AdversarialPoints() {
  return {{90.0, 0.0, 0.0},      {-90.0, 0.0, 0.0},    {89.9, 45.0, 0.0},
          {-89.9, -135.0, 0.0},  {0.0, 180.0, 0.0},    {0.0, -180.0, 0.0},
          {51.3, 179.99, 0.0},   {51.3, -179.99, 0.0}, {-44.5, 180.0, 0.0},
          {66.5, -179.5, 0.0},   {-66.5, 179.5, 0.0},  {0.0, 0.0, 0.0}};
}

TEST(VisibilityPropertyTest, IndexMatchesBruteForceOnRandomAndAdversarialPoints) {
  std::mt19937 rng(20260805u);
  // sin(lat) uniform => points uniform on the sphere (no polar clumping,
  // but the adversarial list covers the poles explicitly anyway).
  std::uniform_real_distribution<double> sin_lat(-1.0, 1.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> time_sec(0.0, 5400.0);

  for (const ShellCase& sc : ShellCases()) {
    const auto constellation = orbit::Constellation::WalkerDelta(sc.shell);
    const double coverage =
        geo::CoverageRadiusKm(sc.shell.altitude_km, sc.min_elevation_deg);

    std::vector<geo::Vec3> sats;
    SatelliteIndex index;
    std::vector<int> indexed;
    for (int round = 0; round < 3; ++round) {
      constellation.PositionsEcefInto(time_sec(rng), &sats);
      index.Rebuild(sats, coverage + 100.0);

      std::vector<geo::GeodeticCoord> probes = AdversarialPoints();
      for (int i = 0; i < 40; ++i) {
        const double lat =
            geo::RadToDeg(std::asin(sin_lat(rng)));
        probes.push_back({lat, lon(rng), 0.0});
      }

      for (const geo::GeodeticCoord& probe : probes) {
        const geo::Vec3 gt = geo::GeodeticToEcef(probe);
        const std::vector<int> brute =
            VisibleSatellitesBruteForce(gt, sats, sc.min_elevation_deg);
        index.VisibleInto(gt, sc.min_elevation_deg, &indexed);
        EXPECT_EQ(brute, indexed)
            << sc.name << " round=" << round << " lat=" << probe.latitude_deg
            << " lon=" << probe.longitude_deg;
      }
    }
  }
}

TEST(VisibilityPropertyTest, RebuildMatchesFreshIndex) {
  // Reusing one index across rebuilds must behave exactly like
  // constructing a fresh index per snapshot.
  const auto constellation =
      orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const double coverage = geo::CoverageRadiusKm(550.0, 25.0);
  const geo::Vec3 gt = geo::GeodeticToEcef({47.4, -122.3, 0.0});

  SatelliteIndex reused;
  for (const double t : {0.0, 930.0, 1860.0}) {
    const std::vector<geo::Vec3> sats = constellation.PositionsEcef(t);
    reused.Rebuild(sats, coverage + 100.0);
    const SatelliteIndex fresh(sats, coverage + 100.0);
    EXPECT_EQ(fresh.Visible(gt, 25.0), reused.Visible(gt, 25.0)) << "t=" << t;
  }
}

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// The range-writing query: same visible SET as the id-sorted query (order
// may differ — cell-scan vs ascending id), ranges bit-identical to
// ground.DistanceTo(sat), agreement with brute force.
TEST(VisibilityPropertyTest, VisibleWithRangeMatchesScalarAtPolesAndAntimeridian) {
  const auto constellation =
      orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const double min_el = 25.0;
  const double coverage =
      geo::CoverageRadiusKm(orbit::StarlinkShell1().altitude_km, min_el);

  const std::vector<geo::GeodeticCoord> terminals = {
      {89.9, 0.0},    {-89.9, 120.0},  // poles: every lon cell is "near"
      {51.5, 179.95}, {-33.9, -179.95},  // antimeridian wrap, both sides
      {0.0, 0.0},     {47.6, -122.3},
  };

  std::vector<geo::Vec3> sat_ecef;
  SatelliteIndex index;
  std::vector<int> sorted_ids;
  std::vector<int> fused_ids;
  std::vector<double> fused_ranges;
  std::mt19937 rng(606);
  std::uniform_real_distribution<double> dist(0.0, 2.0 * 3600.0);
  for (int epoch = 0; epoch < 50; ++epoch) {
    const double t = dist(rng);
    constellation.PositionsEcefInto(t, &sat_ecef);
    index.Rebuild(sat_ecef, coverage + 100.0);
    for (const geo::GeodeticCoord& g : terminals) {
      const geo::Vec3 ground = geo::GeodeticToEcef(g);
      index.VisibleInto(ground, min_el, &sorted_ids);
      index.VisibleWithRangeInto(ground, min_el, &fused_ids, &fused_ranges);
      ASSERT_EQ(fused_ids.size(), fused_ranges.size());
      // Ranges are |sat - ground| verbatim: the latency a builder
      // derives from them matches the scalar two-vector form.
      for (size_t k = 0; k < fused_ids.size(); ++k) {
        const geo::Vec3& sat = sat_ecef[static_cast<size_t>(fused_ids[k])];
        ASSERT_TRUE(BitEq(fused_ranges[k], ground.DistanceTo(sat)));
        ASSERT_TRUE(BitEq(PropagationLatencyMs(fused_ranges[k]),
                          PropagationLatencyMs(ground, sat)));
      }
      // Same set as the id-sorted query and as brute force.
      std::vector<int> fused_sorted = fused_ids;
      std::sort(fused_sorted.begin(), fused_sorted.end());
      ASSERT_EQ(fused_sorted, sorted_ids)
          << "terminal lat=" << g.latitude_deg << " lon=" << g.longitude_deg;
      ASSERT_EQ(fused_sorted, VisibleSatellitesBruteForce(ground, sat_ecef, min_el));
    }
  }
}

}  // namespace
}  // namespace leosim::link
