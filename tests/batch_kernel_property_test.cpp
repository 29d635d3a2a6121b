// Property tests for the SoA batch kernels (DESIGN.md §7): the batched
// propagation / frame-rotation / visibility pipeline must be
// *bit-identical* to the scalar per-satellite chain — same doubles, not
// merely close — over ≥50 seeded random epochs, for both evaluation
// shells plus the polar shell, and for ground terminals at the poles
// and astride the antimeridian where the index's cell arithmetic wraps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "geo/coordinates.hpp"
#include "geo/geodesic.hpp"
#include "geo/soa.hpp"
#include "geo/vec3.hpp"
#include "link/radio.hpp"
#include "link/visibility.hpp"
#include "orbit/propagator.hpp"
#include "orbit/walker.hpp"

namespace leosim {
namespace {

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

::testing::AssertionResult VecBitEq(const geo::Vec3& a, const geo::Vec3& b) {
  if (BitEq(a.x, b.x) && BitEq(a.y, b.y) && BitEq(a.z, b.z)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "(" << a.x << ", " << a.y << ", " << a.z << ") vs (" << b.x
         << ", " << b.y << ", " << b.z << ")";
}

// Fifty deterministic epochs spanning several orbital periods, plus the
// exact epoch 0 and a large-t case where u = u0 + n*t has grown far
// past 2*pi (no angle reduction may sneak into either path).
std::vector<double> Epochs(uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 6.0 * 3600.0);
  std::vector<double> times = {0.0, 30.0 * 24.0 * 3600.0};
  while (times.size() < 52) {
    times.push_back(dist(rng));
  }
  return times;
}

// Batched positions (PropagateBatch -> EciToEcefBatch -> PackInto) vs
// the scalar reference path, bit-for-bit per component.
void CheckConstellation(const orbit::Constellation& cons, uint32_t seed) {
  geo::Soa3 soa;
  std::vector<geo::Vec3> batch_ecef;
  std::vector<geo::Vec3> scalar_ecef;
  for (const double t : Epochs(seed)) {
    cons.PropagateBatch(t, &soa);
    ASSERT_EQ(static_cast<int>(soa.size()), cons.NumSatellites());
    // The SoA block holds PositionEci verbatim before the frame
    // rotation.
    for (int i = 0; i < cons.NumSatellites(); i += 97) {
      ASSERT_TRUE(VecBitEq(soa.At(i), cons.orbit(i).PositionEci(t)))
          << "sat " << i << " t=" << t;
    }
    geo::EciToEcefBatch(t, &soa);
    geo::PackInto(soa, &batch_ecef);
    cons.PositionsEcefInto(t, &scalar_ecef);
    ASSERT_EQ(batch_ecef.size(), scalar_ecef.size());
    for (size_t i = 0; i < scalar_ecef.size(); ++i) {
      ASSERT_TRUE(VecBitEq(batch_ecef[i], scalar_ecef[i]))
          << "position, sat " << i << " t=" << t;
    }
  }
}

TEST(BatchKernelProperty, StarlinkShellBitIdentical) {
  CheckConstellation(orbit::Constellation::WalkerDelta(orbit::StarlinkShell1()),
                     /*seed=*/101);
}

TEST(BatchKernelProperty, KuiperShellBitIdentical) {
  CheckConstellation(orbit::Constellation::WalkerDelta(orbit::KuiperShell1()),
                     /*seed=*/202);
}

TEST(BatchKernelProperty, MultiShellWithPolarBitIdentical) {
  orbit::Constellation cons =
      orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  cons.AddShell(orbit::PolarShell());
  CheckConstellation(cons, /*seed=*/303);
}

TEST(BatchKernelProperty, HeterogeneousElementsFallBackBitIdentical) {
  // FromElements with per-satellite radii/inclinations defeats the
  // uniform-shell fast path; the scalar fallback must still match the
  // reference exactly.
  orbit::OrbitalShell meta;
  meta.name = "hetero";
  meta.num_planes = 4;
  meta.sats_per_plane = 5;
  std::vector<orbit::CircularOrbitElements> elements;
  std::mt19937 rng(404);
  std::uniform_real_distribution<double> alt(500.0, 1200.0);
  std::uniform_real_distribution<double> ang(0.0, 360.0);
  std::uniform_real_distribution<double> inc(40.0, 98.0);
  for (int i = 0; i < meta.TotalSatellites(); ++i) {
    orbit::CircularOrbitElements e;
    e.altitude_km = alt(rng);
    e.inclination_deg = inc(rng);
    e.raan_deg = ang(rng);
    e.arg_latitude_epoch_deg = ang(rng);
    elements.push_back(e);
  }
  CheckConstellation(orbit::Constellation::FromElements(meta, elements),
                     /*seed=*/505);
}

// The fused visibility query: same visible SET as the sorted scalar
// query (order may differ — cell-scan vs ascending id), ranges
// bit-identical to ground.DistanceTo(sat), agreement with brute force.
TEST(BatchKernelProperty, VisibleWithRangeMatchesScalarAtPolesAndAntimeridian) {
  const orbit::Constellation cons =
      orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const double min_el = 25.0;
  const double coverage =
      geo::CoverageRadiusKm(orbit::StarlinkShell1().altitude_km, min_el);

  const std::vector<geo::GeodeticCoord> terminals = {
      {89.9, 0.0},    {-89.9, 120.0},  // poles: every lon cell is "near"
      {51.5, 179.95}, {-33.9, -179.95},  // antimeridian wrap, both sides
      {0.0, 0.0},     {47.6, -122.3},
  };

  geo::Soa3 soa;
  std::vector<geo::Vec3> sat_ecef;
  link::SatelliteIndex index;
  std::vector<int> sorted_ids;
  std::vector<int> fused_ids;
  std::vector<double> fused_ranges;
  std::mt19937 rng(606);
  std::uniform_real_distribution<double> dist(0.0, 2.0 * 3600.0);
  for (int epoch = 0; epoch < 50; ++epoch) {
    const double t = dist(rng);
    cons.PropagateBatch(t, &soa);
    geo::EciToEcefBatch(t, &soa);
    geo::PackInto(soa, &sat_ecef);
    // The SoA rebuild must index the identical snapshot the packed
    // rebuild would.
    index.Rebuild(soa, coverage + 100.0);
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
        ASSERT_TRUE(BitEq(link::PropagationLatencyMs(fused_ranges[k]),
                          link::PropagationLatencyMs(ground, sat)));
      }
      // Same set as the id-sorted scalar query and as brute force.
      std::vector<int> fused_sorted = fused_ids;
      std::sort(fused_sorted.begin(), fused_sorted.end());
      ASSERT_EQ(fused_sorted, sorted_ids)
          << "terminal lat=" << g.latitude_deg << " lon=" << g.longitude_deg;
      ASSERT_EQ(fused_sorted,
                link::VisibleSatellitesBruteForce(ground, sat_ecef, min_el));
    }
  }
}

}  // namespace
}  // namespace leosim
