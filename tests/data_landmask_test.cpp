#include "data/landmask.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "data/cities.hpp"

namespace leosim::data {
namespace {

struct LatLon {
  const char* what;
  double lat, lon;
};

class LandPointTest : public ::testing::TestWithParam<LatLon> {};

TEST_P(LandPointTest, IsLand) {
  const LatLon p = GetParam();
  EXPECT_TRUE(LandMask::Instance().IsLand(p.lat, p.lon)) << p.what;
}

INSTANTIATE_TEST_SUITE_P(
    ContinentalInteriors, LandPointTest,
    ::testing::Values(LatLon{"Kansas", 38.5, -98.0}, LatLon{"Amazon", -5.0, -60.0},
                      LatLon{"Sahara", 23.0, 10.0}, LatLon{"Siberia", 60.0, 100.0},
                      LatLon{"Central Europe", 50.0, 15.0},
                      LatLon{"Central India", 22.0, 79.0},
                      LatLon{"Outback", -25.0, 135.0},
                      LatLon{"Congo", -2.0, 23.0}, LatLon{"Iran", 33.0, 55.0},
                      LatLon{"Greenland interior", 72.0, -40.0},
                      LatLon{"Borneo interior", 1.0, 114.0},
                      LatLon{"Madagascar interior", -19.0, 46.5},
                      LatLon{"Antarctica", -80.0, 0.0}));

class WaterPointTest : public ::testing::TestWithParam<LatLon> {};

TEST_P(WaterPointTest, IsWater) {
  const LatLon p = GetParam();
  EXPECT_TRUE(LandMask::Instance().IsWater(p.lat, p.lon)) << p.what;
}

INSTANTIATE_TEST_SUITE_P(
    OpenOcean, WaterPointTest,
    ::testing::Values(LatLon{"North Atlantic", 45.0, -35.0},
                      LatLon{"South Atlantic", -25.0, -15.0},
                      LatLon{"North Pacific", 35.0, -160.0},
                      LatLon{"South Pacific", -30.0, -120.0},
                      LatLon{"Indian Ocean", -20.0, 80.0},
                      LatLon{"Southern Ocean", -55.0, 100.0},
                      LatLon{"Arctic", 87.0, 0.0},
                      LatLon{"Gulf of Mexico", 25.5, -92.0},
                      LatLon{"Mediterranean central", 35.5, 18.0},
                      LatLon{"Tasman Sea", -38.0, 160.0},
                      LatLon{"Bay of Bengal", 12.0, 88.0},
                      LatLon{"Arabian Sea", 15.0, 65.0},
                      LatLon{"Coral Sea", -18.0, 155.0}));

TEST(LandMaskTest, GlobalLandFractionPlausible) {
  // True land fraction is ~0.29; the coarse polygons should land within a
  // generous band around that.
  const double fraction = LandMask::Instance().LandFraction(20000);
  EXPECT_GT(fraction, 0.22);
  EXPECT_LT(fraction, 0.38);
}

TEST(LandMaskTest, MostAnchorCitiesOnLand) {
  // Coastal metros can fall just outside the coarse coastline; require the
  // vast majority to classify as land.
  const LandMask& mask = LandMask::Instance();
  int on_land = 0;
  for (const City& c : AnchorCities()) {
    if (mask.IsLand(c.latitude_deg, c.longitude_deg)) {
      ++on_land;
    }
  }
  const double fraction = static_cast<double>(on_land) / AnchorCities().size();
  EXPECT_GT(fraction, 0.85) << on_land << "/" << AnchorCities().size();
}

TEST(LandMaskTest, LongitudeWrappingHandled) {
  const LandMask& mask = LandMask::Instance();
  EXPECT_EQ(mask.IsLand(-25.0, 135.0), mask.IsLand(-25.0, 135.0 - 360.0));
  EXPECT_EQ(mask.IsLand(45.0, -35.0), mask.IsLand(45.0, -35.0 + 360.0));
}

TEST(LandMaskTest, RowQueryMatchesIsLand) {
  // Every cell of the grids the relay builder walks, plus each cell's
  // longitude shifted by a turn either way.
  const LandMask& mask = LandMask::Instance();
  for (const double spacing : {0.5, 0.7, 3.0}) {
    const int lat_cells = static_cast<int>(std::lround(180.0 / spacing));
    const int lon_cells = static_cast<int>(std::lround(360.0 / spacing));
    int land = 0;
    for (int li = 0; li < lat_cells; ++li) {
      const double lat = -90.0 + li * spacing;
      const LandMask::Row row = mask.AtLatitude(lat);
      for (int wi = 0; wi < lon_cells; ++wi) {
        const double lon = -180.0 + wi * spacing;
        const bool want = mask.IsLand(lat, lon);
        ASSERT_EQ(row.IsLand(lon), want) << spacing << ": " << lat << ", " << lon;
        ASSERT_EQ(row.IsLand(lon + 360.0), mask.IsLand(lat, lon + 360.0)) << lat << ", " << lon;
        ASSERT_EQ(row.IsLand(lon - 360.0), mask.IsLand(lat, lon - 360.0)) << lat << ", " << lon;
        land += want ? 1 : 0;
      }
    }
    // Both answers, not one: the rows really cross coastlines.
    EXPECT_GT(land, lat_cells * lon_cells / 5) << spacing;
    EXPECT_LT(land, lat_cells * lon_cells / 2) << spacing;
  }
  // Rows on polygon vertex latitudes and bounding-box edges.
  for (const LandPolygon& poly : LandPolygons()) {
    for (const auto& [vertex_lon, vertex_lat] : poly.lon_lat) {
      const LandMask::Row row = mask.AtLatitude(vertex_lat);
      for (const double dlon : {-1.0, -1e-9, 0.0, 1e-9, 1.0}) {
        ASSERT_EQ(row.IsLand(vertex_lon + dlon), mask.IsLand(vertex_lat, vertex_lon + dlon))
            << poly.name << ": " << vertex_lat << ", " << vertex_lon + dlon;
      }
    }
  }
}

TEST(LandMaskTest, PolygonsDoNotCrossAntimeridian) {
  for (const LandPolygon& poly : LandPolygons()) {
    for (size_t i = 0; i + 1 < poly.lon_lat.size(); ++i) {
      const double span =
          std::abs(poly.lon_lat[i + 1].first - poly.lon_lat[i].first);
      EXPECT_LT(span, 180.0) << poly.name << " vertex " << i;
    }
  }
}

TEST(LandMaskTest, PolygonsHaveAtLeastThreeVertices) {
  for (const LandPolygon& poly : LandPolygons()) {
    EXPECT_GE(poly.lon_lat.size(), 3u) << poly.name;
  }
}

}  // namespace
}  // namespace leosim::data
