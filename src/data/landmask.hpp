// Land/water classification (substitute for the `global-land-mask` package
// the paper used; DESIGN.md §3).
//
// The mask is a set of hand-digitized coarse polygons for the continents
// and major islands (land_polygons.cpp), queried with bounding-box-filtered
// ray casting. Fidelity is a few degrees along coastlines — ample for the
// two uses in the pipeline: classifying aircraft as over-water and
// restricting relay ground stations to land.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace leosim::data {

// A simple (non-self-intersecting) polygon in (longitude, latitude)
// degrees. Vertices must not cross the antimeridian; large landmasses that
// do are split into multiple polygons.
struct LandPolygon {
  std::string name;
  std::vector<std::pair<double, double>> lon_lat;
};

// The embedded coastline dataset.
const std::vector<LandPolygon>& LandPolygons();

class LandMask {
 public:
  LandMask();

  // Shared immutable instance (the dataset is static).
  static const LandMask& Instance();

  // True if the point is on land. Points south of 70S are treated as land
  // (Antarctica); points north of 85N as water (Arctic ice pack).
  bool IsLand(double latitude_deg, double longitude_deg) const;

  bool IsWater(double latitude_deg, double longitude_deg) const {
    return !IsLand(latitude_deg, longitude_deg);
  }

  // The land test along one latitude. Each polygon that spans the row has
  // its edge crossings computed once and sorted, so a query is a binary
  // search per polygon instead of a ray cast over its edges. Answers are
  // bit-identical to IsLand(latitude_deg, longitude_deg): same pole and
  // bounding-box rules, same crossing expression, same comparison.
  class Row {
   public:
    bool IsLand(double longitude_deg) const;

   private:
    friend class LandMask;
    struct Polygon {
      double min_lon, max_lon;
      std::size_t begin, end;  // its crossings in crossings_
    };
    bool all_land_{false};
    std::vector<Polygon> polygons_;
    std::vector<double> crossings_;
  };

  Row AtLatitude(double latitude_deg) const;

  // Fraction of `samples` uniformly-spread points (Fibonacci sphere) that
  // are land; used by tests to sanity-check the dataset (~29% of the Earth
  // is land).
  double LandFraction(int samples) const;

 private:
  struct IndexedPolygon {
    const LandPolygon* polygon;
    double min_lon, max_lon, min_lat, max_lat;
  };
  std::vector<IndexedPolygon> index_;
};

}  // namespace leosim::data
