// Great-circle geometry on the spherical Earth, plus ground-to-satellite
// viewing geometry (elevation, slant range, coverage radius).
#pragma once

#include "geo/coordinates.hpp"
#include "geo/vec3.hpp"

namespace leosim::geo {

// Great-circle (geodesic) surface distance between two points, km.
// Altitudes are ignored; the haversine formula is used for numerical
// stability at small separations.
double GreatCircleDistanceKm(const GeodeticCoord& a, const GeodeticCoord& b);

// Point reached after travelling `fraction` (in [0,1]) of the great circle
// from a to b. Altitude is linearly interpolated.
GeodeticCoord IntermediatePoint(const GeodeticCoord& a, const GeodeticCoord& b,
                                double fraction);

// Point at `distance_km` along the great circle from `start` in direction
// `bearing_deg` (clockwise from north). Altitude is preserved.
GeodeticCoord DestinationPoint(const GeodeticCoord& start, double bearing_deg,
                               double distance_km);

// Elevation angle of `target` as seen from `observer` (both ECEF, km),
// degrees above the local horizontal; negative when below the horizon.
double ElevationAngleDeg(const Vec3& observer, const Vec3& target);

// Ground-coverage radius of a satellite at altitude `altitude_km` for
// terminals requiring at least `min_elevation_deg`: the great-circle radius
// (km) of the disc of terminals that can see the satellite.
// For Starlink (h=550 km, e=25 deg) this yields ~941 km, matching the paper.
double CoverageRadiusKm(double altitude_km, double min_elevation_deg);

// Maximum slant range (km) from a terminal to a satellite at
// `altitude_km` seen at exactly `min_elevation_deg`.
double MaxSlantRangeKm(double altitude_km, double min_elevation_deg);

// Minimum altitude (km) above the Earth's surface reached by the straight
// segment between two ECEF positions. Used to check that ISLs do not graze
// the lower atmosphere (the paper requires >= ~80 km).
double SegmentMinAltitudeKm(const Vec3& a, const Vec3& b);

}  // namespace leosim::geo
