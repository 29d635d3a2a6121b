// Geodetic / Earth-centred coordinate systems and conversions.
//
// The library uses a spherical Earth of mean radius kEarthRadiusKm,
// matching the fidelity of the paper (and of LEO simulators such as
// Hypatia).
#pragma once

#include "geo/vec3.hpp"

namespace leosim::geo {

// Mean Earth radius (IUGG), km.
inline constexpr double kEarthRadiusKm = 6371.0;

// Speed of light in vacuum, km/s. Radio and laser links both propagate at c.
inline constexpr double kSpeedOfLightKmPerSec = 299792.458;

// A position given as geodetic latitude/longitude (degrees) and altitude
// above the surface (km). Latitude in [-90, 90], longitude in [-180, 180).
struct GeodeticCoord {
  double latitude_deg{0.0};
  double longitude_deg{0.0};
  double altitude_km{0.0};

  constexpr bool operator==(const GeodeticCoord&) const = default;
};

// Geodetic -> Earth-centred Earth-fixed, spherical Earth. Units: km.
Vec3 GeodeticToEcef(const GeodeticCoord& g);

// ECEF -> geodetic, spherical Earth. Units: km.
GeodeticCoord EcefToGeodetic(const Vec3& ecef);

// The simulation epoch defines ECI == ECEF at t = 0; the Earth then rotates
// at kEarthRotationRadPerSec about +z. This is all the experiments need
// (absolute sidereal time is irrelevant to constellation geometry).
inline constexpr double kEarthRotationRadPerSec = 7.2921159e-5;

// ECI -> ECEF at `seconds_since_epoch`; a negative time rotates back.
Vec3 EciToEcef(const Vec3& eci, double seconds_since_epoch);

}  // namespace leosim::geo
