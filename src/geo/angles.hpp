// Angle conversion and normalization helpers.
#pragma once

#include <numbers>

namespace leosim::geo {

inline constexpr double kPi = std::numbers::pi;

constexpr double DegToRad(double deg) { return deg * kPi / 180.0; }
constexpr double RadToDeg(double rad) { return rad * 180.0 / kPi; }

// Normalizes an angle in degrees to [-180, 180).
double WrapLongitudeDeg(double lon_deg);

}  // namespace leosim::geo
