#include "geo/angles.hpp"

#include <cmath>

namespace leosim::geo {

double WrapLongitudeDeg(double lon_deg) {
  double wrapped = std::fmod(lon_deg + 180.0, 360.0);
  if (wrapped < 0.0) {
    wrapped += 360.0;
  }
  return wrapped - 180.0;
}

}  // namespace leosim::geo
