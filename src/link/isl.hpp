// Laser inter-satellite link parameters (paper §2: 100 Gbps-class laser
// links forming a +Grid). No atmosphere-grazing check is made: the lowest
// ISL chord of the Starlink and Kuiper shells stays 479.55 km and 599.0 km
// up (orbit::MinIslAltitudeKm; see DESIGN.md §1, row S3).
#pragma once

namespace leosim::link {

struct IslConfig {
  double capacity_gbps{100.0};
};

}  // namespace leosim::link
