// Forwarding header: the routing-tier constants and the Euclidean A*
// potential now live with the router that applies them,
// core/slot_router.hpp. Kept so code that replays the pre-ALT tiers
// (kTreeBatchThreshold, EuclideanLatencyPotential) still builds.
#pragma once

#include "core/slot_router.hpp"
