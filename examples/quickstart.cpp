// Quickstart: build a Starlink-like hybrid network, route one city pair,
// and print the path. This is the smallest end-to-end use of the API.
//
//   ./quickstart [cityA] [cityB]      (defaults: London, New York)
#include <cstdio>

#include "core/cli_flags.hpp"
#include "core/network_builder.hpp"
#include "data/cities.hpp"
#include "geo/coordinates.hpp"
#include "graph/dijkstra.hpp"

using namespace leosim;

int Run(int argc, char** argv) {
  const std::string city_a = argc > 1 ? argv[1] : "London";
  const std::string city_b = argc > 2 ? argv[2] : "New York";

  // 1. A scenario bundles the constellation shell and link parameters.
  const core::Scenario scenario = core::Scenario::Starlink();

  // 2. Network options: hybrid = bent-pipe ground segment + laser ISLs.
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 3.0;  // coarse relay grid for a fast demo

  // 3. The model owns the world: cities, relays, aircraft, constellation.
  const core::NetworkModel model(scenario, options, data::AnchorCities());

  // 4. A snapshot freezes the moving constellation at one instant and
  //    exposes a weighted graph (weights = one-way latency in ms).
  const core::NetworkModel::Snapshot snap = model.BuildSnapshot(0.0);
  std::printf("snapshot: %d satellites, %d cities, %d relay GTs, %d aircraft, "
              "%d edges\n",
              snap.num_sats, snap.num_cities, snap.num_relays, snap.num_aircraft,
              snap.graph.NumEdges());

  // 5. Route between two cities.
  const int idx_a = model.CityIndex(city_a);
  const int idx_b = model.CityIndex(city_b);
  const auto path = graph::ShortestPath(snap.graph, snap.CityNode(idx_a),
                                        snap.CityNode(idx_b));
  if (!path.has_value()) {
    std::printf("%s and %s are not connected at t=0\n", city_a.c_str(),
                city_b.c_str());
    return 1;
  }

  std::printf("\n%s -> %s: RTT %.1f ms over %d hops\n", city_a.c_str(),
              city_b.c_str(), 2.0 * path->distance, path->HopCount());
  for (size_t i = 0; i < path->nodes.size(); ++i) {
    const graph::NodeId n = path->nodes[i];
    const geo::GeodeticCoord g =
        geo::EcefToGeodetic(snap.node_ecef[static_cast<size_t>(n)]);
    const char* kind = snap.IsSat(n)        ? "satellite"
                       : snap.IsCity(n)     ? "city GT"
                       : snap.IsRelay(n)    ? "relay GT"
                                            : "aircraft";
    std::printf("  %2zu. %-9s at (%6.1f, %7.1f) alt %.0f km\n", i, kind,
                g.latitude_deg, g.longitude_deg, g.altitude_km);
  }
  return 0;
}

int main(int argc, char** argv) {
  return leosim::core::RunMain(argc, argv, Run);
}
