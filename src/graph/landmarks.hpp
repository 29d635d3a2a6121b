// ALT landmark potentials (A*, Landmarks, Triangle inequality) for the
// snapshot graphs: precompute shortest-path distances from a small set
// of landmark nodes, then lower-bound the distance from any node v to a
// query destination t by max_L |d(L, v) - d(L, t)| — the triangle
// inequality both ways round. Unlike the Euclidean straight-line bound,
// the landmark bound needs no node geometry and stays tight through
// relay chains whose latency is far above the straight line.
//
// The table costs one full Dijkstra per landmark to build, so it only
// pays off when many point-to-point queries hit one graph; the per-slot
// router (core/slot_router.hpp) decides when, and rebuilds the table for
// every slot and connectivity mode it routes.
#pragma once

#include <cmath>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace leosim::graph {

// Safety factor applied to every geometric/landmark A* potential. The
// bound is exact in real arithmetic; shaving one part in 1e12 keeps it
// admissible under floating-point rounding (per-edge rounding errors
// are ~1e-16 relative) without measurably loosening it.
inline constexpr double kPotentialSlack = 1.0 - 1e-12;

class LandmarkTable {
 public:
  // Sixteen landmarks is the classic ALT sweet spot: the bound stops
  // improving much beyond that on mesh-like graphs, and sixteen float32
  // entries fill exactly one 64-byte cache line per node.
  static constexpr int kDefaultNumLandmarks = 16;

  explicit LandmarkTable(int num_landmarks = kDefaultNumLandmarks)
      : num_landmarks_(num_landmarks) {}

  // Selects landmarks by farthest-point traversal inside the graph's
  // largest connected component (ties to the lowest component label):
  // the first landmark is the node farthest from that component's
  // lowest-id node, each next one the node maximising the minimum
  // distance to the chosen set; ties break to the lowest id, keeping
  // selection deterministic. Then fills the distance table, one
  // ShortestDistancesInto per landmark. Nodes outside the largest
  // component get +inf rows, so queries there fall back to a zero
  // potential (plain Dijkstra order). `workspace` is scratch for the
  // landmark Dijkstras. Instantiated for Graph and RelayContraction.
  template <typename Adjacency>
  void Rebuild(const Adjacency& g, DijkstraWorkspace& workspace);

  // Prepares Potential() for queries toward `dst`: copies dst's row of
  // the table so the per-node evaluation reads one table line and one
  // short resident array.
  void SetDestination(NodeId dst);

  // Admissible lower bound on the shortest-path distance from n to the
  // destination set by SetDestination. Each landmark L contributes
  // |d(L, n) - d(L, dst)| <= d(n, dst). The table stores each distance
  // in float32 rounded toward -inf, which can inflate one difference by
  // less than the float spacing at the largest finite entry; subtracting
  // that spacing (shave_) restores the bound, and kPotentialSlack covers
  // the double-precision rounding as for the Euclidean bound. The
  // rounding can cost exact consistency, never admissibility: RunAStar
  // keeps no closed set and re-relaxes any node that improves, so it
  // stays exact. A NaN contribution (both entries +inf: n and dst lie
  // outside the largest component) is skipped; a one-sided +inf means n
  // cannot reach dst at all, and +inf is then the exact distance.
  double Potential(NodeId n) const {
    const float* row =
        table_.data() + static_cast<size_t>(n) * static_cast<size_t>(stride_);
    double best = 0.0;
    for (int l = 0; l < stride_; ++l) {
      const double diff =
          std::fabs(static_cast<double>(row[l]) - dst_row_[static_cast<size_t>(l)]);
      best = diff > best ? diff : best;
    }
    return best > shave_ ? kPotentialSlack * (best - shave_) : 0.0;
  }

  const std::vector<NodeId>& landmarks() const { return landmarks_; }

 private:
  int num_landmarks_{kDefaultNumLandmarks};
  std::vector<NodeId> landmarks_;
  int stride_{0};               // == landmarks_.size()
  std::vector<float> table_;    // node-major: table_[n * stride_ + l]
  std::vector<double> dst_row_; // active destination's row, stride_ wide
  double shave_{0.0};           // float spacing at the largest finite entry
  // Rebuild scratch, kept warm across slots.
  std::vector<double> row_;       // one landmark's distance row
  std::vector<double> min_dist_;  // farthest-point selection state
  std::vector<int> labels_;       // component labels for seeding
  std::vector<int> sizes_;        // component sizes
  std::vector<NodeId> stack_;     // component DFS scratch
};

}  // namespace leosim::graph
