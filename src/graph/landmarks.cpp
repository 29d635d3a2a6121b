#include "graph/landmarks.hpp"

#include <algorithm>
#include <limits>

#include "graph/components.hpp"
#include "graph/relay_contraction.hpp"

namespace leosim::graph {

namespace {

// Largest float not above d: the table's storage rounding. Rounding
// every entry the same way keeps the worst inflation of a difference
// below one float spacing (see LandmarkTable::Potential).
float RoundDown(double d) {
  float f = static_cast<float>(d);
  if (static_cast<double>(f) > d) {
    f = std::nextafter(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

}  // namespace

template <typename Adjacency>
void LandmarkTable::Rebuild(const Adjacency& g, DijkstraWorkspace& workspace) {
  landmarks_.clear();
  stride_ = 0;
  shave_ = 0.0;
  table_.clear();
  dst_row_.clear();

  const int n = g.NumNodes();
  const int k = std::min(num_landmarks_, n);
  if (k <= 0) {
    return;
  }

  // Seed inside the largest component: seeding from a node of a small
  // component (under bent-pipe connectivity node 0 is often an isolated
  // satellite) would confine every landmark to that component.
  const int num_components = ConnectedComponentsInto(g, &labels_, &stack_);
  sizes_.assign(static_cast<size_t>(num_components), 0);
  for (const int label : labels_) {
    ++sizes_[static_cast<size_t>(label)];
  }
  const int giant = static_cast<int>(
      std::max_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
  const NodeId origin = static_cast<NodeId>(
      std::find(labels_.begin(), labels_.end(), giant) - labels_.begin());

  // First landmark: the node farthest from the origin (the origin itself
  // when its component is a single node). Strict > keeps ties on the
  // lowest id.
  ShortestDistancesInto(g, origin, workspace, &row_);
  NodeId next = origin;
  double best = -1.0;
  for (int v = 0; v < n; ++v) {
    const double d = row_[static_cast<size_t>(v)];
    if (std::isfinite(d) && d > best) {
      best = d;
      next = v;
    }
  }

  // Farthest-point traversal: each round runs the new landmark's
  // Dijkstra, writes it straight into the node-major table as column l,
  // folds it into min_dist_, and picks the node farthest from the whole
  // chosen set. A chosen landmark has min_dist_ 0, so the d > 0
  // requirement never re-selects one; when no strictly-positive
  // candidate remains (tiny components) selection stops early with
  // fewer landmarks.
  const size_t width = static_cast<size_t>(k);
  table_.resize(static_cast<size_t>(n) * width);
  min_dist_.assign(static_cast<size_t>(n), kInfDistance);
  double max_finite = 0.0;
  while (true) {
    const size_t l = landmarks_.size();
    landmarks_.push_back(next);
    ShortestDistancesInto(g, next, workspace, &row_);
    for (int v = 0; v < n; ++v) {
      const double d = row_[static_cast<size_t>(v)];
      table_[static_cast<size_t>(v) * width + l] = RoundDown(d);
      if (d < min_dist_[static_cast<size_t>(v)]) {
        min_dist_[static_cast<size_t>(v)] = d;
      }
      if (std::isfinite(d) && d > max_finite) {
        max_finite = d;
      }
    }
    if (static_cast<int>(landmarks_.size()) == k) {
      break;
    }
    next = -1;
    best = 0.0;
    for (int v = 0; v < n; ++v) {
      const double d = min_dist_[static_cast<size_t>(v)];
      if (std::isfinite(d) && d > best) {
        best = d;
        next = v;
      }
    }
    if (next < 0) {
      break;
    }
  }

  // Early stop: compact the rows in place to the chosen width (row v
  // moves to a position at or before its current one, so walking up
  // never overwrites an unread entry).
  stride_ = static_cast<int>(landmarks_.size());
  const size_t stride = static_cast<size_t>(stride_);
  if (stride < width) {
    for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
      std::copy_n(table_.begin() + static_cast<std::ptrdiff_t>(v * width),
                  stride,
                  table_.begin() + static_cast<std::ptrdiff_t>(v * stride));
    }
    table_.resize(static_cast<size_t>(n) * stride);
  }
  const float top = RoundDown(max_finite);
  shave_ = static_cast<double>(
               std::nextafter(top, std::numeric_limits<float>::infinity())) -
           static_cast<double>(top);
  dst_row_.assign(stride, 0.0);
}

template void LandmarkTable::Rebuild(const Graph&, DijkstraWorkspace&);
template void LandmarkTable::Rebuild(const RelayContraction&, DijkstraWorkspace&);

void LandmarkTable::SetDestination(NodeId dst) {
  const float* row =
      table_.data() + static_cast<size_t>(dst) * static_cast<size_t>(stride_);
  for (int l = 0; l < stride_; ++l) {
    dst_row_[static_cast<size_t>(l)] = static_cast<double>(row[l]);
  }
}

}  // namespace leosim::graph
