#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace leosim::graph {

namespace {

// Disabled edges are encoded as +infinity in the CSR weight copies so
// relaxation loops skip them arithmetically (see graph.hpp).
constexpr double kDisabledWeight = std::numeric_limits<double>::infinity();

double HalfWeight(const EdgeRecord& rec) {
  return rec.enabled ? rec.weight : kDisabledWeight;
}

void CheckEdgeArgs(NodeId a, NodeId b, double weight, int num_nodes) {
  if (a < 0 || b < 0 || a >= num_nodes || b >= num_nodes) {
    throw std::out_of_range("edge endpoint out of range");
  }
  if (a == b) {
    throw std::invalid_argument("self-loops are not allowed");
  }
  if (!(weight >= 0.0) || weight == kDisabledWeight) {
    throw std::invalid_argument("edge weight must be non-negative and finite");
  }
}

}  // namespace

Graph::Graph(int num_nodes) {
  if (num_nodes < 0) {
    throw std::invalid_argument("graph must have a non-negative node count");
  }
  num_nodes_ = num_nodes;
}

void Graph::Reset(int num_nodes) {
  if (num_nodes < 0) {
    throw std::invalid_argument("graph must have a non-negative node count");
  }
  num_nodes_ = num_nodes;
  edges_.clear();
  adjacency_current_ = false;
}

void Graph::ReserveEdges(size_t num_edges) {
  // An exact reserve would reallocate at every rebuild whose edge count
  // creeps above the last one's, as a workspace's slot after slot does.
  if (edges_.capacity() < num_edges) {
    edges_.reserve(std::max(num_edges, 2 * edges_.capacity()));
  }
}

EdgeId Graph::AddEdge(NodeId a, NodeId b, double weight, double capacity) {
  CheckEdgeArgs(a, b, weight, NumNodes());
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({a, b, weight, capacity, true});
  adjacency_current_ = false;
  return id;
}

void Graph::SetEnabled(EdgeId e, bool enabled) {
  EdgeRecord& rec = edges_[static_cast<size_t>(e)];
  rec.enabled = enabled;
  if (adjacency_current_) {
    const double w = HalfWeight(rec);
    half_edges_[static_cast<size_t>(half_pos_a_[static_cast<size_t>(e)])].weight = w;
    half_edges_[static_cast<size_t>(half_pos_b_[static_cast<size_t>(e)])].weight = w;
  }
}

void Graph::EnsureAdjacency() const {
  if (adjacency_current_) {
    return;
  }
  // Pass 1: per-node degree counts into offsets_[n + 1], then prefix-sum.
  offsets_.assign(static_cast<size_t>(num_nodes_) + 1, 0);
  for (const EdgeRecord& e : edges_) {
    ++offsets_[static_cast<size_t>(e.a) + 1];
    ++offsets_[static_cast<size_t>(e.b) + 1];
  }
  for (size_t n = 1; n < offsets_.size(); ++n) {
    offsets_[n] += offsets_[n - 1];
  }
  // Pass 2: fill, advancing a per-node cursor. Within one node's list the
  // halves land in edge-id (= insertion) order, matching the historical
  // vector-of-vectors layout exactly.
  half_edges_.resize(2 * edges_.size());
  half_pos_a_.resize(edges_.size());
  half_pos_b_.resize(edges_.size());
  std::vector<int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < edges_.size(); ++i) {
    const EdgeRecord& e = edges_[i];
    const EdgeId id = static_cast<EdgeId>(i);
    const double w = HalfWeight(e);
    const int32_t pa = cursor[static_cast<size_t>(e.a)]++;
    half_edges_[static_cast<size_t>(pa)] = {e.b, id, w};
    half_pos_a_[i] = pa;
    const int32_t pb = cursor[static_cast<size_t>(e.b)]++;
    half_edges_[static_cast<size_t>(pb)] = {e.a, id, w};
    half_pos_b_[i] = pb;
  }
  adjacency_current_ = true;
}

}  // namespace leosim::graph
