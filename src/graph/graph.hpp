// Undirected weighted graph with per-edge capacities and soft edge
// disabling, sized for per-snapshot constellation topologies (tens of
// thousands of nodes, hundreds of thousands of edges).
//
// Adjacency is stored in CSR (compressed sparse row) form: one flat
// `half_edges_` array indexed by a per-node `offsets_` prefix-sum, built
// in two passes (count, fill) from the edge list. AddEdge only appends to
// the edge list; the CSR arrays are (re)built lazily on the first
// Neighbours() call after a mutation, so incremental construction stays
// O(1) per edge and a full build is O(V + E) with no per-node allocation.
//
// Each HalfEdge carries an inline copy of its edge's weight so traversal
// inner loops (Dijkstra relaxations) read one contiguous 16-byte-stride
// array instead of chasing EdgeRecord pointers. Disabled edges are
// encoded as weight = +infinity in the copies (finite weights are a
// graph-wide invariant): `d + inf` never relaxes, so relaxation loops
// need no enabled branch at all. SetEnabled keeps the copies in sync;
// the authoritative weight/enabled flag always lives in the EdgeRecord.
//
// Thread-safety: const queries are safe to share across threads only
// once the adjacency is built — call FinalizeAdjacency() (BuildSnapshot
// does) before handing a graph to concurrent readers. A stale graph's
// first Neighbours() call mutates internal caches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace leosim::graph {

using NodeId = int32_t;
using EdgeId = int32_t;

// One directed half of an undirected edge, stored in the CSR adjacency
// array. `weight` mirrors the owning EdgeRecord (+infinity when the edge
// is disabled) so traversal needs no indirection; `edge` links back for
// path reconstruction and the authoritative record. Kept at 16 bytes —
// four halves per cache line in the scan loop.
struct HalfEdge {
  NodeId to{0};
  EdgeId edge{0};
  double weight{0.0};
};

// Full undirected edge record.
struct EdgeRecord {
  NodeId a{0};
  NodeId b{0};
  double weight{0.0};    // latency (ms) in the experiment graphs
  double capacity{0.0};  // Gbps in the experiment graphs
  bool enabled{true};
};

class Graph {
 public:
  // Default: an empty graph (0 nodes); Reset() it into shape for reuse.
  explicit Graph(int num_nodes = 0);

  int NumNodes() const { return num_nodes_; }

  int NumEdges() const { return static_cast<int>(edges_.size()); }

  // Drops every edge and resizes to `num_nodes`, keeping allocated
  // capacity so a workspace can recycle one Graph across snapshots.
  void Reset(int num_nodes);

  // Makes room for `num_edges` edges in all, so that many AddEdge calls
  // never reallocate the edge list. Grows the capacity at least
  // geometrically, as AddEdge would.
  void ReserveEdges(size_t num_edges);

  // Adds an undirected edge; returns its EdgeId. Self-loops are rejected.
  // O(1) amortised (adjacency is rebuilt lazily).
  EdgeId AddEdge(NodeId a, NodeId b, double weight, double capacity = 0.0);

  std::span<const HalfEdge> Neighbours(NodeId n) const {
    EnsureAdjacency();
    const size_t begin = static_cast<size_t>(offsets_[static_cast<size_t>(n)]);
    const size_t end = static_cast<size_t>(offsets_[static_cast<size_t>(n) + 1]);
    return {half_edges_.data() + begin, end - begin};
  }

  const EdgeRecord& Edge(EdgeId e) const { return edges_[static_cast<size_t>(e)]; }

  bool IsEnabled(EdgeId e) const { return edges_[static_cast<size_t>(e)].enabled; }
  void SetEnabled(EdgeId e, bool enabled);

  // Builds the CSR adjacency now (idempotent). Required before sharing a
  // const Graph across threads; see the thread-safety note above.
  void FinalizeAdjacency() const { EnsureAdjacency(); }

  // The endpoint of edge `e` that is not `from`.
  NodeId OtherEnd(EdgeId e, NodeId from) const {
    const EdgeRecord& rec = Edge(e);
    return rec.a == from ? rec.b : rec.a;
  }

 private:
  void EnsureAdjacency() const;

  int num_nodes_{0};
  std::vector<EdgeRecord> edges_;

  // CSR adjacency caches, rebuilt lazily after mutations (hence mutable).
  // Node n's row is half_edges_[offsets_[n] .. offsets_[n + 1]).
  mutable std::vector<int32_t> offsets_;  // num_nodes_ + 1 prefix sums
  mutable std::vector<HalfEdge> half_edges_;
  // Positions of each edge's two halves inside half_edges_, so SetEnabled
  // can patch the inline weight copies without a rebuild.
  mutable std::vector<int32_t> half_pos_a_;
  mutable std::vector<int32_t> half_pos_b_;
  mutable bool adjacency_current_{false};
};

}  // namespace leosim::graph
