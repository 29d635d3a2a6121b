// Relay contraction of a snapshot graph. In the paper's networks (§3)
// ground relays and aircraft are pure transit hops: each one links only
// to satellites, so every route through it is a two-edge detour from
// one satellite to another. A contraction keeps the other nodes under
// their ids and replaces each contracted node r by virtual arcs a -> b,
// one per pair of its neighbours, that carry both halves (r, w(a, r),
// w(r, b)). On the paper-scale snapshot (0.5 deg grid) that turns a
// 61.5k-node graph into 2.6k nodes, and the searches run on that.
//
// Exactness. A detour arc relaxes as (d + w(a, r)) + w(r, b): the same
// two additions, in the same order, that a search on the source graph
// makes through r. Rounding is monotone, so min over a of
// fl(fl(d(a) + w(a, r)) + w(r, b)) equals fl(d(r) + w(r, b)) with d(r)
// the source graph's label of r: every kept node's distance is the
// source graph's bit for bit. A pre-summed arc weight would round
// differently. Per ordered pair (a, b) only the relays whose sum
// w(a, r) + w(r, b) lies within a relative kNearTieRelative of the
// pair's minimum are kept. A dropped relay's sum is larger than the
// minimum by more than 1e-12 of it, while the two additions round by at
// most about 1.1e-16 of d + w each; so as long as path lengths stay
// below about 2,000 times the shortest detour (seconds against the
// milliseconds of one relay hop) a dropped relay cannot round to the
// minimum, and the kept set gives the same distances.
//
// Paths. Searches on a contraction are label-only (RunDijkstra, a tree,
// RunAStar). The labels are the source graph's, but on an exact tie the
// predecessor arcs can form another chain than Dijkstra on the source
// graph would take. ExpandPath is the one place a contracted search
// becomes a path: it maps the chain back to source-graph nodes and
// edges, checks it on the contracted rows, and reruns Dijkstra on the
// source graph when the check fails; see there.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace leosim::graph {

// Relative width of the near-tie band: a detour arc is kept when its
// relay's two-hop sum is within this fraction of the pair's minimum.
inline constexpr double kNearTieRelative = 1e-12;

// One arc of a RelayContraction. A direct edge of the source graph has
// weight = its weight and weight2 = +0.0 (d + w + 0.0 == d + w exactly);
// a detour through a contracted node has weight = w(tail, relay) and
// weight2 = w(relay, to).
struct ContractedArc {
  NodeId to{0};
  EdgeId edge{0};  // the arc's id: its index into the contraction's records
  double weight{0.0};
  double weight2{0.0};
};

// The arc's relax, in the addition order of the source graph.
inline double RelaxedDistance(double d, const ContractedArc& arc) {
  return (d + arc.weight) + arc.weight2;
}

// How an arc of a RelayContraction maps back to its source graph: a
// detour's relay and its two edges, or (relay -1) the direct edge in `up`.
struct ContractedArcRecord {
  NodeId tail;
  NodeId relay;
  EdgeId up;    // edge (tail, relay), or the direct edge
  EdgeId down;  // edge (relay, head); -1 for a direct edge
};

class RelayContraction {
 public:
  RelayContraction() = default;
  RelayContraction(const RelayContraction&) = delete;
  RelayContraction& operator=(const RelayContraction&) = delete;

  // Contracts every node of `g` from `num_kept` on, over the edges
  // enabled now (a disabled edge takes part in no arc). Precondition:
  // every neighbour of a contracted node is a kept node; throws
  // std::invalid_argument when a contracted node reachable from a kept
  // one has a contracted neighbour. Borrows `g`: the contraction is
  // valid until g changes. Reuses its storage across builds.
  void Build(const Graph& g, int num_kept);

  // Turns this contraction into the one Build would give on its source
  // graph as masked now, in O(arcs) instead of a Build: drops the direct
  // arcs whose edge is disabled and renumbers the remaining arcs in row
  // order. Precondition: every edge disabled since Build joins two kept
  // nodes (the latency study masks only ISLs, which join satellites).
  //
  // Why that is a rebuild. Build visits each row's source-graph
  // neighbours in the same order whatever the mask; a disabled kept-kept
  // edge only skips its one direct arc there. It is never half of a
  // detour, since a detour's two edges both touch a contracted node, so
  // every pair's detour set, minimum and near-tie set are unchanged, and
  // so is the order the detours are emitted in. Rows keep their order
  // and their surviving arcs; arc ids, which Build assigns in emission
  // order, are reassigned in the same order.
  void DropDisabledDirectArcs();

  int NumNodes() const { return num_kept_; }
  int NumArcs() const { return static_cast<int>(arcs_.size()); }
  const Graph& Source() const { return *source_; }

  // Arcs are stored as CSR rows, built in Build.
  void FinalizeAdjacency() const {}
  std::span<const ContractedArc> Neighbours(NodeId n) const {
    const size_t begin = static_cast<size_t>(offsets_[static_cast<size_t>(n)]);
    const size_t end = static_cast<size_t>(offsets_[static_cast<size_t>(n) + 1]);
    return {arcs_.data() + begin, end - begin};
  }

  const ContractedArcRecord& Record(EdgeId arc) const {
    return records_[static_cast<size_t>(arc)];
  }

  // Writes to `out` graph::ShortestPath's path from src to dst on the
  // source graph as masked now, given the last search with `workspace`
  // on this contraction, which settled dst: RunDijkstra, a tree, or
  // RunAStar under a strictly admissible potential. The predecessor
  // chain is mapped back to the source graph, relay nodes and
  // source-graph edge ids filled back in, and checked; when the check
  // fails, the path comes from graph::ShortestPath on the source graph
  // in a workspace of its own (`workspace`'s labels survive, so a tree's
  // other targets can still be expanded), counted in
  // `route.contract.tie_fallbacks`.
  //
  // The check is ShortestPathAStar's tie guard: every node x of the
  // expanded chain but src must have exactly one tight source-graph edge
  // (u, x), label(u) + w(u, x) == label(x), and it must be the chain's;
  // for a relay, label(u) is the minimum of its neighbours' labels plus
  // the edge weight, the value a source-graph search gives it. Every true
  // tight predecessor has a smaller distance than dst's, so the search
  // settled it (and, for a relay, the neighbour it is reached from) at
  // its final distance; labels the search did not finalise only
  // overestimate and so never fake a tight edge. A node with one tight
  // edge gets it in Dijkstra, so a chain that passes is Dijkstra's. A
  // search on the contraction needs no guard of its own: two tight
  // contracted arcs into a chain node are two tight source-graph edges,
  // at that node or at a relay they share, which this check finds on
  // either chain.
  //
  // The guard reads x's contracted row, not the source graph. Each arc
  // x -> a (direct, or a detour via relay r) relaxes in reverse as
  // (d(a) + weight2) + weight: the two additions the source graph makes
  // through r, in the same order, so a tight arc makes its source edge
  // Record(arc).up (x's edge to r, or the direct edge) tight. A hop
  // passes when every tight arc has the chain's edge into x as its
  // source edge, and that edge is tight; a detour hop via r also needs
  // the minimum of d(a) + weight2 over x's arcs through that edge to be
  // reached by one arc only, the chain's tail's. Why these are the
  // source graph's decisions:
  //  - Tight relays appear in the row. A tight edge (r, x) has a tight
  //    predecessor a of r, and r lies in the near-tie set of the pair
  //    (a, x): otherwise a path a -> r' -> x would beat d(x) by more than
  //    rounding (the exactness argument above). So x's row holds the arc
  //    x -> a via r.
  //  - Counts and labels match. The distinct source edges of x's tight
  //    arcs are x's tight edges. For a tight r, the row's minimum over
  //    the arcs via r is r's label, and the arcs at it are exactly r's
  //    tight edges (x itself is never one: its weights are positive).
  //  - Residual views keep this: a ResidualContraction repairs broken
  //    pairs with Build's rule on the masked graph, so all of the above
  //    holds on every residual graph.
  // Only the fallback graph::ShortestPath reads the source graph here;
  // elsewhere at query time ResidualContraction::Ban and its pair
  // repairs read it, and the disjoint-path loop masks its edges.
  void ExpandPath(NodeId src, NodeId dst, const DijkstraWorkspace& workspace,
                  Path* out) const;

 private:
  void AddArc(NodeId tail, NodeId to, NodeId relay, EdgeId up, EdgeId down,
              double weight, double weight2);

  const Graph* source_{nullptr};
  int num_kept_{0};
  std::vector<int32_t> offsets_;  // num_kept_ + 1 prefix sums into arcs_
  std::vector<ContractedArc> arcs_;
  std::vector<ContractedArcRecord> records_;  // index-aligned with arc ids
  // One two-hop detour from the current tail, staged until its pair's
  // minimum is known.
  struct Detour {
    NodeId to;
    NodeId relay;
    EdgeId up;
    EdgeId down;
    double weight;
    double weight2;
  };

  // Build scratch, kept warm across slots.
  std::vector<Detour> detours_;
  std::vector<double> best_;  // per kept node: min detour sum from the tail
};

// A residual view of a RelayContraction: the contraction its source
// graph would give after Ban disabled more of its edges, obtained by
// patching rows instead of rebuilding. The throughput study's k
// edge-disjoint paths (graph/disjoint_paths.hpp) search it between the
// bans of a pair's taken paths.
//
// What a ban changes. A banned direct edge (an ISL or a city link) only
// loses its two arcs. A banned edge (s, r) to a contracted node r
// breaks the ordered pairs (s, x) and (x, s) whose kept detours pass
// through r; every other pair keeps its near-tie set, because a relay
// outside the set does not move the pair's minimum. A broken pair is
// repaired by recomputing its near-tie set with Build's rule, over the
// contracted nodes that still have enabled edges to both satellites
// (stamp N(s), then scan N(x)), so the view equals a rebuild on the
// masked graph pair for pair and the exactness argument above carries
// over unchanged. Patched rows live in the view as per-node overrides;
// repaired arcs get ids from NumArcs() of the base on, with records of
// their own, so ExpandPath maps them back.
//
// Reset and ClearBans open a new epoch, so dropping every override costs
// O(1). One view serves one thread.
class ResidualContraction {
 public:
  ResidualContraction() = default;
  ResidualContraction(const ResidualContraction&) = delete;
  ResidualContraction& operator=(const ResidualContraction&) = delete;

  // Views `base`, which must stay alive and unchanged, with no bans, and
  // zeroes repairs().
  void Reset(const RelayContraction& base);

  // Drops every ban: the view equals the base again.
  void ClearBans();

  // Patches the view for `edges`, which the caller has just disabled on
  // the base's source graph (Graph::SetEnabled), so that the view is the
  // contraction of the graph as masked now. Every edge may be banned once
  // between two ClearBans.
  void Ban(std::span<const EdgeId> edges);

  // Broken pairs recomputed since Reset, each counted once per Ban.
  uint64_t repairs() const { return repairs_; }

  int NumNodes() const { return base_->NumNodes(); }
  void FinalizeAdjacency() const {}
  std::span<const ContractedArc> Neighbours(NodeId n) const {
    const Row& row = rows_[static_cast<size_t>(n)];
    if (row.stamp != epoch_) {
      return base_->Neighbours(n);
    }
    return {arcs_.data() + row.begin, row.end - row.begin};
  }

  const ContractedArcRecord& Record(EdgeId arc) const {
    const size_t base_arcs = static_cast<size_t>(base_->NumArcs());
    const size_t id = static_cast<size_t>(arc);
    return id < base_arcs ? base_->Record(arc) : records_[id - base_arcs];
  }

  // RelayContraction::ExpandPath on the view: checked on the view's
  // rows, and on failure rerun on the source graph as masked now.
  void ExpandPath(NodeId src, NodeId dst, const DijkstraWorkspace& workspace,
                  Path* out) const;

 private:
  // A node's override row: arcs_[begin, end), live while stamp == epoch_.
  struct Row {
    uint32_t stamp;
    uint32_t begin;
    uint32_t end;
  };
  // A contracted neighbour of the pair's first satellite, stamped while
  // one pair is repaired.
  struct Near {
    uint32_t stamp;
    EdgeId edge;
    double weight;
  };

  // A detour s -> r -> x of the pair being repaired.
  struct Detour {
    NodeId relay;
    EdgeId up;
    EdgeId down;
    double weight;
    double weight2;
  };

  // Replaces n's row by its arcs that `drop` rejects, followed by `extra`.
  template <typename Drop>
  void RewriteRow(NodeId n, const Drop& drop, std::span<const ContractedArc> extra);
  // Recomputes the near-tie detours of the pairs (s, x) and (x, s).
  void RepairPair(NodeId s, NodeId x);
  EdgeId AddRecord(const ContractedArcRecord& record);

  const RelayContraction* base_{nullptr};
  std::vector<Row> rows_;
  std::vector<ContractedArc> arcs_;
  std::vector<ContractedArcRecord> records_;  // arc id NumArcs() + i
  uint32_t epoch_{0};
  uint64_t repairs_{0};

  // Ban and repair scratch.
  std::vector<std::pair<NodeId, NodeId>> broken_;
  std::vector<Near> near_;  // per source-graph node
  uint32_t near_epoch_{0};
  std::vector<Detour> detours_;
  std::vector<ContractedArc> forward_;   // new arcs s -> x
  std::vector<ContractedArc> backward_;  // new arcs x -> s
};

}  // namespace leosim::graph
