#include "graph/components.hpp"

#include <vector>

#include "graph/relay_contraction.hpp"

namespace leosim::graph {

Components ConnectedComponents(const Graph& g) {
  Components result;
  std::vector<NodeId> stack;
  result.count = ConnectedComponentsInto(g, &result.label, &stack);
  return result;
}

template <typename Adjacency>
int ConnectedComponentsInto(const Adjacency& g, std::vector<int>* label,
                            std::vector<NodeId>* stack) {
  g.FinalizeAdjacency();
  const int n = g.NumNodes();
  label->assign(static_cast<size_t>(n), -1);
  stack->clear();
  int count = 0;
  for (NodeId start = 0; start < n; ++start) {
    if ((*label)[static_cast<size_t>(start)] != -1) {
      continue;
    }
    const int comp = count++;
    stack->push_back(start);
    (*label)[static_cast<size_t>(start)] = comp;
    while (!stack->empty()) {
      const NodeId u = stack->back();
      stack->pop_back();
      for (const auto& half : g.Neighbours(u)) {
        if (!(half.weight < kInfDistance)) {
          continue;  // disabled edge
        }
        if ((*label)[static_cast<size_t>(half.to)] == -1) {
          (*label)[static_cast<size_t>(half.to)] = comp;
          stack->push_back(half.to);
        }
      }
    }
  }
  return count;
}

template int ConnectedComponentsInto(const Graph&, std::vector<int>*,
                                     std::vector<NodeId>*);
template int ConnectedComponentsInto(const RelayContraction&, std::vector<int>*,
                                     std::vector<NodeId>*);

int CountDisconnected(const Graph& g, const std::vector<NodeId>& candidates,
                      const std::vector<NodeId>& targets) {
  const Components comps = ConnectedComponents(g);
  std::vector<bool> target_comp(static_cast<size_t>(comps.count), false);
  for (const NodeId t : targets) {
    target_comp[static_cast<size_t>(comps.label[static_cast<size_t>(t)])] = true;
  }
  int disconnected = 0;
  for (const NodeId c : candidates) {
    if (!target_comp[static_cast<size_t>(comps.label[static_cast<size_t>(c)])]) {
      ++disconnected;
    }
  }
  return disconnected;
}

}  // namespace leosim::graph
