// Benches the plain searches the router falls back to: exempt.
void BenchFallbacks() {
  graph::ShortestPath(0, 1);
  graph::ShortestPathAStar(0, 1);
  graph::KEdgeDisjointShortestPaths(0, 1, 4);
}
