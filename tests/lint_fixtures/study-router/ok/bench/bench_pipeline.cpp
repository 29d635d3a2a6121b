// Benches the plain searches next to the router's: exempt.
void BenchFallbacks() {
  graph::ShortestPath(0, 1);
  graph::ShortestPathAStar(0, 1);
  graph::RunAStar(0, 1);
  graph::KEdgeDisjointShortestPaths(0, 1, 4);
}
