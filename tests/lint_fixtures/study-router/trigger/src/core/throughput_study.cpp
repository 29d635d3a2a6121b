void RunThroughputStudy() {
  graph::KEdgeDisjointShortestPaths(
      0, 1, 4);
}
