void RunFailureStudy() { graph::ShortestPath(0, 1); }
