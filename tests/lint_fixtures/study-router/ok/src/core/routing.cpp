// Not a *_study.cpp file: the EXT-RT policies may search directly.
void RouteWithPolicy() { graph::ShortestPath(0, 1); }
