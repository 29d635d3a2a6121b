// A figure binary with its own search loop.
void DumpHops() { graph::ShortestPath(0, 1); }
