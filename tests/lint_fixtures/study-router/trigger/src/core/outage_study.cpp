// The label-only A* kernel is a search like the path-returning ones.
void RunOutageStudy() { graph::RunAStar(contraction, 0, 1, ws, potential); }
