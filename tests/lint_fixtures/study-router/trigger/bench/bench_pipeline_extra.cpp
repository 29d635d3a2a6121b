// Only bench_pipeline.cpp itself is exempt, not a file named like it.
void BenchAStar() { graph::ShortestPathAStar(0, 1); }
