void RunChurnStudy() { graph::ShortestPathAStar (0, 1); }
