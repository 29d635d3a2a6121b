// Comments may name graph::ShortestPath(...) freely.
struct SlotRoutes {};
struct ShortestPathTree {};
void RouteSlotPairs(SlotRoutes* out);
void RunFailureStudy() {
  SlotRoutes routes;
  RouteSlotPairs(&routes);
  ShortestPathTree tree;
  const char* label = "ShortestPath(src, dst)";
  (void)tree;
  (void)label;
}
