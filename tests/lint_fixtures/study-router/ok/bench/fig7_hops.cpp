// A figure binary routes through the router; comments may name
// graph::ShortestPath(...) freely.
struct SlotRoutes {};
void RouteSlotPairs(SlotRoutes* out);
void DumpHops() {
  SlotRoutes routes;
  RouteSlotPairs(&routes);
}
