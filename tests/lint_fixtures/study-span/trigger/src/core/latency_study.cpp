namespace obs {
struct Span {
  explicit Span(const char*) {}
};
}  // namespace obs
// const obs::Span span("study.latency");  (commented out: no root)
void RunLatencyStudy() { const obs::Span span("route.tree"); }
