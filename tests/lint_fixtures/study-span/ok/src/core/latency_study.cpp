namespace obs {
struct Span {
  explicit Span(const char*) {}
};
}  // namespace obs
void RunLatencyStudy() { const obs::Span span("study.latency"); }
