// Seeded violation: fixture.ghost.hits is pre-registered, but the feature
// that recorded it is gone; only a comment elsewhere still names it. Must
// trip metrics-unrecorded and nothing else.
namespace dg::obs {
struct Counter {};
Counter& counter(const char*);

void ensure_well_known_metrics() {
  counter("fixture.live.hits");
  counter("fixture.ghost.hits");
}
}  // namespace dg::obs
