// Records fixture.live.hits. The deleted feature used "fixture.ghost.hits",
// but a name in a comment is not a recording site.
namespace dg::obs {
struct Counter {};
Counter& counter(const char*);
}  // namespace dg::obs

void record_hit() { dg::obs::counter("fixture.live.hits"); }
