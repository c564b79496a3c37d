// An engine API whose only caller is the perfbench program beside src/:
// perfbench builds on its own, so no compdb names it, yet what it calls
// is live. The rule must reach bench_only() through perfbench/ and still
// report never_called().
#ifndef FIXTURE_ENGINE_HH
#define FIXTURE_ENGINE_HH

namespace engine {

int bench_only(int x);
int never_called(int x);

}  // namespace engine

#endif
