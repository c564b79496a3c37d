#include "engine/engine.hh"

namespace engine {

int bench_only(int x) {
    return x + 1;
}

int never_called(int x) {  // pqcheck-expect: unreachable
    return x - 1;
}

}  // namespace engine
