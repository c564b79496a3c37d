#include "engine/engine.hh"

int main() {
    return engine::bench_only(41) == 42 ? 0 : 1;
}
