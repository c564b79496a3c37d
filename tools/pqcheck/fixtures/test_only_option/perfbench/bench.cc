// A perfbench/ source is production: its assignments count.
#include "app/config.hh"

int bench_shards() {
    EngineConfig cfg;
    cfg.shards = 4;
    return cfg.shards;
}
