#include "app/config.hh"

EngineConfig make_config(const std::string& root) {
    EngineConfig c;
    c.dir = root + "/data";
    c.wal.dir = root + "/wal";
    return c;
}

int main() {
    Options opts;
    opts.retries = 5;
    Holder h;
    h.cfg.depth = 3;
    Holder::Config on{.on = true};
    EngineConfig c = make_config("data");
    FaultConfig quiet;
    return c.shards + opts.retries + h.cfg.depth + (on.on ? 1 : 0)
        + static_cast<int>(quiet.drop);
}
