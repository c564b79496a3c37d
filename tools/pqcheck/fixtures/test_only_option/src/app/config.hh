// Fixture: test-only-option. A *Config field counts as set when a
// production file assigns it: a file under the root, a compdb TU outside
// tests/, or a perfbench/ source. One finding per struct names every
// field nothing sets.
#include <cstddef>
#include <string>

struct WalConfig {
    std::string dir;  // set through EngineConfig::wal
};

struct EngineConfig {  // pqcheck-expect: test-only-option
    int shards = 1;              // set by perfbench
    std::string dir;             // set in src through a typed variable
    WalConfig wal;               // set by setting one of its fields
    std::size_t batch_items = 64;  // set by nothing
    int retries = 3;  // Options::retries is set, but that is no config
};

struct Options {
    int retries = 0;
};

struct Holder {
    struct Config {
        bool on = false;  // set through a designated initializer
        int depth = 2;    // set through Holder's member `cfg`
    };
    Config cfg;
};

// A fault-injection seam that only the fault tests set.
// pqcheck: allow(test-only-option)
struct FaultConfig {
    double drop = 0;
};
