// §4.1 ablation: "The use of subtables improves the runtime of our Twip
// benchmark by a factor of 1.55x, but increases memory consumption by a
// factor of 1.17x, a consequence of additional bookkeeping."
//
// Measures the server-side operations subtables accelerate: tree descents
// for puts and the per-scan positioning step. With subtables, operations
// that stay inside one timeline hash O(1) to a small per-user tree; without
// them every operation descends one large per-table tree. Timeline scans
// here are short (incremental checks), so positioning cost matters.
//
//   ./build/bench/ablation_subtables [users] [ops]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/clock.hh"
#include "common/rng.hh"
#include "core/server.hh"

using namespace pequod;

namespace {

struct Result {
    double cpu;
    size_t memory;
};

Result run(bool subtables, uint32_t users, int ops) {
    ServerConfig cfg;
    cfg.enable_subtables = subtables;
    // Hints bypass the descent subtables optimize; measure without them so
    // the two optimizations are ablated independently (§4 reports them
    // separately).
    cfg.enable_output_hints = false;
    Server s(cfg);
    for (const char* t : {"t|", "p|", "s|"})
        s.set_subtable_components(t, 1);
    s.add_join("t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>");
    auto ukey = [](uint32_t u) { return pad_number(u, 6); };
    Rng rng(17);
    // Everyone follows a handful of posters; materialize all timelines.
    for (uint32_t u = 0; u < users; ++u)
        for (int k = 0; k < 8; ++k)
            s.put("s|" + ukey(u) + "|"
                      + ukey(static_cast<uint32_t>(rng.below(users))),
                  "1");
    uint64_t now = 1;
    for (uint32_t i = 0; i < users * 4; ++i)
        s.put("p|" + ukey(static_cast<uint32_t>(rng.below(users))) + "|"
                  + pad_number(now++, 10),
              "tweet");
    for (uint32_t u = 0; u < users; ++u) {
        std::string lo = "t|" + ukey(u) + "|";
        s.scan(lo, prefix_successor(lo),
               [](const std::string&, const ValuePtr&) {});
    }
    // Timed region: the §5.1-style steady state — mostly short incremental
    // checks plus posts whose fan-out inserts descend the t| tree(s).
    std::vector<uint64_t> last_seen(users, now);
    double t0 = CpuTimer::now();
    for (int i = 0; i < ops; ++i) {
        uint32_t u = static_cast<uint32_t>(rng.below(users));
        if (rng.below(100) < 80) {
            std::string lo =
                "t|" + ukey(u) + "|" + pad_number(last_seen[u], 10);
            s.scan(lo, prefix_successor("t|" + ukey(u) + "|"),
                   [](const std::string&, const ValuePtr&) {});
            last_seen[u] = now;
        } else {
            s.put("p|" + ukey(u) + "|" + pad_number(now++, 10), "tweet");
        }
    }
    double cpu = CpuTimer::now() - t0;
    return {cpu, s.memory_stats().total()};
}

}  // namespace

int main(int argc, char** argv) {
    uint32_t users =
        argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 4000;
    int ops = argc > 2 ? std::atoi(argv[2]) : 150000;
    std::printf("§4.1 ablation: subtables (%u users, %d steady-state ops)\n",
                users, ops);
    std::printf("paper: 1.55x faster runtime, 1.17x more memory\n\n");

    Result on{0, 0}, off{0, 0};
    for (int rep = 0; rep < 3; ++rep) {
        Result a = run(true, users, ops);
        Result b = run(false, users, ops);
        on.cpu += a.cpu;
        off.cpu += b.cpu;
        on.memory = a.memory;
        off.memory = b.memory;
    }
    std::printf("%-22s %12s %12s\n", "config", "server cpu", "memory");
    std::printf("%-22s %11.3fs %10.1fMB\n", "subtables on", on.cpu,
                static_cast<double>(on.memory) / 1e6);
    std::printf("%-22s %11.3fs %10.1fMB\n", "subtables off", off.cpu,
                static_cast<double>(off.memory) / 1e6);
    std::printf("\nruntime speedup from subtables: %.2fx (paper 1.55x)\n",
                off.cpu / on.cpu);
    std::printf("memory cost of subtables:       %.2fx (paper 1.17x)\n",
                static_cast<double>(on.memory)
                    / static_cast<double>(off.memory));
    return 0;
}
