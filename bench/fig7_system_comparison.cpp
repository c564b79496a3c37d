// Fig 7 (§5.2): "Time to process a Twip experiment to completion using
// Pequod and related systems. Smaller numbers are better."
//
//   Paper:  Pequod 197.06s (1.00x), Redis 262.62s (1.33x),
//           client Pequod 323.29s (1.64x), memcached 784.43s (3.98x),
//           PostgreSQL 1882.78s (9.55x)
//
// This harness runs the same scaled Twip workload (§5.1 op mix over a
// synthetic power-law graph) to completion on each system and prints the
// same table. Comparators are in-process reimplementations of each
// system's relevant mechanism (see DESIGN.md §4); expect the *ordering and
// rough factors* to match, not absolute seconds.
//
//   ./build/bench/fig7_system_comparison [users] [checks_per_user]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/twip.hh"
#include "compare/backend.hh"

using namespace pequod;

int main(int argc, char** argv) {
    apps::SocialGraph::Config gcfg;
    gcfg.users = argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 3000;
    gcfg.avg_following = 25;
    apps::TwipConfig tcfg;
    tcfg.checks_per_user = argc > 2 ? std::atoi(argv[2]) : 30;
    tcfg.prepopulate_posts_per_user = 5;

    std::printf("Fig 7: Twip system comparison (%u users, %d checks/user)\n",
                gcfg.users, tcfg.checks_per_user);
    auto graph = apps::SocialGraph::generate(gcfg);
    std::printf("graph: %llu edges\n\n",
                static_cast<unsigned long long>(graph.edge_count()));

    struct Entry {
        const char* paper_runtime;
        double paper_factor;
        std::unique_ptr<compare::TwipBackend> backend;
    };
    std::vector<Entry> systems;
    systems.push_back({"197.06", 1.00, compare::make_pequod_backend()});
    systems.push_back({"262.62", 1.33, compare::make_redis_like_backend()});
    systems.push_back(
        {"323.29", 1.64, compare::make_client_pequod_backend()});
    systems.push_back(
        {"784.43", 3.98, compare::make_memcache_like_backend()});
    systems.push_back({"1882.78", 9.55, compare::make_minidb_backend()});

    std::vector<apps::TwipResult> results;
    for (auto& sys : systems) {
        std::printf("running %-16s ...\n", sys.backend->name());
        std::fflush(stdout);
        results.push_back(apps::run_twip(*sys.backend, graph, tcfg));
    }

    double baseline = results[0].total_seconds;
    std::printf("\n%-16s %10s %8s   %-22s\n", "System", "Runtime", "Factor",
                "(paper runtime/factor)");
    for (size_t i = 0; i < systems.size(); ++i) {
        std::printf("%-16s %9.2fs %7.2fx   (%ss, %.2fx)\n",
                    results[i].system.c_str(), results[i].total_seconds,
                    results[i].total_seconds / baseline,
                    systems[i].paper_runtime, systems[i].paper_factor);
    }
    std::printf("\ndetails (wall + modeled rpc, messages, round trips):\n");
    for (const auto& r : results)
        std::printf(
            "  %-16s wall=%.2fs rpc=%.2fs msgs=%llu bytes=%.1fMB rt=%llu\n",
            r.system.c_str(), r.wall_seconds, r.modeled_rpc_seconds,
            static_cast<unsigned long long>(r.rpc_messages),
            static_cast<double>(r.rpc_bytes) / 1e6,
            static_cast<unsigned long long>(r.rpc_round_trips));
    return 0;
}
