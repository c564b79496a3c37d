// Chaos testing for the failure-aware distribution tier (§10): run a
// Twip-style workload against a base/compute cluster while a seeded
// random schedule injects frame drops, duplicates, delays, partitions,
// and server crashes — then heal, let the failure detectors converge,
// and require every timeline to match a fault-free single-server oracle.
// The oracle only sees writes the cluster acknowledged, so acknowledged
// data must survive every fault and unacknowledged data must not
// resurrect.
//
// Seeds are printed on every run. Override with PEQUOD_CHAOS_SEED=<n>
// to replay one schedule under a debugger.
//
// With a persistence directory, the same schedules run with durable
// bases: a crash power-fails the base (dropping its RAM state and any
// un-fsynced WAL tail) and a restart reloads it from checkpoint + WAL,
// so the oracle check additionally proves acked writes survive real
// state loss and unacked writes do not resurrect from the log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/base.hh"
#include "common/rng.hh"
#include "core/server.hh"
#include "distrib/cluster.hh"

namespace pequod {
namespace {

// Scratch directory in the build tree, removed on scope exit.
class ChaosTempDir {
  public:
    ChaosTempDir() {
        char tmpl[] = "chaos_persist_XXXXXX";
        char* made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path_ = made ? made : "chaos_persist_fallback";
    }
    ~ChaosTempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::string& path() const {
        return path_;
    }

  private:
    std::string path_;
};

constexpr const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

std::string ukey(uint32_t u) {
    return pad_number(u, 8);
}

std::string post_key(uint32_t u, uint64_t ts) {
    return "p|" + ukey(u) + "|" + pad_number(ts, 10);
}

// `persist_dir` empty runs the historical in-memory schedule; non-empty
// runs the identical schedule (the RNG stream is untouched by the
// config change) against disk-backed bases.
void run_chaos(uint64_t seed, const std::string& persist_dir = "") {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    Rng rng(seed);
    distrib::Cluster::Config ccfg;
    ccfg.base_servers = 2 + static_cast<int>(rng.below(2));
    ccfg.compute_servers = 2 + static_cast<int>(rng.below(2));
    ccfg.base_tables = {"s|", "p|"};
    ccfg.joins = kTimelineJoin;
    ccfg.persist.dir = persist_dir;
    distrib::Cluster cluster(ccfg);
    cluster.network().set_fault_seed(seed * 0x9e3779b97f4a7c15ull + 1);
    Server oracle;
    oracle.add_join(kTimelineJoin);

    // A static follower graph, installed before any fault is active.
    const uint32_t kUsers = 8;
    for (uint32_t u = 0; u < kUsers; ++u)
        for (uint32_t k = 1; k <= 3; ++k) {
            std::string key =
                "s|" + ukey(u) + "|" + ukey((u + k * 5) % kUsers);
            ASSERT_TRUE(cluster.put(key, "1"));
            oracle.put(key, "1");
        }
    cluster.settle();

    const int B = ccfg.base_servers;
    const int C = ccfg.compute_servers;
    uint64_t ts = 1;
    for (int op = 0; op < 250; ++op) {
        uint32_t roll = static_cast<uint32_t>(rng.below(100));
        if (roll < 55) {
            // A post. The oracle records it only if the cluster
            // acknowledged it (the write frame reached its base).
            uint32_t u = static_cast<uint32_t>(rng.below(kUsers));
            std::string key = post_key(u, ts++);
            std::string value = "v" + std::to_string(op);
            if (cluster.put(key, value))
                oracle.put(key, value);
        } else if (roll < 70) {
            // A read mid-chaos: the result may be stale or lost — what
            // matters is that materialization under faults leaves state
            // the detectors can later repair.
            uint32_t u = static_cast<uint32_t>(rng.below(kUsers));
            std::string lo = "t|" + ukey(u) + "|";
            distrib::ScanResult out;
            cluster.client().scan(cluster.compute_for(ukey(u)).id(), lo,
                                  prefix_successor(lo), &out);
        } else if (roll < 82) {
            cluster.settle();
            cluster.tick();
        } else {
            // A fault event.
            switch (rng.below(6)) {
            case 0: {
                net::FaultConfig fc;
                fc.drop = static_cast<double>(rng.below(30)) / 100.0;
                fc.duplicate =
                    static_cast<double>(rng.below(30)) / 100.0;
                fc.delay = static_cast<double>(rng.below(30)) / 100.0;
                cluster.network().set_default_faults(fc);
                break;
            }
            case 1:
                cluster.network().clear_link_faults();
                break;
            case 2: {
                int b = static_cast<int>(rng.below(
                    static_cast<uint64_t>(B)));
                int c = static_cast<int>(rng.below(
                    static_cast<uint64_t>(C)));
                cluster.network().set_partition({b},
                                                {cluster.compute(c).id()});
                break;
            }
            case 3:
                cluster.network().clear_partitions();
                break;
            case 4: {
                int b = static_cast<int>(rng.below(
                    static_cast<uint64_t>(B)));
                if (cluster.base_crashed(b))
                    cluster.restart_base(b);
                else
                    cluster.crash_base(b);
                break;
            }
            case 5: {
                int c = static_cast<int>(rng.below(
                    static_cast<uint64_t>(C)));
                if (cluster.compute_crashed(c))
                    cluster.restart_compute(c);
                else
                    cluster.crash_compute(c);
                break;
            }
            }
        }
    }

    // Heal everything, then let the failure detectors converge: drain
    // in-flight frames, heartbeat every link, and retry every pending
    // subscription until none remain.
    cluster.network().clear_link_faults();
    cluster.network().clear_partitions();
    for (int b = 0; b < B; ++b)
        if (cluster.base_crashed(b))
            cluster.restart_base(b);
    for (int c = 0; c < C; ++c)
        if (cluster.compute_crashed(c))
            cluster.restart_compute(c);
    cluster.settle();
    for (int i = 0; i < 200; ++i) {
        cluster.tick();
        bool pending = false;
        for (int c = 0; c < C; ++c)
            pending = pending
                || cluster.compute(c).pending_retry_count() != 0;
        if (!pending && i >= 2)
            break;
    }
    for (int c = 0; c < C; ++c)
        ASSERT_EQ(cluster.compute(c).pending_retry_count(), 0u)
            << "retries failed to converge after healing";

    // Post-heal equivalence: every acknowledged write visible, nothing
    // stale, nothing lost, nothing resurrected.
    for (uint32_t u = 0; u < kUsers; ++u) {
        std::string lo = "t|" + ukey(u) + "|";
        distrib::ScanResult got;
        ASSERT_TRUE(cluster.client().scan(
            cluster.compute_for(ukey(u)).id(), lo, prefix_successor(lo),
            &got));
        distrib::ScanResult want;
        oracle.scan(lo, prefix_successor(lo),
                    [&want](const std::string& k, const ValuePtr& v) {
                        want.emplace_back(k, *v);
                    });
        ASSERT_EQ(got, want) << "user " << u;
    }

    if (!persist_dir.empty()) {
        for (int b = 0; b < B; ++b)
            EXPECT_TRUE(cluster.base(b).persistent());
    }
}

uint64_t seed_from_env(uint64_t fallback, int* count) {
    if (const char* env = std::getenv("PEQUOD_CHAOS_SEED")) {
        *count = 1;
        return std::strtoull(env, nullptr, 10);
    }
    return fallback;
}

TEST(Chaos, SeededFaultSchedulesConvergeToOracle) {
    int count = 20;
    uint64_t base_seed = seed_from_env(1, &count);
    for (int i = 0; i < count; ++i) {
        uint64_t seed = base_seed + static_cast<uint64_t>(i);
        std::printf("[chaos] running seed %llu\n",
                    static_cast<unsigned long long>(seed));
        run_chaos(seed);
        if (HasFatalFailure())
            return;
    }
}

TEST(Chaos, CrashRestartFromDiskConvergesToOracle) {
    // The same seeded schedules, but every base crash is a power
    // failure and every restart reloads the base from checkpoint + WAL.
    // Fewer iterations than the in-memory run: each schedule now pays
    // for real fsyncs on every acked write.
    int count = 8;
    uint64_t base_seed = seed_from_env(1, &count);
    for (int i = 0; i < count; ++i) {
        uint64_t seed = base_seed + static_cast<uint64_t>(i);
        std::printf("[chaos] running seed %llu (durable bases)\n",
                    static_cast<unsigned long long>(seed));
        ChaosTempDir td;
        run_chaos(seed, td.path() + "/cluster");
        if (HasFatalFailure())
            return;
    }
}

TEST(Chaos, QuietScheduleMatchesFaultFreeRun) {
    // Degenerate schedule: faults configured but all probabilities zero.
    // The fault-aware paths must not perturb a clean run.
    distrib::Cluster::Config ccfg;
    ccfg.base_servers = 2;
    ccfg.compute_servers = 2;
    ccfg.base_tables = {"s|", "p|"};
    ccfg.joins = kTimelineJoin;
    distrib::Cluster cluster(ccfg);
    cluster.network().set_fault_seed(12345);
    Server oracle;
    oracle.add_join(kTimelineJoin);
    for (uint32_t u = 0; u < 6; ++u) {
        std::string key = "s|" + ukey(u) + "|" + ukey((u + 1) % 6);
        ASSERT_TRUE(cluster.put(key, "1"));
        oracle.put(key, "1");
    }
    for (uint64_t t = 1; t <= 30; ++t) {
        std::string key = post_key(static_cast<uint32_t>(t % 6), t);
        ASSERT_TRUE(cluster.put(key, "v" + std::to_string(t)));
        oracle.put(key, "v" + std::to_string(t));
        if (t % 5 == 0) {
            cluster.settle();
            cluster.tick();
        }
    }
    cluster.settle();
    cluster.tick();
    for (uint32_t u = 0; u < 6; ++u) {
        std::string lo = "t|" + ukey(u) + "|";
        distrib::ScanResult got;
        ASSERT_TRUE(cluster.client().scan(
            cluster.compute_for(ukey(u)).id(), lo, prefix_successor(lo),
            &got));
        distrib::ScanResult want;
        oracle.scan(lo, prefix_successor(lo),
                    [&want](const std::string& k, const ValuePtr& v) {
                        want.emplace_back(k, *v);
                    });
        ASSERT_EQ(got, want) << "user " << u;
    }
    // No detector fired and nothing was dropped.
    for (int c = 0; c < 2; ++c) {
        const distrib::FaultStats& fs = cluster.compute(c).fault_stats();
        EXPECT_EQ(fs.gaps_detected, 0u);
        EXPECT_EQ(fs.base_restarts_detected, 0u);
        EXPECT_EQ(fs.invalidated_ranges, 0u);
        EXPECT_EQ(fs.retries, 0u);
    }
    EXPECT_EQ(cluster.net().stats().frames_dropped, 0u);
}

}  // namespace
}  // namespace pequod
