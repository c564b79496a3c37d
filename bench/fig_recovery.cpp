// Durability-tier figures (DESIGN.md §13): what persistence costs on
// the write path and what it buys at restart.
//
//   1. Write throughput with group commit on vs off — one fsync per
//      operation against one fsync per 64-op batch, same record stream.
//   2. Recovery time as a function of WAL length, replayed into a live
//      engine (normalized to seconds per 1M records).
//   3. Checkpoint write and load: snapshot `replay_records` base pairs
//      (27-byte keys, 32-byte values) through Persistence::checkpoint,
//      then load them back through Persistence::recover (normalized to
//      seconds per 1M records, plus the file's bytes per entry).
//   4. Warm-restart freshness: a persistent base/compute cluster is
//      power-failed and restarted; the figure records whether a
//      previously materialized timeline is byte-identical afterwards.
//
//   ./build/bench/fig_recovery [write_ops [replay_records]]
//
// The machine-readable tail line is parsed by tools/run_benches.sh into
// BENCH_micro.json under figures.fig_recovery:
//
//   fig_recovery summary: fsync_batch_speedup=<f>x unbatched_qps=<n>
//     batched_qps=<n> recovery_s_per_1m=<f> ckpt_write_s_per_1m=<f>
//     ckpt_load_s_per_1m=<f> ckpt_bytes_per_entry=<f>
//     warm_restart_fresh=<0|1>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/rng.hh"
#include "core/server.hh"
#include "distrib/cluster.hh"
#include "persist/persist.hh"

using namespace pequod;

namespace {

double seconds_since(
        std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string scratch_dir() {
    char tmpl[] = "fig_recovery_scratch_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    if (!made) {
        std::fprintf(stderr, "fig_recovery: mkdtemp failed\n");
        std::exit(1);
    }
    return made;
}

void drop_dir(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

std::string padded_key(uint64_t n) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "p|%012llu",
                  static_cast<unsigned long long>(n));
    return buf;
}

// Log `ops` puts through a Persistence configured with the given group
// commit interval; returns achieved puts/sec including the final flush.
double timed_write_qps(uint64_t ops, uint64_t flush_interval) {
    std::string dir = scratch_dir();
    double elapsed;
    {
        persist::PersistConfig pc;
        pc.dir = dir;
        pc.wal_flush_interval_ops = flush_interval;
        persist::Persistence p(pc);
        p.recover([](Str, Str) {}, [](Str, Str) {});
        const std::string value(64, 'v');
        auto start = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i != ops; ++i)
            p.log_put(padded_key(i), value);
        p.flush();
        elapsed = seconds_since(start);
    }
    drop_dir(dir);
    return static_cast<double>(ops) / elapsed;
}

// Build a WAL of `records` puts, then time recovery into a fresh
// engine; returns the recovery wall time.
double timed_recovery_s(uint64_t records) {
    std::string dir = scratch_dir();
    double elapsed;
    {
        persist::PersistConfig pc;
        pc.dir = dir;
        {
            persist::Persistence p(pc);
            p.recover([](Str, Str) {}, [](Str, Str) {});
            Rng rng(1);
            const std::string value(64, 'v');
            for (uint64_t i = 0; i != records; ++i)
                p.log_put(padded_key(rng.below(records)), value);
            p.flush();
        }
        Server engine;
        persist::Persistence p(pc);
        auto start = std::chrono::steady_clock::now();
        persist::RecoverResult r = p.recover(
            [&engine](Str key, Str value) {
                engine.put(key, value);
            },
            [](Str, Str) {});
        elapsed = seconds_since(start);
        if (r.wal_records != records || !r.wal_tail_clean) {
            std::fprintf(stderr,
                         "fig_recovery: replay mismatch (%llu of %llu "
                         "records, clean=%d)\n",
                         static_cast<unsigned long long>(r.wal_records),
                         static_cast<unsigned long long>(records),
                         static_cast<int>(r.wal_tail_clean));
            std::exit(1);
        }
    }
    drop_dir(dir);
    return elapsed;
}

struct CheckpointTiming {
    double write_s = 0;
    double load_s = 0;
    uint64_t file_bytes = 0;
};

// Checkpoint `entries` pairs into an empty store directory, then load
// the checkpoint back through recovery. The keys live in one flat
// buffer so the harness itself adds no per-entry allocation.
CheckpointTiming timed_checkpoint(uint64_t entries) {
    constexpr size_t kKeyBytes = 27;
    std::string keys;
    keys.reserve(entries * kKeyBytes);
    for (uint64_t i = 0; i != entries; ++i) {
        char key[kKeyBytes + 1];
        std::snprintf(key, sizeof key, "p|%012llu|%012llu",
                      static_cast<unsigned long long>(i % 1000),
                      static_cast<unsigned long long>(i));
        keys.append(key, kKeyBytes);
    }
    const std::string value(32, 'v');
    std::string dir = scratch_dir();
    CheckpointTiming t;
    {
        persist::PersistConfig pc;
        pc.dir = dir;
        {
            persist::Persistence p(pc);
            p.recover([](Str, Str) {}, [](Str, Str) {});
            auto start = std::chrono::steady_clock::now();
            bool ok = p.checkpoint(
                [&](FnRef<void(Str, Str)> emit) {
                    for (uint64_t i = 0; i != entries; ++i)
                        emit(Str(keys.data() + i * kKeyBytes, kKeyBytes),
                             Str(value));
                });
            t.write_s = seconds_since(start);
            if (!ok) {
                std::fprintf(stderr, "fig_recovery: checkpoint failed\n");
                std::exit(1);
            }
        }
        for (const auto& entry : std::filesystem::directory_iterator(dir))
            if (entry.path().filename().string().rfind("ckpt-", 0) == 0)
                t.file_bytes += entry.file_size();
        persist::Persistence p(pc);
        uint64_t loaded = 0;
        auto start = std::chrono::steady_clock::now();
        persist::RecoverResult r = p.recover(
            [&loaded](Str key, Str v) {
                loaded += key.size() + v.size();
            },
            [](Str, Str) {});
        t.load_s = seconds_since(start);
        if (r.checkpoint_entries != entries
            || loaded != entries * (kKeyBytes + value.size())) {
            std::fprintf(stderr,
                         "fig_recovery: checkpoint loaded %llu of %llu "
                         "entries\n",
                         static_cast<unsigned long long>(
                             r.checkpoint_entries),
                         static_cast<unsigned long long>(entries));
            std::exit(1);
        }
    }
    drop_dir(dir);
    return t;
}

// Power-fail and restart a persistent cluster; returns true if a
// materialized timeline reads back byte-identical afterwards.
bool warm_restart_fresh() {
    std::string dir = scratch_dir();
    bool fresh;
    {
        distrib::Cluster::Config cfg;
        cfg.base_servers = 2;
        cfg.compute_servers = 2;
        cfg.base_tables = {"p|", "s|"};
        cfg.joins =
            "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";
        cfg.persist.dir = dir;
        distrib::Cluster cluster(cfg);
        cluster.put("s|u1|u2", "1");
        for (int i = 0; i != 200; ++i) {
            char key[32];
            std::snprintf(key, sizeof key, "p|u2|%010d", i);
            cluster.put(key, "post " + std::to_string(i));
        }
        cluster.settle();
        int c = cluster.compute_index_for("u1");
        distrib::ScanResult before;
        cluster.client().scan(cluster.compute(c).id(), "t|u1|", "t|u1}",
                              &before);
        for (int b = 0; b != cfg.base_servers; ++b)
            cluster.crash_base(b);
        for (int b = 0; b != cfg.base_servers; ++b)
            cluster.restart_base(b);
        cluster.tick();
        cluster.settle();
        distrib::ScanResult after;
        cluster.client().scan(cluster.compute(c).id(), "t|u1|", "t|u1}",
                              &after);
        fresh = before.size() == 200 && after == before;
    }
    drop_dir(dir);
    return fresh;
}

}  // namespace

int main(int argc, char** argv) {
    uint64_t write_ops =
        argc > 1 ? static_cast<uint64_t>(std::atoll(argv[1])) : 20000;
    uint64_t replay_records =
        argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 150000;
    if (write_ops == 0 || replay_records == 0) {
        std::fprintf(stderr,
                     "usage: fig_recovery [write_ops [replay_records]]\n");
        return 1;
    }

    std::printf("Durability figures (%llu write ops, up to %llu replay "
                "records)\n\n",
                static_cast<unsigned long long>(write_ops),
                static_cast<unsigned long long>(replay_records));

    std::printf("%-24s %14s\n", "write path", "puts/sec");
    double unbatched = timed_write_qps(write_ops, 1);
    std::printf("%-24s %14.0f\n", "fsync per op", unbatched);
    double batched = timed_write_qps(write_ops, 64);
    std::printf("%-24s %14.0f\n", "group commit (64)", batched);
    double speedup = batched / unbatched;
    std::printf("%-24s %13.1fx\n\n", "batching speedup", speedup);

    std::printf("%-24s %10s %14s\n", "recovery", "seconds",
                "records/sec");
    double s_per_1m = 0;
    for (uint64_t records : {replay_records / 4, replay_records / 2,
                             replay_records}) {
        if (records == 0)
            continue;
        double s = timed_recovery_s(records);
        char label[32];
        std::snprintf(label, sizeof label, "%llu records",
                      static_cast<unsigned long long>(records));
        std::printf("%-24s %10.3f %14.0f\n", label, s,
                    static_cast<double>(records) / s);
        s_per_1m = s / static_cast<double>(records) * 1e6;
    }
    std::printf("\n");

    CheckpointTiming ckpt = timed_checkpoint(replay_records);
    double per_1m = 1e6 / static_cast<double>(replay_records);
    double ckpt_bytes_per_entry = static_cast<double>(ckpt.file_bytes)
        / static_cast<double>(replay_records);
    std::printf("%-24s %10s %14s\n", "checkpoint", "seconds",
                "s per 1M");
    std::printf("%-24s %10.3f %14.3f\n", "write", ckpt.write_s,
                ckpt.write_s * per_1m);
    std::printf("%-24s %10.3f %14.3f\n", "load", ckpt.load_s,
                ckpt.load_s * per_1m);
    std::printf("%-24s %10llu %14.1f\n\n", "file bytes (per entry)",
                static_cast<unsigned long long>(ckpt.file_bytes),
                ckpt_bytes_per_entry);

    bool fresh = warm_restart_fresh();
    std::printf("warm restart: materialized timeline %s after power "
                "fail + recovery\n\n",
                fresh ? "identical" : "DIVERGED");

    std::printf("fig_recovery summary: fsync_batch_speedup=%.1fx "
                "unbatched_qps=%.0f batched_qps=%.0f "
                "recovery_s_per_1m=%.3f ckpt_write_s_per_1m=%.3f "
                "ckpt_load_s_per_1m=%.3f ckpt_bytes_per_entry=%.1f "
                "warm_restart_fresh=%d\n",
                speedup, unbatched, batched, s_per_1m,
                ckpt.write_s * per_1m, ckpt.load_s * per_1m,
                ckpt_bytes_per_entry, fresh ? 1 : 0);
    return fresh ? 0 : 1;
}
