// The sharded deployment of Fig 10 (§5.5, DESIGN.md §7): a backing tier
// of base servers owns the source tables (sharded by table group), a
// compute tier executes the join for client reads with per-user
// affinity. The first time a compute server's join execution consults a
// source range, it subscribes that range at its home base server and
// synchronously backfills the current contents; subsequent base puts are
// pushed to every subscribed compute server through the message layer,
// where the local engine's eager maintenance folds them into
// materialized timelines. Per-server CPU is attributed exclusively (a
// process-wide meter switched at every message boundary) plus a modeled
// per-message/per-byte cost, and inter-server traffic is accounted
// separately from client traffic so the subscription share is reportable.
//
// The subscription protocol itself — registry, batches, stamps, routing
// and the per-link verdicts — is src/sub/'s, shared with the shard tier.
// Failure awareness (DESIGN.md §10): notify delivery is at-least-once.
// Each (base, compute) link carries a sequence number on live notifies;
// backfills carry a resynchronization baseline; subscriptions carry the
// compute's epoch; and every base stamps its generation. A compute
// server drops duplicates and stale-epoch frames, and on a sequence
// gap, a base generation change, or a heartbeat high-water mismatch it
// invalidates every range it held from that base — shrinking the
// engine's valid sets via Server::invalidate_range so nothing stale is
// served — and re-subscribes. Failed subscriptions retry with bounded
// exponential backoff under a retry budget, driven by Cluster::tick();
// crashed compute servers restart blank and re-materialize on demand.
#ifndef PEQUOD_DISTRIB_CLUSTER_HH
#define PEQUOD_DISTRIB_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/server.hh"
#include "net/network.hh"
#include "persist/persist.hh"
#include "sub/subscription.hh"

namespace pequod {
namespace distrib {

using ScanResult = std::vector<std::pair<std::string, std::string>>;

struct NodeStats {
    // Measured process CPU attributed while this node was handling work,
    // plus the modeled per-message/per-byte handling cost.
    double busy_seconds = 0;
    // Bytes of server-to-server frames this node sent (subscription
    // traffic); client frames are excluded, so summing server_bytes over
    // all servers and dividing by Network total bytes yields the
    // inter-server traffic share.
    uint64_t server_bytes = 0;
    uint64_t messages = 0;  // frames handled
};

// What a compute server's failure detectors saw and did (§10).
struct FaultStats {
    uint64_t gaps_detected = 0;            // notify sequence discontinuities
    uint64_t base_restarts_detected = 0;   // generation changes
    uint64_t duplicate_drops = 0;          // already-applied notify frames
    uint64_t stale_epoch_drops = 0;        // backfills from a superseded epoch
    uint64_t stray_drops = 0;              // notifies on links we dropped
    uint64_t invalidated_ranges = 0;
    uint64_t resubscribes = 0;
    uint64_t retries = 0;                  // backoff-driven retry attempts
    uint64_t abandoned = 0;                // retry budget exhausted
    uint64_t restarts = 0;                 // blank restarts after a crash
};

class Cluster;

// Exclusive CPU attribution across the simulated servers sharing this
// process: whoever is "current" accrues elapsed CPU; every message
// boundary switches.
class CpuMeter {
  public:
    NodeStats* enter(NodeStats* stats);
    void leave(NodeStats* prev);

  private:
    NodeStats* current_ = nullptr;
    double mark_ = 0;
};

class Node : public net::Endpoint {
  public:
    explicit Node(Cluster& cluster);
    int id() const {
        return id_;
    }
    const NodeStats& stats() const {
        return stats_;
    }
    void deliver(int from, net::Message&& m, size_t bytes) final;

  protected:
    virtual void handle(int from, net::Message&& m) = 0;
    size_t send(int to, const net::Message& m);  // synchronous; 0 == lost
    size_t post(int to, const net::Message& m);  // queued until settle()
    void charge(size_t bytes);

    Cluster& cluster_;
    int id_;
    NodeStats stats_;
};

// Owns shards of the source tables. Absorbs all writes; its
// sub::Publisher pushes each to the compute servers subscribed to a
// containing range, one notify per put per subscriber, stamped with this
// base's generation and the per-link notify sequence so receivers can
// detect loss. With persistence configured (DESIGN.md §13) the
// source tables are *actually* durable: every client put is WAL-logged
// and flushed before the put returns (sync-on-ack), restart() rebuilds
// the engine from checkpoint + WAL replay, and the generation is the
// manifest's durable restart counter — so the §10 detectors fire off
// real recovered state, not a simulation flag. Subscription state is
// never persisted; computes notice the generation change and
// re-subscribe. Without persistence the pre-§13 in-memory simulation is
// unchanged.
class BaseServer : public Node {
  public:
    explicit BaseServer(Cluster& cluster);
    const Server& engine() const {
        return *engine_;
    }
    uint64_t generation() const {
        return pub_.generation();
    }
    // Simulated crash recovery: forget every subscriber and bump the
    // generation — by reloading durable state from disk when persistence
    // is on, by incrementing the in-memory counter when it is off.
    void restart();
    // Power loss: un-flushed WAL records are gone. No-op without
    // persistence (Cluster::crash_base calls this).
    void power_fail();
    // Snapshot the base tables and truncate the WAL; false when
    // persistence is off or the checkpoint failed verification.
    bool checkpoint_now();
    bool persistent() const {
        return persist_ != nullptr;
    }
    // Stats of the most recent recovery (construction or restart).
    const persist::RecoverResult& last_recovery() const {
        return last_recovery_;
    }

  private:
    void handle(int from, net::Message&& m) override;
    // Sync-on-ack (§13): the synchronous RPC return IS the ack, so the
    // handler flushes for itself after journaling — pqcheck's
    // flush-before-ack rule verifies the self-flushing shape.
    PQ_RELEASES_ACK void handle_put(const std::string& key,
                                    const std::string& value);
    void init_engine();
    void open_persistence();
    void recover_from_disk();

    std::unique_ptr<Server> engine_;
    std::unique_ptr<persist::Persistence> persist_;
    persist::RecoverResult last_recovery_;
    sub::Publisher pub_;
};

// Executes the join for its share of users. Source data is a locally
// cached copy kept fresh by subscriptions; the engine's source-scan
// observer is the subscription trigger. Its sub::Subscriber judges every
// frame a base sends back; on top of it this tier adds the §10 recovery
// driver: gap/restart verdicts invalidate and re-subscribe, failed
// subscriptions back off under a retry budget, heartbeats catch lost
// tails, and a blank restart re-materializes everything on demand.
class ComputeServer : public Node {
  public:
    explicit ComputeServer(Cluster& cluster);
    const Server& engine() const {
        return *engine_;
    }
    size_t subscribed_range_count() const {
        return sub_.covered().size();
    }
    uint64_t epoch() const {
        return sub_.epoch();
    }
    const FaultStats& fault_stats() const {
        return fstats_;
    }
    size_t pending_retry_count() const {
        return pending_.size();
    }
    // Heartbeat + retry driver; called by Cluster::tick() at quiescence.
    void tick(uint64_t now);
    // Crash recovery: start over with an empty engine and a fresh epoch;
    // timelines re-materialize on demand. (The simulation keeps the
    // epoch counter across the crash; a real node would persist a
    // restart counter to the same effect.)
    void restart();

  private:
    // A subscription attempt awaiting its backoff-delayed retry.
    struct PendingSub {
        std::string lo, hi;
        int base;
        int attempts;
        uint64_t next_try;  // cluster tick
    };

    void handle(int from, net::Message&& m) override;
    // A kNotify, kBackfill or kPong: act on the Subscriber's verdict.
    void handle_feed(int from, const net::Message& m);
    void will_scan_source(Str lo, Str hi);
    void init_engine();
    void subscribe_range(const std::string& lo, const std::string& hi);
    // One synchronous subscribe + backfill; on success the range is held
    // from `base`.
    bool subscribe_at(int base, const std::string& lo,
                      const std::string& hi);
    void schedule_retry(int base, const std::string& lo,
                        const std::string& hi, int attempts);
    void mark_covered_if_complete(const std::string& lo,
                                  const std::string& hi);
    bool overlaps_pending(Str lo, Str hi) const;
    // Everything held from `base` is suspect: invalidate it in the
    // engine, bump the epoch, and re-subscribe.
    void invalidate_base(int base);

    std::unique_ptr<Server> engine_;
    sub::Subscriber sub_;
    std::vector<PendingSub> pending_;
    uint64_t now_ = 0;          // last cluster tick observed
    bool backfill_ok_ = false;  // set when a backfill is applied
    FaultStats fstats_;
};

// The workload driver's endpoint: issues puts to base servers and scans
// to compute servers, so client traffic is framed and counted like
// everything else. Returns whether the RPC completed — false means the
// frame (or its reply) was lost to a fault and the caller should retry.
class Client : public Node {
  public:
    explicit Client(Cluster& cluster);
    bool put(const std::string& key, const std::string& value);
    // Scan [lo, hi) at the compute server `server_id`; fills `out` with
    // the returned entries when non-null.
    bool scan(int server_id, const std::string& lo, const std::string& hi,
              ScanResult* out);

  private:
    void handle(int from, net::Message&& m) override;

    ScanResult* pending_ = nullptr;
    bool reply_ok_ = false;
};

// §10 retry policy: a failed subscription retries up to kRetryBudget
// times with exponential backoff (1 << (attempts - 1) ticks, capped at
// kBackoffMaxTicks), measured in Cluster::tick() calls. On exhaustion
// the range falls back to on-demand subscription at the next scan.
constexpr int kRetryBudget = 8;
constexpr uint64_t kBackoffMaxTicks = 16;

class Cluster {
  public:
    struct Config {
        int base_servers = 4;
        int compute_servers = 4;
        // Table prefixes owned by the base tier; everything else (join
        // sinks) lives at the compute servers.
        std::vector<std::string> base_tables;
        // ';'-separated join specs installed at every compute server.
        std::string joins;
        // Durability (§13): when persist.dir is non-empty, each base
        // server journals to <dir>/base-<i> and recovers from it on
        // restart. Compute servers never persist — their state is
        // derived and rebuilds on demand.
        persist::PersistConfig persist;
    };

    explicit Cluster(const Config& config);

    // Route a write to its home base server, through the client.
    // False when the frame was lost to a fault (caller should retry).
    bool put(const std::string& key, const std::string& value);
    // Deliver queued notifications until quiescence.
    void settle();
    // One maintenance round (§10): every live compute server heartbeats
    // its bases (detecting restarts and silently lost notify tails) and
    // retries pending subscriptions whose backoff expired. Call at
    // quiescence — typically right after settle().
    void tick();

    // Fault-schedule controls for chaos tests and benches. A crashed
    // server receives nothing; restart_base loses subscription state
    // (durable tables survive), restart_compute comes back blank.
    void crash_base(int i);
    void restart_base(int i);
    // Checkpoint base server i's tables (no-op false without
    // persistence).
    bool checkpoint_base(int i) {
        return bases_[static_cast<size_t>(i)]->checkpoint_now();
    }
    void crash_compute(int i);
    void restart_compute(int i);
    bool base_crashed(int i) const;
    bool compute_crashed(int i) const;

    Client& client() {
        return *client_;
    }
    BaseServer& base(int i) {
        return *bases_[static_cast<size_t>(i)];
    }
    ComputeServer& compute(int i) {
        return *computes_[static_cast<size_t>(i)];
    }
    // Per-user server affinity: the compute server owning `affinity`.
    ComputeServer& compute_for(const std::string& affinity);
    // The index (not endpoint id) of the compute server for `affinity`.
    int compute_index_for(const std::string& affinity) const;
    const net::Network& net() const {
        return net_;
    }

    const Config& config() const {
        return config_;
    }
    net::Network& network() {
        return net_;
    }
    CpuMeter& meter() {
        return meter_;
    }
    int register_endpoint(net::Endpoint* e) {
        return net_.add_endpoint(e);
    }
    // The base server owning `key`'s routing group (shard/routing.hh:
    // the table prefix plus the next '|'-terminated component).
    int home_base(const std::string& key) const;
    bool is_server(int endpoint_id) const {
        return endpoint_id
            < config_.base_servers + config_.compute_servers;
    }
    // True when [lo, ...) addresses a base-tier table (a range the
    // compute tier must subscribe rather than own).
    bool is_base_range(Str lo) const;

  private:
    Config config_;
    net::Network net_;
    CpuMeter meter_;
    std::vector<std::unique_ptr<BaseServer>> bases_;
    std::vector<std::unique_ptr<ComputeServer>> computes_;
    std::unique_ptr<Client> client_;
    uint64_t tick_ = 0;
};

}  // namespace distrib
}  // namespace pequod

#endif
