// The multi-shard server (DESIGN.md §12): N shards, each an exclusively
// owned core::Server holding the routing groups that hash to it, wired
// together by per-shard MPSC mailboxes (common/mpsc_queue.hh). Every
// message — client puts and scans, cross-shard subscribe/backfill,
// notify fan-out — is net/-encoded, several messages back to back in one
// mailbox frame, and applied by the shard that owns the data, so exactly
// one thread ever mutates a given Server (no locks anywhere in the data
// path; the mailboxes are the only synchronization).
//
// Cross-shard freshness is the subscription protocol of src/sub/, run
// peer-to-peer: each shard is a sub::Publisher for the base ranges it
// owns and a sub::Subscriber for the remote ones its joins read. When
// shard A materializes a join whose source range lives on shard B, A's
// source observer sends B a kSubscribe and waits for the kBackfill
// reply; B registers the range and queues later client puts into it in
// a per-destination notify batch. This tier adds three things on top:
//  - the nonce wait loop: a subscribing shard keeps serving protocol
//    frames from its own mailbox until its backfill (the nonce rides in
//    the epoch field) arrives, deferring client frames;
//  - the mailbox-dry flush: batches coalesce across frames and flush at
//    kNotifyBatchItems or when the owner's mailbox runs dry, so a burst
//    of writes wakes each subscriber once, not once per write;
//  - the early ship: a threaded shard without a WAL ships each put's
//    notify before running its own local fan-out, trading that
//    coalescing for freshness.
// Mailboxes are reliable and FIFO per peer, so every frame the
// Subscriber judges must be in step; any other verdict throws
// std::logic_error. Owners notify only client puts, yet a join may read
// another join's sink: every shard installs every join, so the reading
// shard materializes the sink range itself from the base rows it owns
// or subscribes, and its own updaters keep it fresh.
//
// Two execution modes over the same per-shard state and handler code:
//  - start()/stop() spawns one worker thread per shard (the real
//    deployment; what the TSan stress suite runs).
//  - the step()/release_staged() driving API runs shards inline on the
//    caller's thread, one frame at a time, exposing each frame's
//    virtual-time stamp — the hook bench/fig_shard_scaling.cpp uses to
//    run a measured-service-time discrete-event simulation on hosts
//    with fewer cores than shards.
#ifndef PEQUOD_SHARD_SHARDED_SERVER_HH
#define PEQUOD_SHARD_SHARDED_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mpsc_queue.hh"
#include "common/str.hh"
#include "core/server.hh"
#include "net/buffer.hh"
#include "net/message.hh"
#include "persist/persist.hh"
#include "shard/routing.hh"
#include "sub/subscription.hh"

namespace pequod {
namespace shard {

struct ShardConfig {
    int shards = 1;
    // ';'-separated join specs installed on every shard's Server.
    std::string joins;
    // Durability (§13): when persist.dir is non-empty each shard
    // journals the client puts it *owns* to <dir>/shard-<s>, group-
    // committed per mailbox frame (a put's completion is released only
    // after its frame's WAL batch flushed). Replicated ranges and join
    // sinks are never logged — they rebuild through the subscription
    // protocol after recovery.
    persist::PersistConfig persist;
};

// Pending notify items per destination before an early flush; until
// then fan-out coalesces across drained frames (§12).
constexpr size_t kNotifyBatchItems = 64;

// One mailbox element: a batch of encoded messages from one producer.
// `stamp` is the sender's virtual completion time in simulation mode
// (the receiver may not process the frame at an earlier virtual time);
// worker threads leave it 0.
struct Frame {
    int from = -1;  // producing shard id, or encode_client(id) for clients
    uint64_t stamp = 0;
    net::Buffer buf;
};

// A finished client operation: the ticket issued at submit time plus
// the virtual completion time (simulation mode; 0 under real threads).
struct Completion {
    uint64_t ticket = 0;
    uint64_t vt = 0;
};

struct ShardStats {
    uint64_t frames = 0;           // mailbox frames drained
    uint64_t messages = 0;         // decoded messages applied
    uint64_t client_puts = 0;
    uint64_t client_scans = 0;
    uint64_t subscribes_sent = 0;
    uint64_t subscribes_served = 0;
    uint64_t backfill_items = 0;   // items this shard backfilled to peers
    uint64_t notify_frames_sent = 0;
    uint64_t notify_items_sent = 0;
    uint64_t notify_items_applied = 0;
    uint64_t broadcast_scans = 0;  // scans served with ownership filtering
};

class ShardedServer;

// A load generator's handle: submit ops (batched per destination shard),
// flush frames, poll completions and scan replies. One thread per
// client; distinct clients may run on distinct threads.
class ShardClient {
  public:
    int id() const {
        return id_;
    }

    // Batch a put/scan toward its owning shard; returns the op ticket.
    // A scan over a range spanning routing groups broadcasts to every
    // shard (each filters to keys it owns) and will produce one reply
    // frame per shard under the same ticket; frames_for_last_scan()
    // reports how many.
    PQ_CLIENT_CONTEXT uint64_t submit_put(Str key, Str value);
    PQ_CLIENT_CONTEXT uint64_t submit_scan(Str lo, Str hi);
    int frames_for_last_scan() const {
        return last_scan_frames_;
    }

    // Ship every pending batch to its shard mailbox, stamped with
    // `stamp` (virtual arrival time; 0 under real threads).
    PQ_CLIENT_CONTEXT void flush(uint64_t stamp = 0);
    size_t pending_ops() const {
        return pending_ops_;
    }

    // Completions: puts complete through poll_completion; scans complete
    // through poll_reply (the reply frame's stamp is the completion
    // time). Both are non-blocking; false when nothing has arrived.
    PQ_CLIENT_CONTEXT bool poll_completion(Completion& out) {
        RoleGuard guard(completions_.consumer_role());
        return completions_.try_pop(out);
    }
    PQ_CLIENT_CONTEXT bool poll_reply(Frame& out) {
        RoleGuard guard(replies_.consumer_role());
        return replies_.try_pop(out);
    }

  private:
    friend class ShardedServer;
    ShardClient(ShardedServer* owner, int id, int nshards)
        : owner_(owner), id_(id), batches_(static_cast<size_t>(nshards)) {}

    ShardedServer* owner_;
    int id_;
    uint64_t next_ticket_ = 1;
    int last_scan_frames_ = 0;
    size_t pending_ops_ = 0;
    std::vector<net::Buffer> batches_;  // one building batch per shard
    MpscQueue<Completion> completions_;
    MpscQueue<Frame> replies_;  // kScanReply frames
};

class ShardedServer {
  public:
    explicit ShardedServer(const ShardConfig& config);
    ~ShardedServer();
    ShardedServer(const ShardedServer&) = delete;
    ShardedServer& operator=(const ShardedServer&) = delete;

    int shards() const {
        return static_cast<int>(shards_.size());
    }
    // Register a load generator. All clients must exist before start().
    ShardClient& make_client();

    // Pre-start bulk load: route `key` directly into its owning shard's
    // Server, no framing. For graph edges and prepopulated data.
    PQ_QUIESCENT_CONTEXT void load(Str key, Str value);

    // --- real-thread mode -------------------------------------------------
    void start();      // one worker thread per shard
    void stop();       // wait for quiescence, then join the workers
    void wait_idle();  // block until every mailbox is empty and every
                       // worker has flushed its pending fan-out

    // --- inline / simulation mode ----------------------------------------
    // The caller is the only thread touching the shards. has_work is
    // true when shard `s` has a queued frame or unflushed fan-out;
    // peek_frame exposes the head frame (for its stamp) or null. step
    // drains ONE frame (or, with an empty mailbox, flushes pending
    // fan-out), staging every outgoing frame and completion; nothing
    // becomes visible until release_staged(s, vt) stamps the staged
    // output with the shard's virtual completion time. Returns whether
    // anything was done.
    PQ_WORKER_CONTEXT bool has_work(int s) const;
    PQ_WORKER_CONTEXT const Frame* peek_frame(int s) const;
    PQ_WORKER_CONTEXT bool step(int s);
    PQ_WORKER_CONTEXT PQ_RELEASES_ACK void release_staged(int s,
                                                          uint64_t vt);

    // Introspection (tests, benches). server() may only be touched when
    // no workers run.
    PQ_QUIESCENT_CONTEXT Server& server(int s) {
        return shards_[static_cast<size_t>(s)]->server;
    }
    const ShardStats& stats(int s) const {
        return shards_[static_cast<size_t>(s)]->stats;
    }
    PQ_QUIESCENT_CONTEXT const sub::Publisher& publisher(int s) const {
        return shards_[static_cast<size_t>(s)]->publisher;
    }
    PQ_QUIESCENT_CONTEXT const sub::Subscriber& subscriber(int s) const {
        return shards_[static_cast<size_t>(s)]->subscriber;
    }
    const ShardConfig& config() const {
        return config_;
    }
    // Durability controls (quiescence only, like server()). checkpoint
    // snapshots the shard's owned base keys and truncates its WAL.
    bool persistent() const {
        return config_.persist.enabled();
    }
    PQ_QUIESCENT_CONTEXT bool checkpoint_shard(int s);
    const persist::RecoverResult* last_recovery(int s) const {
        const ShardState& st = *shards_[static_cast<size_t>(s)];
        return st.persist ? &st.recovery : nullptr;
    }

    static int encode_client(int client_id) {
        return -1 - client_id;
    }

    // Racy snapshot of per-shard progress state for stall diagnosis
    // (the bench watchdog prints it when a drain stops moving). Reads
    // worker-owned fields without synchronization — diagnostic only.
    std::string debug_state() const;

  private:
    struct Staged {
        // Destination shard id -> encoded frame buffer being built.
        std::vector<net::Buffer> shard_frames;
        std::vector<std::pair<int, net::Buffer>> client_replies;
        std::vector<std::pair<int, Completion>> completions;
    };

    struct ShardState {
        ShardState(const ServerConfig& sc, sub::Send send, int nshards,
                   int self)
            : server(sc),
              publisher(kNotifyBatchItems, std::move(send)),
              subscriber(nshards, self) {}

        Server server;
        MpscQueue<Frame> mailbox;
        ShardStats stats;

        // Owner side: the peers subscribed to my base ranges and their
        // pending notify batches. Subscriber side: the remote source
        // ranges replicated here and one link per owning peer.
        sub::Publisher publisher;
        sub::Subscriber subscriber;
        uint64_t next_nonce = 1;
        // Nonces of subscribes still awaiting their backfill (worker
        // thread only; the inline path never blocks). A set, not a
        // single nonce: serving a peer's subscribe mid-wait can trigger
        // a nested subscribe of our own, and the outer backfill may
        // arrive while the inner wait runs — it must be applied, not
        // dropped.
        std::set<uint64_t> waiting_nonces;

        // Frames set aside while blocked awaiting a backfill (worker
        // mode): client work deferred until the materialization that
        // needed the backfill finishes.
        std::deque<Frame> deferred;
        // Peer messages decoded but not yet applied, in arrival order.
        // Applying one can block in a nested subscribe wait, which must
        // apply the rest of its frame before any later frame from the
        // same peer, or that peer's notifies would apply out of order.
        std::deque<std::pair<int, net::Message>> feed;

        Staged staged;

        // §13 durability: this shard's journal (worker-owned like the
        // Server) and what the constructor's recovery replayed.
        std::unique_ptr<persist::Persistence> persist;
        persist::RecoverResult recovery;

        // Quiescence protocol (worker mode). `idle` is false for the
        // whole time the worker might be inside step() — it is cleared
        // *before* the frame is popped, not after the step returns, so
        // wait_idle can never observe a stale true while a worker is
        // blocked mid-step (e.g. in a subscribe wait loop). `progress`
        // counts completed steps; wait_idle requires it stable across
        // its scans, which catches a frame that was produced and
        // consumed entirely between two flag reads.
        std::atomic<bool> idle{false};
        std::atomic<uint64_t> progress{0};
    };

    friend class ShardClient;

    MpscQueue<Frame>& shard_mailbox(int s);
    PQ_WORKER_CONTEXT void worker_loop(int s);
    // Apply one mailbox frame's batch, then group-commit its WAL records.
    PQ_WORKER_CONTEXT void apply_frame(int s, Frame&& frame);
    // Apply every queued peer message, oldest first.
    PQ_WORKER_CONTEXT void drain_feed(int s);
    PQ_WORKER_CONTEXT void apply_message(int s, int from, net::Message&& m);
    PQ_WORKER_CONTEXT void handle_client_put(int s, int client,
                                             net::Message&& m);
    PQ_WORKER_CONTEXT void handle_client_scan(int s, int client,
                                              net::Message&& m);
    PQ_WORKER_CONTEXT void handle_subscribe(int s, int from,
                                            const net::Message& m);
    // The keys of [lo, hi) that shard `s` owns: a broadcast scan slice
    // or a backfill, either of which must skip the replicas `s` holds.
    PQ_WORKER_CONTEXT void scan_owned(int s, Str lo, Str hi,
                                      sub::Items& out);
    // Shard `s`'s Publisher output for peer `dest`: a notify joins the
    // staged frame for `dest`, a backfill goes straight to the requester
    // blocked on it.
    PQ_WORKER_CONTEXT void publish_frame(int s, int dest,
                                         const net::Message& m);
    // Hand a kSubscribe or kBackfill to peer `dest` at once, past the
    // staged output, since the requester is blocked on it: through the
    // peer's mailbox when threaded, by running its handler inline.
    PQ_WORKER_CONTEXT void send_now(int s, int dest, const net::Message& m);
    // Apply a notify or backfill from `from` at shard `s`, after its
    // Subscriber found it in step.
    PQ_WORKER_CONTEXT void apply_feed(int s, int from,
                                      const net::Message& m);
    // Fired by shard `s`'s engine before consulting a source range:
    // subscribe+backfill any remote, not-yet-replicated part.
    PQ_WORKER_CONTEXT void will_scan_source(int s, Str lo, Str hi);
    PQ_WORKER_CONTEXT void subscribe_to(int s, int owner, Str lo, Str hi);
    // Push staged peer-bound frames, stamped `vt`, to their mailboxes.
    // Leaves completions and client replies staged, so it is no
    // PQ_RELEASES_ACK: a threaded volatile put calls it mid-frame.
    PQ_WORKER_CONTEXT void ship_shard_frames(int s, uint64_t vt);
    // Ship staged output immediately (worker mode shorthand).
    PQ_WORKER_CONTEXT PQ_RELEASES_ACK void release_now(int s);

    // True when `key` lands in a join sink table (derived, never
    // persisted).
    bool is_sink_key(Str key) const;

    ShardConfig config_;
    std::vector<std::string> sink_prefixes_;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::vector<std::unique_ptr<ShardClient>> clients_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stopping_{false};
    bool threaded_ = false;
};

}  // namespace shard
}  // namespace pequod

#endif
