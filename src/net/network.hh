// The simulated network (DESIGN.md §7, §10): endpoints addressed by small
// integer ids, frames carried as encoded net::Buffers, and global
// message/byte counters so traffic is modeled from real framed sizes
// rather than hand-waved. Two delivery modes: send() dispatches
// synchronously (request/response paths — a scan, a subscribe and its
// backfill), post() enqueues until drain() (asynchronous notification
// fan-out, batched like the paper's write propagation).
//
// Fault layer (§10): a deterministic, seedable schedule of per-link
// frame drops, duplicates, and delays (delays reorder frames across
// drain rounds), plus partition sets and endpoint crashes that sever
// links entirely. Random loss applies to both delivery modes — a
// dropped send() returns 0, which callers treat as an RPC timeout —
// while duplication on the sync path models a retried RPC and delay is
// only meaningful for queued frames. Every injected fault is counted in
// NetStats so tests and benches can assert on the schedule that
// actually ran. The fault path is gated on one flag: a network nobody
// has configured faults on runs the original branch-free dispatch.
#ifndef PEQUOD_NET_NETWORK_HH
#define PEQUOD_NET_NETWORK_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "net/buffer.hh"
#include "net/message.hh"

namespace pequod {
namespace net {

class Endpoint {
  public:
    virtual ~Endpoint() = default;
    // `bytes` is the framed size, for the receiver's modeled-cost
    // accounting. Delivery may re-enter the network (replies, fan-out).
    virtual void deliver(int from, Message&& m, size_t bytes) = 0;
};

// Per-link fault probabilities, sampled independently per frame from the
// network's seeded generator. Only the chaos and fault suites set them:
// this struct is their fault-injection seam, and production runs
// fault-free at the defaults.
// pqcheck: allow(test-only-option)
struct FaultConfig {
    double drop = 0;       // frame vanishes in transit
    double duplicate = 0;  // frame delivered twice
    double delay = 0;      // queued frame held back 1..max_delay_rounds
                           // drain rounds (reordering it past later frames)
    int max_delay_rounds = 3;

    bool any() const {
        return drop > 0 || duplicate > 0 || delay > 0;
    }
};

// A point-in-time snapshot of the network's counters. Plain integers, so
// tests and benches keep reading `stats().messages` as before; the live
// counters behind it are relaxed atomics (AtomicNetStats below), making
// stats() safe to call from a monitoring thread while shard workers
// drive traffic — the chaos suite reads fault counters mid-run (§12).
struct NetStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
    uint64_t messages_by_type[kMsgTypeCount] = {};
    // Injected-fault counters (§10).
    uint64_t frames_dropped = 0;     // random loss
    uint64_t frames_duplicated = 0;
    uint64_t frames_delayed = 0;
    uint64_t partition_drops = 0;    // severed by a partition
    uint64_t crash_drops = 0;        // destination endpoint crashed
    uint64_t decode_failures = 0;    // undecodable frames discarded
};

// The live counters. Relaxed ordering throughout: each counter is an
// independent statistic, never used to publish other memory, so the only
// guarantee needed is that concurrent bumps don't tear or get lost. A
// snapshot taken mid-run may split a logically-simultaneous pair (a
// message counted, its bytes not yet) — monitoring tolerance, by design.
struct AtomicNetStats {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> messages_by_type[kMsgTypeCount] = {};
    std::atomic<uint64_t> frames_dropped{0};
    std::atomic<uint64_t> frames_duplicated{0};
    std::atomic<uint64_t> frames_delayed{0};
    std::atomic<uint64_t> partition_drops{0};
    std::atomic<uint64_t> crash_drops{0};
    std::atomic<uint64_t> decode_failures{0};

    NetStats snapshot() const {
        NetStats s;
        s.messages = messages.load(std::memory_order_relaxed);
        s.bytes = bytes.load(std::memory_order_relaxed);
        for (int i = 0; i != kMsgTypeCount; ++i)
            s.messages_by_type[i] =
                messages_by_type[i].load(std::memory_order_relaxed);
        s.frames_dropped = frames_dropped.load(std::memory_order_relaxed);
        s.frames_duplicated =
            frames_duplicated.load(std::memory_order_relaxed);
        s.frames_delayed = frames_delayed.load(std::memory_order_relaxed);
        s.partition_drops = partition_drops.load(std::memory_order_relaxed);
        s.crash_drops = crash_drops.load(std::memory_order_relaxed);
        s.decode_failures = decode_failures.load(std::memory_order_relaxed);
        return s;
    }
};

class Network {
  public:
    int add_endpoint(Endpoint* e) {
        endpoints_.push_back(e);
        crashed_.push_back(false);
        return static_cast<int>(endpoints_.size()) - 1;
    }

    // Encode, count, and deliver immediately. Returns the framed bytes,
    // or 0 when the frame was lost (partition, crash, injected drop) —
    // the caller's "RPC timed out" signal.
    size_t send(int from, int to, const Message& m) {
        Buffer b;
        encode_message(b, m);
        size_t bytes = account(m.type, b.size());
        if (faults_configured_) {
            if (!transit_allowed(from, to))
                return 0;
            const FaultConfig& fc = link_faults(from, to);
            if (chance(fc.drop)) {
                stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
                return 0;
            }
            if (chance(fc.duplicate)) {
                stats_.frames_duplicated.fetch_add(1, std::memory_order_relaxed);
                Buffer copy = b;
                dispatch(from, to, std::move(copy));
            }
        }
        dispatch(from, to, std::move(b));
        return bytes;
    }

    // Encode, count, and enqueue for the next drain(). Fault sampling
    // (drop/duplicate/delay) happens here; partitions and crashes are
    // checked at delivery time, so a partition raised mid-flight still
    // severs queued frames.
    size_t post(int from, int to, const Message& m) {
        Buffer b;
        encode_message(b, m);
        size_t bytes = account(m.type, b.size());
        if (faults_configured_) {
            const FaultConfig& fc = link_faults(from, to);
            if (chance(fc.drop)) {
                stats_.frames_dropped.fetch_add(1, std::memory_order_relaxed);
                return bytes;
            }
            if (chance(fc.duplicate)) {
                stats_.frames_duplicated.fetch_add(1, std::memory_order_relaxed);
                enqueue(from, to, Buffer(b), fc);
            }
            enqueue(from, to, std::move(b), fc);
        } else {
            queue_.push_back(Frame{from, to, std::move(b), round_});
        }
        return bytes;
    }

    // Deliver queued frames until quiescence (delivery may enqueue
    // more), advancing delay rounds as needed so held-back frames also
    // flush. Returns whether anything was delivered.
    bool drain() {
        bool any = false;
        while (!queue_.empty()) {
            auto it = std::find_if(queue_.begin(), queue_.end(),
                                   [this](const Frame& f) {
                                       return f.ready_round <= round_;
                                   });
            if (it == queue_.end()) {
                ++round_;  // only held frames remain; let them ripen
                continue;
            }
            Frame f = std::move(*it);
            queue_.erase(it);
            if (!faults_configured_ || transit_allowed(f.from, f.to)) {
                dispatch(f.from, f.to, std::move(f.buf));
                any = true;
            }
        }
        return any;
    }

    // A snapshot of the counters; safe from any thread while traffic
    // flows (delivery itself is still single-threaded — only the
    // counters are concurrent-read safe).
    NetStats stats() const {
        return stats_.snapshot();
    }

    // ---- fault schedule --------------------------------------------------

    void set_fault_seed(uint64_t seed) {
        rng_ = Rng(seed);
        faults_configured_ = true;
    }
    void set_default_faults(const FaultConfig& fc) {
        default_faults_ = fc;
        faults_configured_ = true;
    }
    void set_link_faults(int from, int to, const FaultConfig& fc) {
        link_faults_[{from, to}] = fc;
        faults_configured_ = true;
    }
    void clear_link_faults() {
        link_faults_.clear();
        default_faults_ = FaultConfig();
    }

    // Sever every link between a member of `a` and a member of `b`, both
    // directions. Partitions accumulate until clear_partitions().
    void set_partition(const std::vector<int>& a, const std::vector<int>& b) {
        for (int x : a)
            for (int y : b) {
                blocked_.insert({x, y});
                blocked_.insert({y, x});
            }
        faults_configured_ = true;
    }
    void clear_partitions() {
        blocked_.clear();
    }
    bool link_blocked(int from, int to) const {
        return blocked_.count({from, to}) != 0;
    }

    // A crashed endpoint receives nothing; the owner decides what state
    // the node loses when it is brought back.
    void set_crashed(int id, bool crashed) {
        crashed_.at(static_cast<size_t>(id)) = crashed;
        faults_configured_ = true;
    }
    bool crashed(int id) const {
        return crashed_.at(static_cast<size_t>(id));
    }

    // Strict mode restores the historical throw on an undecodable frame;
    // by default it is counted in decode_failures and discarded, so one
    // corrupt frame cannot take down the whole process.
    void set_strict_decode(bool strict) {
        strict_decode_ = strict;
    }

    // Hand a raw (possibly corrupt) frame to the receiving endpoint as if
    // it had crossed the wire — how tests exercise the decode-failure
    // path, since the normal entry points only emit well-formed frames.
    void deliver_raw(int from, int to, Buffer&& b) {
        dispatch(from, to, std::move(b));
    }

  private:
    struct Frame {
        int from;
        int to;
        Buffer buf;
        uint64_t ready_round;
    };

    size_t account(MsgType type, size_t bytes) {
        stats_.messages.fetch_add(1, std::memory_order_relaxed);
        stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
        stats_.messages_by_type[static_cast<int>(type)].fetch_add(
            1, std::memory_order_relaxed);
        return bytes;
    }

    bool chance(double p) {
        return p > 0 && rng_.uniform() < p;
    }

    const FaultConfig& link_faults(int from, int to) const {
        auto it = link_faults_.find({from, to});
        return it != link_faults_.end() ? it->second : default_faults_;
    }

    // Counts the reason a severed frame is lost, so fault schedules are
    // auditable from NetStats.
    bool transit_allowed(int from, int to) {
        if (crashed_.at(static_cast<size_t>(to))
            || crashed_.at(static_cast<size_t>(from))) {
            stats_.crash_drops.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        if (!blocked_.empty() && link_blocked(from, to)) {
            stats_.partition_drops.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        return true;
    }

    void enqueue(int from, int to, Buffer&& b, const FaultConfig& fc) {
        uint64_t ready = round_;
        if (chance(fc.delay)) {
            stats_.frames_delayed.fetch_add(1, std::memory_order_relaxed);
            ready += 1
                + rng_.below(static_cast<uint64_t>(
                    fc.max_delay_rounds > 0 ? fc.max_delay_rounds : 1));
        }
        queue_.push_back(Frame{from, to, std::move(b), ready});
    }

    // Frames cross the wire format for real: decode what was encoded.
    void dispatch(int from, int to, Buffer&& b) {
        size_t bytes = b.size();
        Message m;
        if (!decode_message(b, m)) {
            if (strict_decode_)
                throw std::runtime_error("network: undecodable frame");
            stats_.decode_failures.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        endpoints_.at(static_cast<size_t>(to))->deliver(from, std::move(m),
                                                        bytes);
    }

    std::vector<Endpoint*> endpoints_;
    std::deque<Frame> queue_;
    AtomicNetStats stats_;
    uint64_t round_ = 0;
    // Fault state. faults_configured_ stays false until any setter runs,
    // keeping the fault-free hot path a single predictable branch.
    bool faults_configured_ = false;
    bool strict_decode_ = false;
    Rng rng_{0x9e1d4b7u};
    FaultConfig default_faults_;
    std::map<std::pair<int, int>, FaultConfig> link_faults_;
    std::set<std::pair<int, int>> blocked_;
    std::vector<bool> crashed_;
};

}  // namespace net
}  // namespace pequod

#endif
