// The range-subscription protocol (DESIGN.md §7, §10, §12), one copy
// for both tiers. A distrib::BaseServer publishes its source tables to
// compute servers; a shard publishes the base ranges it owns to its
// peers. Both drive the same two ends through a Send callback, so how a
// frame travels (the simulated network, a mailbox, a direct call) stays
// the tier's business.
//
// Publisher (owner side): the range -> subscriber registry, stabbed once
// per put with one hit per distinct subscriber; per-subscriber pending
// notify batches; and the §10 stamps on every frame it sends — the
// owner's generation, the subscriber's epoch and the per-link live
// sequence. A batch flushes at `batch_limit` items or when the tier
// calls flush(). The distribution tier passes 1, so every put posts one
// notify per subscriber; the shard tier passes shard::kNotifyBatchItems
// (64) and also flushes when its mailbox runs dry and before its early
// ship.
//
// Subscriber (subscriber side): the ranges already covered, the routing
// rule that sends a range to its one owner (or to every owner when it
// spans routing groups), and one link per owner holding the generation
// and next live sequence last adopted. check() is the one verdict
// function for every notify, backfill and pong. What a verdict other
// than kApply means is the tier's call: the distribution tier's links
// lose, duplicate and reorder frames, so it drops duplicates and stale
// epochs and answers a gap or restart with invalidate-and-resubscribe;
// the shard tier's mailboxes are reliable and FIFO per peer, so there
// any other verdict is a broken invariant.
#ifndef PEQUOD_SUB_SUBSCRIPTION_HH
#define PEQUOD_SUB_SUBSCRIPTION_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fnref.hh"
#include "common/interval_map.hh"
#include "common/rangeset.hh"
#include "common/str.hh"
#include "net/message.hh"

namespace pequod {
namespace sub {

using Items = std::vector<std::pair<std::string, std::string>>;
using Range = std::pair<std::string, std::string>;

// Moves one stamped frame (kNotify, kBackfill or kPong) to subscriber
// `dest`. Always the last step of a Publisher operation, so it may
// re-enter the Publisher: a synchronous backfill can make its receiver
// subscribe again.
using Send = std::function<void(int dest, const net::Message& m)>;

class Publisher {
  public:
    Publisher(size_t batch_limit, Send send)
        : batch_limit_(batch_limit), send_(std::move(send)) {}

    uint64_t generation() const {
        return gen_;
    }
    // Items queued in unflushed batches, summed over subscribers.
    size_t pending() const {
        return pending_;
    }
    // The next live sequence for `dest` (1 before its first notify).
    uint64_t next_seq(int dest) const {
        auto it = links_.find(dest);
        return it == links_.end() ? 1 : it->second.next_seq;
    }
    // Forget every subscriber and stamp later frames with `gen`: the
    // generation change is how subscribers learn their ranges are gone.
    void reset(uint64_t gen);
    // Register `dest` for [lo, hi) (once per distinct range) and send it
    // the backfill `fill` produces. The backfill echoes the subscribe's
    // `epoch` and carries the next live sequence as a baseline without
    // consuming it, so one overtaking queued notifies fakes no gap.
    void subscribe(int dest, Str lo, Str hi, uint64_t epoch,
                   FnRef<void(Items&)> fill);
    // Queue (key, value) once for each subscriber with a range holding
    // `key`, in ascending subscriber order.
    void publish(Str key, Str value);
    // Send every pending batch, in ascending subscriber order.
    void flush();
    // Answer a heartbeat with the generation and next live sequence.
    void pong(int dest);

  private:
    struct Link {
        uint64_t epoch = 0;     // newest epoch the subscriber used
        uint64_t next_seq = 1;  // next live notify sequence
        Items pending;
    };

    void flush(int dest, Link& link);

    size_t batch_limit_;
    Send send_;
    uint64_t gen_ = 1;
    // Routing state, not join maintenance, so the map lives outside
    // Table. pqcheck: allow(intervalmap-mutation)
    IntervalMap<int> registry_;
    std::set<std::tuple<int, std::string, std::string>, std::less<>>
        registered_;
    std::vector<int> hits_;
    std::map<int, Link> links_;
    size_t pending_ = 0;
};

enum class Verdict {
    kApply,       // in step: apply the items (a pong: nothing missed)
    kDuplicate,   // a notify already applied
    kGap,         // notifies went missing
    kRestart,     // the owner's generation changed (or was never seen)
    kStaleEpoch,  // a backfill answering a superseded epoch's subscribe
};

class Subscriber {
  public:
    // `owners` publishers, numbered as shard::shard_of numbers routing
    // groups; `self` is this node's own number among them, or -1.
    Subscriber(int owners, int self) : owners_(owners), self_(self) {}

    // Frames stamped under an older epoch answer superseded subscribes.
    uint64_t epoch() const {
        return epoch_;
    }
    const RangeSet& covered() const {
        return covered_;
    }
    bool covers(Str lo, Str hi) const {
        return covered_.covers(lo, hi);
    }
    void cover(Str lo, Str hi);
    void uncover(Str lo, Str hi) {
        covered_.subtract(lo, hi);
    }
    // Subscribe [lo, hi) at the one owner of its routing group, or at
    // every owner but this node when it spans groups. The range becomes
    // covered only when every leg's `subscribe_at` returned true.
    bool fan_out(Str lo, Str hi, FnRef<bool(int owner)> subscribe_at);

    // The verdict on a kNotify, kBackfill or kPong from `owner`. A
    // backfill on a fresh link adopts its generation and sequence
    // baseline; an established link keeps its own expectation, since a
    // backfill may overtake notifies already queued behind it. Live
    // notifies are judged by (gen, seq) alone: after a drop() the link
    // adopts a baseline at or above every earlier seq, so older frames
    // fall out as duplicates whatever epoch they carry.
    Verdict check(int owner, const net::Message& m);
    // The next live sequence expected from `owner`; 0 with no link.
    uint64_t next_seq(int owner) const {
        auto it = links_.find(owner);
        return it == links_.end() ? 0 : it->second.next_seq;
    }

    // Record that [lo, hi)'s freshness depends on `owner`.
    void hold(int owner, Str lo, Str hi);
    // Whether anything is held from `owner`.
    bool live(int owner) const {
        auto it = links_.find(owner);
        return it != links_.end() && !it->second.held.empty();
    }
    // Everything held from `owner` is suspect: start a new epoch, reset
    // the link, and hand back the ranges it held.
    std::vector<Range> drop(int owner);
    // Start over: a new epoch, nothing covered, no links.
    void restart();

  private:
    struct Link {
        uint64_t gen = 0;       // owner generation adopted; 0 == none
        uint64_t next_seq = 0;  // next expected live notify sequence
        std::vector<Range> held;
    };

    int owners_;
    int self_;
    uint64_t epoch_ = 1;
    RangeSet covered_;
    std::map<int, Link> links_;
};

}  // namespace sub
}  // namespace pequod

#endif
