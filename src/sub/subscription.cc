#include "sub/subscription.hh"

#include <algorithm>

#include "shard/routing.hh"

namespace pequod {
namespace sub {

namespace {

// An owned copy, for the protocol's own bookkeeping.
std::string owned(Str s) {
    return {s.data(), s.size()};
}

}  // namespace

// ---- Publisher --------------------------------------------------------------

void Publisher::reset(uint64_t gen) {
    gen_ = gen;
    registry_.clear();
    registered_.clear();
    links_.clear();
    pending_ = 0;
}

void Publisher::subscribe(int dest, Str lo, Str hi, uint64_t epoch,
                          FnRef<void(Items&)> fill) {
    Link& link = links_[dest];
    link.epoch = std::max(link.epoch, epoch);
    if (registered_.emplace(dest, owned(lo), owned(hi)).second)
        registry_.insert(owned(lo), owned(hi), dest);
    net::Message reply;
    reply.type = net::MsgType::kBackfill;
    reply.gen = gen_;
    reply.epoch = epoch;
    reply.seq = link.next_seq;
    fill(reply.items);
    send_(dest, reply);
}

void Publisher::publish(Str key, Str value) {
    if (registry_.empty())
        return;
    hits_.clear();
    registry_.stab(key, [this](const int& dest) {
        hits_.push_back(dest);
    });
    std::sort(hits_.begin(), hits_.end());
    hits_.erase(std::unique(hits_.begin(), hits_.end()), hits_.end());
    for (int dest : hits_) {
        Link& link = links_[dest];
        link.pending.emplace_back(owned(key), owned(value));
        ++pending_;
        if (link.pending.size() >= batch_limit_)
            flush(dest, link);
    }
}

void Publisher::flush() {
    for (auto it = links_.begin(); it != links_.end() && pending_ != 0; ++it)
        flush(it->first, it->second);
}

void Publisher::flush(int dest, Link& link) {
    if (link.pending.empty())
        return;
    net::Message notify;
    notify.type = net::MsgType::kNotify;
    notify.gen = gen_;
    notify.epoch = link.epoch;
    notify.seq = link.next_seq++;
    notify.items.swap(link.pending);
    pending_ -= notify.items.size();
    send_(dest, notify);
}

void Publisher::pong(int dest) {
    net::Message pong;
    pong.type = net::MsgType::kPong;
    pong.gen = gen_;
    pong.seq = next_seq(dest);
    send_(dest, pong);
}

// ---- Subscriber -------------------------------------------------------------

void Subscriber::cover(Str lo, Str hi) {
    covered_.add(owned(lo), owned(hi));
}

bool Subscriber::fan_out(Str lo, Str hi,
                         FnRef<bool(int owner)> subscribe_at) {
    int owner = shard::shard_for_range(lo, hi, owners_);
    if (owner >= 0 && owner == self_)
        return true;  // our own routing group
    bool ok = true;
    for (int o = 0; o != owners_; ++o)
        if (owner >= 0 ? o == owner : o != self_)
            ok = subscribe_at(o) && ok;
    if (ok)
        cover(lo, hi);
    return ok;
}

Verdict Subscriber::check(int owner, const net::Message& m) {
    bool backfill = m.type == net::MsgType::kBackfill;
    if (backfill && m.epoch < epoch_)
        return Verdict::kStaleEpoch;
    Link& link = links_[owner];
    if (backfill && link.gen == 0) {
        link.gen = m.gen;
        link.next_seq = m.seq;
        return Verdict::kApply;
    }
    if (m.gen != link.gen)
        return Verdict::kRestart;
    if (m.type == net::MsgType::kPong)
        return m.seq > link.next_seq ? Verdict::kGap : Verdict::kApply;
    if (backfill)
        return Verdict::kApply;  // an established link keeps its seq
    if (m.seq < link.next_seq)
        return Verdict::kDuplicate;
    if (m.seq != link.next_seq)
        return Verdict::kGap;
    ++link.next_seq;
    return Verdict::kApply;
}

void Subscriber::hold(int owner, Str lo, Str hi) {
    std::vector<Range>& held = links_[owner].held;
    for (const Range& r : held)
        if (Str(r.first) == lo && Str(r.second) == hi)
            return;
    held.emplace_back(owned(lo), owned(hi));
}

std::vector<Range> Subscriber::drop(int owner) {
    ++epoch_;
    Link& link = links_[owner];
    link.gen = 0;
    link.next_seq = 0;
    std::vector<Range> held;
    held.swap(link.held);
    return held;
}

void Subscriber::restart() {
    ++epoch_;
    covered_ = RangeSet();
    links_.clear();
}

}  // namespace sub
}  // namespace pequod
