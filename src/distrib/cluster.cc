#include "distrib/cluster.hh"

#include <algorithm>
#include <stdexcept>

#include "common/clock.hh"
#include "join/join.hh"
#include "shard/routing.hh"

namespace pequod {
namespace distrib {

// ---- CpuMeter ---------------------------------------------------------------

NodeStats* CpuMeter::enter(NodeStats* stats) {
    double now = CpuTimer::now();
    NodeStats* prev = current_;
    if (current_)
        current_->busy_seconds += now - mark_;
    current_ = stats;
    mark_ = now;
    return prev;
}

void CpuMeter::leave(NodeStats* prev) {
    double now = CpuTimer::now();
    if (current_)
        current_->busy_seconds += now - mark_;
    current_ = prev;
    mark_ = now;
}

// ---- Node -------------------------------------------------------------------

Node::Node(Cluster& cluster)
    : cluster_(cluster), id_(cluster.register_endpoint(this)) {}

void Node::charge(size_t bytes) {
    stats_.busy_seconds += cluster_.config().cpu_per_message
        + static_cast<double>(bytes) * cluster_.config().cpu_per_byte;
}

void Node::deliver(int from, net::Message&& m, size_t bytes) {
    NodeStats* prev = cluster_.meter().enter(&stats_);
    ++stats_.messages;
    charge(bytes);
    handle(from, std::move(m));
    cluster_.meter().leave(prev);
}

size_t Node::send(int to, const net::Message& m) {
    size_t bytes = cluster_.network().send(id_, to, m);
    charge(bytes);
    if (cluster_.is_server(id_) && cluster_.is_server(to))
        stats_.server_bytes += bytes;
    return bytes;
}

size_t Node::post(int to, const net::Message& m) {
    size_t bytes = cluster_.network().post(id_, to, m);
    charge(bytes);
    if (cluster_.is_server(id_) && cluster_.is_server(to))
        stats_.server_bytes += bytes;
    return bytes;
}

// ---- BaseServer -------------------------------------------------------------

BaseServer::BaseServer(Cluster& cluster)
    : Node(cluster), pub_(1, [this](int dest, const net::Message& m) {
          // Notifies queue until settle(); a backfill or pong is the
          // synchronous reply to its subscribe or ping.
          if (m.type == net::MsgType::kNotify)
              post(dest, m);
          else
              send(dest, m);
      }) {
    init_engine();
    if (cluster_.config().persist.enabled()) {
        open_persistence();
        recover_from_disk();
    }
}

void BaseServer::init_engine() {
    engine_ = std::make_unique<Server>();
    for (const std::string& prefix : cluster_.config().base_tables)
        engine_->set_subtable_components(prefix, 1);
}

void BaseServer::open_persistence() {
    persist::PersistConfig pc = cluster_.config().persist;
    pc.dir += "/base-" + std::to_string(id_);
    persist_ = std::make_unique<persist::Persistence>(pc);
}

void BaseServer::recover_from_disk() {
    // Replay durable state straight into the engine, then start logging.
    // The observer is installed only after replay so recovered puts are
    // not re-journaled; the base tier never logs erases, so the erase
    // callback cannot fire.
    last_recovery_ = persist_->recover(
        [this](Str key, Str value) {
            engine_->put(key, value);
        },
        [](Str, Str) {});
    pub_.reset(last_recovery_.generation);
    persist::Persistence* p = persist_.get();
    engine_->set_write_observer([p](Str key, Str value) {
        p->log_put(key, value);
    });
}

void BaseServer::restart() {
    // Every subscriber relationship dies with the process. The
    // generation bump is what lets subscribers find out: the next frame
    // they see from us (or the next heartbeat pong) carries a gen they
    // have never met, and they invalidate and re-subscribe.
    if (persist_) {
        // Real recovery: a fresh engine rebuilt from checkpoint + WAL.
        // Acked puts survive (they were flushed before their ack);
        // un-acked tail records may not, exactly as §13 promises. The
        // generation comes from the manifest's durable restart counter.
        persist_.reset();
        init_engine();
        open_persistence();
        recover_from_disk();
    } else {
        // In-memory simulation: the tables "survive" because nothing
        // actually died.
        pub_.reset(pub_.generation() + 1);
    }
}

void BaseServer::power_fail() {
    if (persist_)
        persist_->simulate_crash();
}

bool BaseServer::checkpoint_now() {
    if (!persist_)
        return false;
    return persist_->checkpoint([this](FnRef<void(Str, Str)> emit) {
        engine_->scan_stored(Str(), Str(),
                             [&emit](const std::string& key,
                                     const Entry& e) {
                                 emit(Str(key), Str(e.value()));
                             });
    });
}

void BaseServer::handle(int from, net::Message&& m) {
    switch (m.type) {
    case net::MsgType::kPut:
        handle_put(m.key, m.value);
        break;
    case net::MsgType::kSubscribe:
        // Backfill synchronously: the subscriber's join execution is
        // blocked on this range's current contents.
        pub_.subscribe(from, m.key, m.value, m.epoch, [&](sub::Items& items) {
            engine_->scan(m.key, m.value,
                          [&items](const std::string& k, const ValuePtr& v) {
                              items.emplace_back(k, *v);
                          });
        });
        break;
    case net::MsgType::kPing:
        pub_.pong(from);
        break;
    default:
        throw std::logic_error("base server: unexpected message type");
    }
}

void BaseServer::handle_put(const std::string& key,
                            const std::string& value) {
    engine_->put(key, value);
    // Sync-on-ack: the put's WAL record reaches the platter before the
    // synchronous RPC returns, so an acknowledged write is by definition
    // a durable write (§13). Group commit still batches what a single
    // frame carried.
    if (persist_)
        persist_->flush();
    pub_.publish(key, value);
}

// ---- ComputeServer ----------------------------------------------------------

ComputeServer::ComputeServer(Cluster& cluster)
    : Node(cluster), sub_(cluster.config().base_servers, -1) {
    init_engine();
}

void ComputeServer::init_engine() {
    engine_ = std::make_unique<Server>();
    std::vector<std::string> sinks;
    for (const std::string& spec : split_join_specs(cluster_.config().joins)) {
        engine_->add_join(spec);
        Join parsed;
        parsed.parse(spec);
        sinks.push_back(parsed.sink().table_prefix());
    }
    // Group both the cached source shards and the sink tables by their
    // first component (the per-user / per-poster trees of §4.1).
    for (const std::string& prefix : cluster_.config().base_tables)
        engine_->set_subtable_components(prefix, 1);
    for (const std::string& prefix : sinks)
        engine_->set_subtable_components(prefix, 1);
    engine_->set_source_observer([this](Str lo, Str hi) {
        will_scan_source(lo, hi);
    });
}

void ComputeServer::restart() {
    // Come back blank: a fresh engine, no subscriptions, no link state.
    // Timelines re-materialize on demand, and the epoch bump makes every
    // in-flight frame stamped before the crash identifiably stale.
    ++fstats_.restarts;
    init_engine();
    sub_.restart();
    pending_.clear();
    backfill_ok_ = false;
}

void ComputeServer::handle(int from, net::Message&& m) {
    switch (m.type) {
    case net::MsgType::kScan: {
        net::Message reply;
        reply.type = net::MsgType::kScanReply;
        engine_->scan(m.key, m.value,
                      [&reply](const std::string& k, const ValuePtr& v) {
                          reply.items.emplace_back(k, *v);
                      });
        send(from, reply);
        break;
    }
    case net::MsgType::kNotify:
    case net::MsgType::kBackfill:
    case net::MsgType::kPong:
        handle_feed(from, m);
        break;
    default:
        throw std::logic_error("compute server: unexpected message type");
    }
}

void ComputeServer::handle_feed(int from, const net::Message& m) {
    if (m.type != net::MsgType::kBackfill && !sub_.live(from)) {
        // A stale subscription at the base — e.g. we restarted blank and
        // its subscriber list still names us. Nothing we advertise
        // depends on this link, so the frame is noise.
        if (m.type == net::MsgType::kNotify)
            ++fstats_.stray_drops;
        return;
    }
    switch (sub_.check(from, m)) {
    case sub::Verdict::kApply:
        if (m.type == net::MsgType::kPong)
            break;
        // Updates for subscribed ranges (backfill or live); the engine's
        // eager maintenance folds them into every materialized timeline.
        stats_.busy_seconds += cluster_.config().cpu_per_update
            * static_cast<double>(m.items.size());
        for (const auto& kv : m.items)
            engine_->put(kv.first, kv.second);
        if (m.type == net::MsgType::kBackfill)
            backfill_ok_ = true;
        break;
    case sub::Verdict::kDuplicate:
        // At-least-once delivery: applying it again would be correct too
        // (puts are idempotent), but dropping keeps the counters honest.
        ++fstats_.duplicate_drops;
        break;
    case sub::Verdict::kStaleEpoch:
        // The reply to a subscribe from a superseded epoch (its range
        // has since been invalidated); the retry path owns it now.
        ++fstats_.stale_epoch_drops;
        break;
    case sub::Verdict::kGap:
        // Notifies died in transit (a pong exposes a lost tail): every
        // range on this link may have missed updates.
        ++fstats_.gaps_detected;
        invalidate_base(from);
        break;
    case sub::Verdict::kRestart:
        // The base restarted since we subscribed and has forgotten our
        // ranges; invalidate_base re-subscribes, and those backfills
        // adopt the new generation.
        ++fstats_.base_restarts_detected;
        invalidate_base(from);
        break;
    }
}

// Str in, per the observer's allocation-free contract: the common cases
// — a local range, or one already subscribed — return without copying
// the bounds; only an actual subscription materializes strings.
void ComputeServer::will_scan_source(Str lo, Str hi) {
    if (!cluster_.is_base_range(lo))
        return;  // a local table (e.g. a chained join's sink)
    if (sub_.covers(lo, hi))
        return;
    if (overlaps_pending(lo, hi))
        return;  // a failed subscription's backoff owns this range
    subscribe_range(lo.str(), hi.str());
}

bool ComputeServer::overlaps_pending(Str lo, Str hi) const {
    for (const PendingSub& p : pending_)
        if ((hi.empty() || Str(p.lo) < hi)
            && (p.hi.empty() || Str(p.hi) > lo))
            return true;
    return false;
}

void ComputeServer::subscribe_range(const std::string& lo,
                                    const std::string& hi) {
    // Failed legs retry under backoff, and until they all land the
    // range stays uncovered so a later scan knows it is incomplete.
    sub_.fan_out(lo, hi, [&](int base) {
        if (subscribe_at(base, lo, hi))
            return true;
        schedule_retry(base, lo, hi, 1);
        return false;
    });
}

bool ComputeServer::subscribe_at(int base, const std::string& lo,
                                 const std::string& hi) {
    uint64_t sent_epoch = sub_.epoch();
    net::Message m;
    m.type = net::MsgType::kSubscribe;
    m.key = lo;
    m.value = hi;
    m.epoch = sent_epoch;
    // The backfill arrives synchronously (as kBackfill) before send()
    // returns, re-entering the engine with the range's current contents.
    // Success requires both that it actually arrived (a lost frame in
    // either direction leaves backfill_ok_ false — the RPC "timed out")
    // and that nothing invalidated this epoch mid-call.
    backfill_ok_ = false;
    send(base, m);
    if (!backfill_ok_ || sub_.epoch() != sent_epoch)
        return false;
    sub_.hold(base, lo, hi);
    return true;
}

void ComputeServer::schedule_retry(int base, const std::string& lo,
                                   const std::string& hi, int attempts) {
    const Cluster::Config& cfg = cluster_.config();
    if (attempts >= cfg.retry_budget) {
        // Budget exhausted: fall back to on-demand. Drop whatever was
        // built from partial data so nothing stale can be served, and
        // let the next scan of the range start a fresh subscription
        // cycle with a fresh budget.
        ++fstats_.abandoned;
        engine_->invalidate_range(lo, hi);
        sub_.uncover(lo, hi);
        return;
    }
    uint64_t backoff = cfg.backoff_base_ticks
        << (attempts > 0 ? attempts - 1 : 0);
    if (backoff > cfg.backoff_max_ticks || backoff == 0)
        backoff = cfg.backoff_max_ticks;
    pending_.push_back(PendingSub{lo, hi, base, attempts, now_ + backoff});
}

void ComputeServer::mark_covered_if_complete(const std::string& lo,
                                             const std::string& hi) {
    // An all-bases range is covered only when no leg is still pending.
    for (const PendingSub& p : pending_)
        if (p.lo == lo && p.hi == hi)
            return;
    sub_.cover(lo, hi);
}

void ComputeServer::invalidate_base(int base) {
    // New epoch: frames stamped before this moment are stale, and a
    // subscribe already on the wire will refuse its own reply.
    std::vector<sub::Range> ranges = sub_.drop(base);
    // Tear down first, then re-subscribe: the engine must not serve the
    // suspect data while the re-subscriptions (which re-enter it with
    // backfilled puts) are in flight.
    for (const auto& r : ranges) {
        ++fstats_.invalidated_ranges;
        engine_->invalidate_range(r.first, r.second);
        sub_.uncover(r.first, r.second);
    }
    for (const auto& r : ranges) {
        ++fstats_.resubscribes;
        subscribe_range(r.first, r.second);
    }
}

void ComputeServer::tick(uint64_t now) {
    NodeStats* prev = cluster_.meter().enter(&stats_);
    now_ = now;
    // Heartbeat every base we depend on: a pong with a changed
    // generation or a higher next-sequence than ours means we missed
    // something that nothing else would ever tell us about.
    for (int b = 0; b != cluster_.config().base_servers; ++b) {
        if (!sub_.live(b))
            continue;
        net::Message ping;
        ping.type = net::MsgType::kPing;
        ping.epoch = sub_.epoch();
        send(b, ping);  // pong (if any) handled synchronously
    }
    // Retry pending subscriptions whose backoff expired, one at a time:
    // a retry can itself reshape pending_ (nested invalidation), and
    // mark_covered_if_complete must see the still-pending legs.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->next_try > now)
                continue;
            PendingSub p = std::move(*it);
            pending_.erase(it);
            progressed = true;
            if (sub_.covers(p.lo, p.hi))
                break;  // covered meanwhile by a broader subscription
            ++fstats_.retries;
            if (subscribe_at(p.base, p.lo, p.hi))
                mark_covered_if_complete(p.lo, p.hi);
            else
                schedule_retry(p.base, p.lo, p.hi, p.attempts + 1);
            break;
        }
    }
    cluster_.meter().leave(prev);
}

// ---- Client -----------------------------------------------------------------

Client::Client(Cluster& cluster) : Node(cluster) {}

bool Client::put(const std::string& key, const std::string& value) {
    NodeStats* prev = cluster_.meter().enter(&stats_);
    net::Message m;
    m.type = net::MsgType::kPut;
    m.key = key;
    m.value = value;
    size_t bytes = send(cluster_.home_base(key), m);
    cluster_.meter().leave(prev);
    return bytes != 0;
}

bool Client::scan(int server_id, const std::string& lo,
                  const std::string& hi, ScanResult* out) {
    NodeStats* prev = cluster_.meter().enter(&stats_);
    ScanResult discard;
    if (out)
        out->clear();
    pending_ = out ? out : &discard;
    reply_ok_ = false;
    net::Message m;
    m.type = net::MsgType::kScan;
    m.key = lo;
    m.value = hi;
    send(server_id, m);
    bool ok = reply_ok_;  // false when the request or the reply was lost
    pending_ = nullptr;
    cluster_.meter().leave(prev);
    return ok;
}

void Client::handle(int from, net::Message&& m) {
    (void)from;
    if (m.type == net::MsgType::kScanReply && pending_) {
        *pending_ = std::move(m.items);
        reply_ok_ = true;
    }
}

// ---- Cluster ----------------------------------------------------------------

Cluster::Cluster(const Config& config) : config_(config) {
    if (config_.base_servers < 1 || config_.compute_servers < 1)
        throw std::invalid_argument("cluster needs at least one server "
                                    "per tier");
    if (config_.persist.enabled())
        persist::make_dir(config_.persist.dir);
    // Endpoint ids: bases [0, B), computes [B, B + C), then the client.
    for (int i = 0; i < config_.base_servers; ++i)
        bases_.push_back(std::make_unique<BaseServer>(*this));
    for (int i = 0; i < config_.compute_servers; ++i)
        computes_.push_back(std::make_unique<ComputeServer>(*this));
    client_ = std::make_unique<Client>(*this);
}

bool Cluster::put(const std::string& key, const std::string& value) {
    return client_->put(key, value);
}

void Cluster::settle() {
    net_.drain();
}

void Cluster::tick() {
    ++tick_;
    for (auto& c : computes_)
        if (!net_.crashed(c->id()))
            c->tick(tick_);
    net_.drain();
}

void Cluster::crash_base(int i) {
    // Power loss, not orderly shutdown: WAL records still in the group
    // commit buffer are gone, exactly the ones whose puts never acked.
    bases_[static_cast<size_t>(i)]->power_fail();
    net_.set_crashed(base(i).id(), true);
}

void Cluster::restart_base(int i) {
    bases_[static_cast<size_t>(i)]->restart();
    net_.set_crashed(base(i).id(), false);
}

void Cluster::crash_compute(int i) {
    net_.set_crashed(compute(i).id(), true);
}

void Cluster::restart_compute(int i) {
    computes_[static_cast<size_t>(i)]->restart();
    net_.set_crashed(compute(i).id(), false);
}

bool Cluster::base_crashed(int i) const {
    return net_.crashed(i);
}

bool Cluster::compute_crashed(int i) const {
    return net_.crashed(config_.base_servers + i);
}

ComputeServer& Cluster::compute_for(const std::string& affinity) {
    return *computes_[static_cast<size_t>(compute_index_for(affinity))];
}

int Cluster::compute_index_for(const std::string& affinity) const {
    return static_cast<int>(
        Str(affinity).hash()
        % static_cast<uint64_t>(config_.compute_servers));
}

int Cluster::home_base(const std::string& key) const {
    if (!is_base_range(key))
        throw std::invalid_argument("no base table owns key '" + key + "'");
    return shard::shard_of(key, config_.base_servers);
}

bool Cluster::is_base_range(Str lo) const {
    for (const std::string& prefix : config_.base_tables)
        if (starts_with(lo, prefix))
            return true;
    return false;
}

}  // namespace distrib
}  // namespace pequod
