// ShardedServer implementation (DESIGN.md §12). Single-owner rule: all
// state inside a ShardState is touched only by its worker thread (or by
// the one driving thread in inline mode); the MpscQueue mailboxes are
// the only cross-thread hand-off, and every hand-off is an encoded
// frame. Client-facing queues (completions, scan replies) are MPSC the
// other way: workers produce, the client's thread consumes.
#include "shard/sharded_server.hh"

#include <algorithm>
#include <stdexcept>

#include "common/base.hh"

namespace pequod {
namespace shard {

// ---- ShardClient -----------------------------------------------------------

uint64_t ShardClient::submit_put(Str key, Str value) {
    uint64_t ticket = next_ticket_++;
    net::Message m;
    m.type = net::MsgType::kPut;
    m.key.assign(key.data(), key.size());
    m.value.assign(value.data(), value.size());
    m.seq = ticket;
    int s = shard_of(key, static_cast<int>(batches_.size()));
    net::encode_message(batches_[static_cast<size_t>(s)], m);
    ++pending_ops_;
    return ticket;
}

uint64_t ShardClient::submit_scan(Str lo, Str hi) {
    uint64_t ticket = next_ticket_++;
    net::Message m;
    m.type = net::MsgType::kScan;
    m.key.assign(lo.data(), lo.size());
    m.value.assign(hi.data(), hi.size());
    m.seq = ticket;
    int nshards = static_cast<int>(batches_.size());
    int s = shard_for_range(lo, hi, nshards);
    if (s >= 0) {
        net::encode_message(batches_[static_cast<size_t>(s)], m);
        last_scan_frames_ = 1;
    } else {
        // Spans routing groups: every shard serves its owned slice.
        m.epoch = 1;
        for (int d = 0; d != nshards; ++d)
            net::encode_message(batches_[static_cast<size_t>(d)], m);
        last_scan_frames_ = nshards;
    }
    ++pending_ops_;
    return ticket;
}

void ShardClient::flush(uint64_t stamp) {
    for (size_t s = 0; s != batches_.size(); ++s) {
        if (batches_[s].size() == 0)
            continue;
        Frame f;
        f.from = ShardedServer::encode_client(id_);
        f.stamp = stamp;
        f.buf = std::move(batches_[s]);
        batches_[s] = net::Buffer();
        owner_->shard_mailbox(static_cast<int>(s)).push(std::move(f));
    }
    pending_ops_ = 0;
}

// ---- ShardedServer ---------------------------------------------------------

ShardedServer::ShardedServer(const ShardConfig& config) : config_(config) {
    if (config_.shards < 1)
        throw std::invalid_argument("ShardedServer needs >= 1 shard");
    if (config_.persist.enabled())
        persist::make_dir(config_.persist.dir);
    // Sink table prefixes, for the checkpoint enumerator's "derived,
    // skip" filter. Parsed once; every shard installs the same specs.
    std::vector<std::string> specs = split_join_specs(config_.joins);
    for (const std::string& spec : specs) {
        Join parsed;
        parsed.parse(spec);
        sink_prefixes_.push_back(parsed.sink().table_prefix());
    }
    for (int s = 0; s != config_.shards; ++s) {
        shards_.push_back(std::make_unique<ShardState>(
            config_.server, config_.notify_batch_items,
            [this, s](int dest, const net::Message& m) {
                publish_frame(s, dest, m);
            },
            config_.shards, s));
        ShardState& st = *shards_.back();
        st.mailbox.set_capacity(config_.mailbox_capacity);
        st.staged.shard_frames.resize(static_cast<size_t>(config_.shards));
        for (const std::string& spec : specs)
            st.server.add_join(spec);
        st.server.set_source_observer([this, s](Str lo, Str hi) {
            will_scan_source(s, lo, hi);
        });
        if (config_.persist.enabled()) {
            persist::PersistConfig pc = config_.persist;
            pc.dir += "/shard-" + std::to_string(s);
            st.persist = std::make_unique<persist::Persistence>(pc);
            // Replay this shard's owned base keys straight into its
            // engine. Replicated ranges and sinks were never logged:
            // they come back through subscription and lazy
            // materialization, so recovery replays only what §13 calls
            // durable. The joins are already installed but no range has
            // been scanned, so these puts trigger no fan-out.
            st.recovery = st.persist->recover(
                [&st](Str key, Str value) {
                    st.server.put(key, value);
                },
                [](Str, Str) {});
        }
    }
}

bool ShardedServer::is_sink_key(Str key) const {
    for (const std::string& prefix : sink_prefixes_)
        if (starts_with(key, prefix))
            return true;
    return false;
}

bool ShardedServer::checkpoint_shard(int s) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    if (!st.persist)
        return false;
    int nshards = config_.shards;
    return st.persist->checkpoint([&](FnRef<void(Str, Str)> emit) {
        st.server.scan_stored(
            Str(), Str(),
            [&](const std::string& key, const Entry& e) {
                // Owned base keys only: replicas are another shard's
                // durability problem, sinks are derived.
                if (!is_sink_key(key)
                    && shard_of(key, nshards) == s)
                    emit(Str(key), Str(e.value()));
            });
    });
}

ShardedServer::~ShardedServer() {
    if (threaded_)
        stop();
}

ShardClient& ShardedServer::make_client() {
    if (threaded_)
        throw std::logic_error("make_client after start()");
    int id = static_cast<int>(clients_.size());
    clients_.push_back(std::unique_ptr<ShardClient>(
        new ShardClient(this, id, config_.shards)));
    return *clients_.back();
}

MpscQueue<Frame>& ShardedServer::shard_mailbox(int s) {
    return shards_[static_cast<size_t>(s)]->mailbox;
}

void ShardedServer::load(Str key, Str value) {
    ShardState& st =
        *shards_[static_cast<size_t>(shard_of(key, config_.shards))];
    st.server.put(key, value);
    // Bulk load rides the normal group commit (no per-put flush);
    // start() and orderly shutdown both flush the tail. Sink-prefix
    // keys stay unlogged, matching the checkpoint filter (see
    // handle_client_put).
    if (st.persist && !is_sink_key(key))
        st.persist->log_put(key, value);
}

// ---- frame application -----------------------------------------------------

bool ShardedServer::has_work(int s) const {
    const ShardState& st = *shards_[static_cast<size_t>(s)];
    return st.mailbox.approx_size() != 0 || !st.deferred.empty()
        || st.publisher.pending() != 0;
}

const Frame* ShardedServer::peek_frame(int s) const {
    const ShardState& st = *shards_[static_cast<size_t>(s)];
    if (!st.deferred.empty())
        return &st.deferred.front();
    RoleGuard consumer(st.mailbox.consumer_role());
    return st.mailbox.peek();
}

bool ShardedServer::step(int s) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    RoleGuard consumer(st.mailbox.consumer_role());
    Frame f;
    bool worked = false;
    if (!st.deferred.empty()) {
        f = std::move(st.deferred.front());
        st.deferred.pop_front();
        apply_frame(s, std::move(f));
        worked = true;
    } else if (st.mailbox.try_pop(f)) {
        apply_frame(s, std::move(f));
        worked = true;
    } else if (st.publisher.pending() != 0) {
        st.publisher.flush();
        return true;
    } else {
        return false;
    }
    // Coalescing boundary: fan-out accumulated while frames kept
    // arriving; once the mailbox runs dry, wake the subscribers.
    if (st.publisher.pending() != 0 && st.deferred.empty()
        && st.mailbox.approx_size() == 0)
        st.publisher.flush();
    return worked;
}

void ShardedServer::apply_frame(int s, Frame&& frame) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    ++st.stats.frames;
    net::Message m;
    while (net::decode_message(frame.buf, m)) {
        ++st.stats.messages;
        if (frame.from < 0)
            apply_message(s, frame.from, std::move(m));
        else
            st.feed.emplace_back(frame.from, std::move(m));
    }
    drain_feed(s);
    // Group commit at the frame boundary (§13): one flush covers every
    // put the frame carried, and it lands before the frame's staged
    // completions are released — a completion the client can observe
    // names a put that is already durable.
    if (st.persist)
        st.persist->flush();
}

void ShardedServer::drain_feed(int s) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    while (!st.feed.empty()) {
        std::pair<int, net::Message> next = std::move(st.feed.front());
        st.feed.pop_front();
        apply_message(s, next.first, std::move(next.second));
    }
}

void ShardedServer::apply_message(int s, int from, net::Message&& m) {
    switch (m.type) {
    case net::MsgType::kPut:
        handle_client_put(s, -1 - from, std::move(m));
        break;
    case net::MsgType::kScan:
        handle_client_scan(s, -1 - from, std::move(m));
        break;
    case net::MsgType::kSubscribe:
        handle_subscribe(s, from, m);
        break;
    case net::MsgType::kNotify:
        apply_feed(s, from, m);
        break;
    case net::MsgType::kBackfill:
        // Only reachable in the threaded wait loop (the inline path
        // applies backfills synchronously). Any outstanding nonce may
        // complete here: nested waits see outer backfills.
        if (shards_[static_cast<size_t>(s)]->waiting_nonces.erase(m.epoch)
            == 0)
            throw std::logic_error("shard: a backfill nobody waits for");
        apply_feed(s, from, m);
        break;
    default:
        break;  // kPing/kPong/kScanReply never target a shard
    }
}

void ShardedServer::handle_client_put(int s, int client, net::Message&& m) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    // Threaded and volatile: the notify leaves before the local eager
    // fan-out, so subscribers on other shards start while this one is
    // still updating its own timelines (§12). Safe because Server::write
    // stores the key before it stabs an updater or can reach a nested
    // subscribe wait, so a subscribe served mid-fan-out backfills it.
    // Flushing every pending batch first keeps each peer's notifies in
    // FIFO order. Inline mode keeps the staged order (its frames carry
    // virtual-time stamps from release_staged), and durable mode must:
    // no peer may see a post before its WAL batch flushes (§13).
    bool ship_early = threaded_ && !st.persist;
    if (ship_early) {
        st.publisher.publish(m.key, m.value);
        st.publisher.flush();
        ship_shard_frames(s, 0);
    }
    st.server.put(m.key, m.value);
    // Sink-prefix keys are derived state: checkpoint_shard excludes
    // them, so the log must too — a logged-but-never-checkpointed key
    // would survive only until the first checkpoint truncates the WAL,
    // then silently vanish. Keeping the logged and snapshotted key sets
    // identical makes such a put uniformly volatile: it lives until
    // restart, like any other derived data, every time.
    if (st.persist && !is_sink_key(m.key))
        st.persist->log_put(m.key, m.value);
    ++st.stats.client_puts;
    if (config_.log_applied)
        st.applied_puts.emplace_back(m.key, m.value);
    if (!ship_early)
        st.publisher.publish(m.key, m.value);
    st.staged.completions.emplace_back(client, Completion{m.seq, 0});
}

void ShardedServer::handle_client_scan(int s, int client, net::Message&& m) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    ++st.stats.client_scans;
    net::Message reply;
    reply.type = net::MsgType::kScanReply;
    reply.seq = m.seq;
    if (m.epoch == 0) {
        st.server.scan(m.key, m.value,
                       [&reply](const std::string& k, const ValuePtr& v) {
                           reply.items.emplace_back(k, *v);
                       });
    } else {
        // Broadcast slice: replicated source ranges are reported once
        // (by their owner), never per replica.
        ++st.stats.broadcast_scans;
        scan_owned(s, m.key, m.value, reply.items);
    }
    net::Buffer out;
    net::encode_message(out, reply);
    st.staged.client_replies.emplace_back(client, std::move(out));
}

// Owner side of a subscription: register the range, then reply with its
// current contents (filtered to owned keys — under a broadcast subscribe
// this shard holds replicas of foreign groups, which the subscriber must
// get from their owner, not from us).
void ShardedServer::handle_subscribe(int s, int from, const net::Message& m) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    ++st.stats.subscribes_served;
    st.publisher.subscribe(from, m.key, m.value, m.epoch,
                           [&](sub::Items& items) {
                               scan_owned(s, m.key, m.value, items);
                           });
}

void ShardedServer::scan_owned(int s, Str lo, Str hi, sub::Items& out) {
    int nshards = config_.shards;
    shards_[static_cast<size_t>(s)]->server.scan(
        lo, hi, [&out, s, nshards](const std::string& k, const ValuePtr& v) {
            if (shard_of(k, nshards) == s)
                out.emplace_back(k, *v);
        });
}

void ShardedServer::publish_frame(int s, int dest, const net::Message& m) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    if (m.type == net::MsgType::kNotify) {
        ++st.stats.notify_frames_sent;
        st.stats.notify_items_sent += m.items.size();
        net::encode_message(st.staged.shard_frames[static_cast<size_t>(dest)],
                            m);
        return;
    }
    st.stats.backfill_items += m.items.size();
    send_now(s, dest, m);
}

void ShardedServer::send_now(int s, int dest, const net::Message& m) {
    Frame f;
    f.from = s;
    net::encode_message(f.buf, m);
    if (threaded_) {
        shards_[static_cast<size_t>(dest)]->mailbox.push_force(std::move(f));
        return;
    }
    // Single driving thread: the peer's handler runs to completion right
    // here, on a real encode/decode round trip for wire fidelity. Its
    // cost lands in the requester's service time: the simulation charges
    // remote materialization to the requester.
    net::Message decoded;
    net::decode_message(f.buf, decoded);
    if (decoded.type == net::MsgType::kSubscribe)
        handle_subscribe(dest, s, decoded);
    else
        apply_feed(dest, s, decoded);
}

void ShardedServer::apply_feed(int s, int from, const net::Message& m) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    // Mailboxes neither lose, duplicate nor reorder a peer's frames, so
    // a frame out of step is a protocol bug, not a fault to recover from.
    if (st.subscriber.check(from, m) != sub::Verdict::kApply)
        throw std::logic_error("shard subscriber: a frame from shard "
                               + std::to_string(from) + " is out of step");
    st.server.put_batch(m.items);
    st.stats.notify_items_applied += m.items.size();
}

// Subscriber side: fired by the engine before it consults a source
// range. Anything remote and not yet replicated gets subscribed now,
// synchronously, so the scan that triggered this sees fresh data.
void ShardedServer::will_scan_source(int s, Str lo, Str hi) {
    if (config_.shards == 1)
        return;
    ShardState& st = *shards_[static_cast<size_t>(s)];
    if (st.subscriber.covers(lo, hi))
        return;
    st.subscriber.fan_out(lo, hi, [&](int owner) {
        subscribe_to(s, owner, lo, hi);
        return true;
    });
}

void ShardedServer::subscribe_to(int s, int owner, Str lo, Str hi) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    ++st.stats.subscribes_sent;
    net::Message sub;
    sub.type = net::MsgType::kSubscribe;
    sub.key.assign(lo.data(), lo.size());
    sub.value.assign(hi.data(), hi.size());
    sub.epoch = st.next_nonce++;
    send_now(s, owner, sub);
    if (!threaded_)
        return;  // the backfill is already applied
    // Threaded: serve our own mailbox while blocked on the backfill, so
    // two shards subscribing to each other both progress.
    // Client frames are deferred (they could start a nested
    // materialization); protocol frames — peers' subscribes, notifies,
    // our backfill — are applied immediately. Notify/backfill puts
    // re-enter the engine mid-scan, which the source-observer contract
    // explicitly permits. The rest of a peer frame whose message led
    // here goes first: it arrived before anything still in the mailbox.
    st.waiting_nonces.insert(sub.epoch);
    while (st.waiting_nonces.count(sub.epoch) != 0) {
        if (!st.feed.empty()) {
            drain_feed(s);
            continue;
        }
        Frame in;
        RoleGuard consumer(st.mailbox.consumer_role());
        if (!st.mailbox.try_pop(in)) {
            std::this_thread::yield();
            continue;
        }
        if (in.from < 0) {
            st.deferred.push_back(std::move(in));
            continue;
        }
        apply_frame(s, std::move(in));
        release_now(s);  // a served subscribe's reply must ship now
    }
}

// ---- staged output ---------------------------------------------------------

void ShardedServer::ship_shard_frames(int s, uint64_t vt) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    for (size_t d = 0; d != st.staged.shard_frames.size(); ++d) {
        net::Buffer& b = st.staged.shard_frames[d];
        if (b.size() == 0)
            continue;
        Frame f;
        f.from = s;
        f.stamp = vt;
        f.buf = std::move(b);
        b = net::Buffer();
        shards_[d]->mailbox.push_force(std::move(f));
    }
}

void ShardedServer::release_staged(int s, uint64_t vt) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    ship_shard_frames(s, vt);
    for (auto& reply : st.staged.client_replies) {
        Frame f;
        f.from = s;
        f.stamp = vt;
        f.buf = std::move(reply.second);
        clients_[static_cast<size_t>(reply.first)]->replies_.push_force(
            std::move(f));
    }
    st.staged.client_replies.clear();
    for (auto& c : st.staged.completions) {
        Completion done = c.second;
        done.vt = vt;
        clients_[static_cast<size_t>(c.first)]->completions_.push_force(done);
    }
    st.staged.completions.clear();
}

void ShardedServer::release_now(int s) {
    release_staged(s, 0);
}

// ---- worker threads --------------------------------------------------------

void ShardedServer::start() {
    if (threaded_)
        return;
    // Bulk-loaded records become durable before any worker can ack new
    // work on top of them; the journals then belong to their workers.
    for (auto& st : shards_)
        if (st->persist)
            st->persist->flush();
    threaded_ = true;
    stopping_.store(false, std::memory_order_relaxed);
    for (int s = 0; s != config_.shards; ++s)
        workers_.emplace_back([this, s]() { worker_loop(s); });
}

void ShardedServer::worker_loop(int s) {
    ShardState& st = *shards_[static_cast<size_t>(s)];
    st.server.bind_owner_thread();
    for (;;) {
        if (has_work(s)) {
            // Busy for the whole step, including any blocking subscribe
            // wait inside it — wait_idle must not mistake a worker
            // parked on a peer's backfill for a finished one, or stop()
            // could let that peer exit and strand the waiter (§12).
            st.idle.store(false, std::memory_order_relaxed);
            if (step(s)) {
                release_now(s);
                st.progress.fetch_add(1, std::memory_order_release);
            }
            continue;
        }
        st.idle.store(true, std::memory_order_release);
        if (stopping_.load(std::memory_order_acquire))
            break;
        std::this_thread::yield();
    }
    st.server.unbind_owner_thread();
}

void ShardedServer::wait_idle() {
    // Quiescence = twice in a row, every shard idle with an empty
    // mailbox AND no step completed anywhere since the previous scan.
    // The idle flags alone are not enough: a frame can be produced and
    // fully consumed between two flag reads, leaving every flag true
    // while its side effects (staged frames to a third shard) are still
    // propagating. Any such step bumps a progress counter, so requiring
    // the summed counter stable across scans closes that window: at the
    // instant a passing scan starts, no worker is mid-step (all flags
    // true), none completed a step since the last scan, and no client
    // is submitting (stop()'s contract) — nothing can create new work.
    uint64_t last_progress = 0;
    for (auto& sp : shards_)
        last_progress += sp->progress.load(std::memory_order_acquire);
    int stable = 0;
    while (stable < 2) {
        bool quiet = true;
        for (auto& sp : shards_) {
            if (!sp->idle.load(std::memory_order_acquire)
                || sp->mailbox.approx_size() != 0)
                quiet = false;
        }
        uint64_t progress = 0;
        for (auto& sp : shards_)
            progress += sp->progress.load(std::memory_order_acquire);
        if (quiet && progress == last_progress)
            ++stable;
        else
            stable = 0;
        last_progress = progress;
        std::this_thread::yield();
    }
}

std::string ShardedServer::debug_state() const {
    std::string out;
    char line[256];
    for (size_t s = 0; s != shards_.size(); ++s) {
        const ShardState& st = *shards_[s];
        std::snprintf(
            line, sizeof line,
            "shard %zu: mailbox=%zu deferred=%zu waiting_nonces=%zu "
            "pending_notify=%zu idle=%d frames=%llu puts=%llu scans=%llu "
            "subs_sent=%llu subs_served=%llu notify_applied=%llu\n",
            s, st.mailbox.approx_size(), st.deferred.size(),
            st.waiting_nonces.size(), st.publisher.pending(),
            st.idle.load(std::memory_order_relaxed) ? 1 : 0,
            static_cast<unsigned long long>(st.stats.frames),
            static_cast<unsigned long long>(st.stats.client_puts),
            static_cast<unsigned long long>(st.stats.client_scans),
            static_cast<unsigned long long>(st.stats.subscribes_sent),
            static_cast<unsigned long long>(st.stats.subscribes_served),
            static_cast<unsigned long long>(st.stats.notify_items_applied));
        out += line;
    }
    return out;
}

void ShardedServer::stop() {
    if (!threaded_)
        return;
    wait_idle();
    stopping_.store(true, std::memory_order_release);
    for (auto& t : workers_)
        t.join();
    workers_.clear();
    threaded_ = false;
}

}  // namespace shard
}  // namespace pequod
