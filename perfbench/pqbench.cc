// pqbench: end-to-end and per-layer benchmark of the sharded Twip
// deployment (README.md has the metric table and the layer map).
//
//   pqbench --workload timeline-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 drives shard::ShardedServer with 2 worker threads from this
// one client thread: setup (repeated, median reported), an untimed
// warm-up, a latency phase with one op in flight, a throughput phase
// with a fixed window of outstanding ops, then the correctness checks.
// --trace 1 replays the identical op stream with the shards stepped
// inline on this thread, spans around every call, plus standalone
// replays through core::Server, persist::Wal and the net codec that
// attribute the shard step time to layers by subtraction.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}) and info (sample counts, p99s, run
// context). The exit code is nonzero when any op failed.
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/server.hh"
#include "net/message.hh"
#include "persist/wal.hh"
#include "shard/sharded_server.hh"
#include "trace.hh"
#include "workload.hh"

namespace pqbench {
namespace {

using pequod::Server;
using pequod::Str;
using pequod::ValuePtr;
using pequod::net::Message;
using pequod::net::MsgType;
using pequod::shard::Completion;
using pequod::shard::Frame;
using pequod::shard::ShardClient;
using pequod::shard::ShardConfig;
using pequod::shard::ShardedServer;
using pequod::shard::ShardStats;
using pequod::shard::shard_of;

constexpr uint64_t kTimeoutNs = 20'000'000'000ULL;
constexpr size_t kMaxSpans = size_t(3) << 20;  // 48 MiB of spans
constexpr int kSetups = 3;  // setup_s is their median
constexpr int kSetupWindow = 64;
constexpr size_t kOracleSample = 256;
constexpr size_t kHandoffChecks = 20000;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work_dir = ".bench_build/pqbench";
    std::string git_sha = "unknown";
    double scale = 1;  // users and op counts (smoke runs use ~0.05)
    bool selftest = false;  // drop one scanned row; the oracle must object
};

struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> notes;
    void fail(const std::string& why) {
        ++failed;
        if (notes.size() < 8)
            notes.push_back(why);
    }
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

inline Str view(const Key& k) {
    return Str(k.buf, k.len);
}

struct Dist {
    double p50 = 0, p99 = 0;
    size_t n = 0;
};

Dist dist(std::vector<double> v) {
    Dist d;
    d.n = v.size();
    if (v.empty())
        return d;
    std::sort(v.begin(), v.end());
    d.p50 = v[v.size() / 2];
    d.p99 = v[std::min(v.size() - 1, v.size() * 99 / 100)];
    return d;
}

struct Samples {
    std::vector<double> check, login, post, sub, lag;  // microseconds
    uint64_t probe_checks = 0;
};

// One op's request, formatted: a scan's [lo, hi) or a put's key/value.
struct Req {
    bool scan = false;
    Key a, b;
};

Req make_req(const Op& op) {
    Req r;
    switch (op.kind) {
    case OpKind::kCheck:
    case OpKind::kLogin:
        r.scan = true;
        r.a = timeline_lo(op.u, op.ts);
        r.b = timeline_hi(op.u);
        break;
    case OpKind::kPost:
    case OpKind::kProbe:
        r.a = post_key(op.p, op.ts);
        r.b = post_body(op.p, op.ts);
        break;
    case OpKind::kSubscribe:
        r.a = sub_key(op.u, op.p);
        r.b.buf[0] = '1';
        r.b.len = 1;
        break;
    }
    return r;
}

int req_shard(const Req& r) {
    return r.scan ? pequod::shard::shard_for_range(view(r.a), view(r.b),
                                                   kShards)
                  : shard_of(view(r.a), kShards);
}

// Sums of the per-shard counters the per-layer metrics difference.
struct StatSums {
    uint64_t frames = 0, subscribes = 0, backfill = 0, notify_items = 0,
             notify_frames = 0;
};

// Cross-shard traffic caused by logins (one op in flight, inline).
struct LoginCost {
    uint64_t logins = 0, subscribes = 0, backfill = 0;
};

// The recomputed join over the acknowledged base rows: u's timeline as
// the engine must serve it (t|u|ts|p = check s|u|p copy p|p|ts).
std::vector<std::pair<std::string, std::string>> expected_timeline(
    const std::map<std::string, std::string>& base, uint32_t u) {
    std::vector<std::pair<std::string, std::string>> rows;
    Key slo = sub_key(u, 0);
    slo.len = 9;  // "s|<u>|"
    std::string shi(slo.buf, slo.len);
    shi.back() = '}';
    for (auto it = base.lower_bound(std::string(slo.buf, slo.len));
         it != base.end() && it->first < shi; ++it) {
        uint32_t p = static_cast<uint32_t>(
            std::strtoul(it->first.c_str() + 9, nullptr, 10));
        std::string plo = post_key(p, 0).str().substr(0, 9);
        std::string phi = plo;
        phi.back() = '}';
        for (auto pt = base.lower_bound(plo);
             pt != base.end() && pt->first < phi; ++pt) {
            uint64_t ts = std::strtoull(pt->first.c_str() + 9, nullptr, 10);
            rows.emplace_back(timeline_key(u, ts, p).str(), pt->second);
        }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

const char* fs_name(const std::string& path) {
    struct statfs st;
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: return "other";
    }
}

class Driver {
  public:
    Driver(const Spec& spec, const Options& opt, Inputs& in, Tally& tally)
        : spec_(spec), opt_(opt), in_(in), tally_(tally),
          wal_dir_(opt.work_dir + "/wal-" + spec.name) {}

    ~Driver() {
        ss_.reset();
        if (spec_.durable)
            std::filesystem::remove_all(wal_dir_);
    }

    ShardConfig config() const {
        ShardConfig c;
        c.shards = kShards;
        c.joins = kTimelineJoin;
        if (spec_.durable) {
            c.persist.dir = wal_dir_;
            // Group commit per mailbox frame (ShardedServer flushes at
            // every frame boundary); the interval only bounds the bulk
            // load's batches.
            c.persist.wal_flush_interval_ops = size_t(1) << 16;
            // Device fsync time is not measured (README): on a shared
            // virtual disk it swung whole runs by 2x. The WAL is still
            // encoded, written and flushed per frame.
            c.persist.wal_fsync = false;
        }
        return c;
    }

    void set_tracer(Tracer* t) {
        tr_ = t;
    }
    void set_record_acks(bool on) {
        record_acks_ = on;
    }
    uint64_t client_frames() const {
        return client_frames_;
    }
    ShardedServer& server() {
        return *ss_;
    }

    // Bulk load, (durable) restart from the files just written, then
    // materialize the logged-in set through the client. Returns seconds;
    // only calls into the program are inside the timed span.
    double setup(double* recover_s, uint64_t* recovered_records) {
        ss_.reset();  // stops the previous deployment's workers
        client_ = nullptr;
        threaded_ = false;
        if (spec_.durable)
            std::filesystem::remove_all(wal_dir_);
        std::vector<Op> logins;
        for (uint32_t u : in_.logged_in)
            logins.push_back(Op{OpKind::kLogin, u, 0, 0});
        uint64_t t0 = now_ns();
        ss_ = std::make_unique<ShardedServer>(config());
        client_ = &ss_->make_client();
        for (const auto& kv : in_.base)
            ss_->load(kv.first, kv.second);
        if (spec_.durable) {
            ss_->start();
            ss_->stop();
            ss_.reset();
            uint64_t r0 = now_ns();
            ss_ = std::make_unique<ShardedServer>(config());
            if (recover_s)
                *recover_s = static_cast<double>(now_ns() - r0) / 1e9;
            client_ = &ss_->make_client();
        }
        start_threads();
        windowed(logins, kSetupWindow);
        ss_->wait_idle();
        double secs = static_cast<double>(now_ns() - t0) / 1e9;
        if (recovered_records) {
            *recovered_records = 0;
            for (int s = 0; s != kShards; ++s)
                if (const auto* r = ss_->last_recovery(s))
                    *recovered_records += r->checkpoint_entries
                        + r->wal_records;
        }
        return secs;
    }

    void start_threads() {
        if (!threaded_) {
            ss_->start();
            threaded_ = true;
        }
    }

    // Switch to inline stepping on this thread (quiescent afterwards).
    void stop_threads() {
        if (threaded_) {
            ss_->stop();
            threaded_ = false;
        }
    }

    // Untimed warm-up: half one-in-flight, half windowed.
    void warm_up() {
        size_t half = in_.warm.size() / 2;
        for (size_t i = 0; i != half; ++i)
            one(in_.warm[i], static_cast<uint32_t>(i), nullptr);
        std::vector<Op> rest(in_.warm.begin() + static_cast<long>(half),
                             in_.warm.end());
        windowed(rest, spec_.window);
    }

    // Every measured round: its latency chunk one op in flight, then its
    // throughput chunk windowed. Returns the seconds spent in throughput
    // chunks. With `logins` (inline only), sums the subscribe and
    // backfill traffic each login caused.
    double rounds(Samples* smp, LoginCost* logins) {
        double thr_s = 0;
        uint32_t id = 0;
        for (const Inputs::Round& r : in_.rounds) {
            for (const Op& op : r.lat) {
                StatSums before;
                bool login = logins && op.kind == OpKind::kLogin;
                if (login)
                    before = sums();
                one(op, id++, smp);
                if (login) {
                    StatSums after = sums();
                    ++logins->logins;
                    logins->subscribes += after.subscribes
                        - before.subscribes;
                    logins->backfill += after.backfill - before.backfill;
                }
            }
            thr_s += windowed(r.thr, spec_.window, id);
            id += static_cast<uint32_t>(r.thr.size());
        }
        return thr_s;
    }

    // One op in flight; latency from submit to reply/ack.
    void one(const Op& op, uint32_t id, Samples* smp) {
        ++tally_.attempted;
        if (op.kind == OpKind::kProbe) {
            probe(op, id, smp);
            return;
        }
        Req r;
        {
            Scoped s(tr_, kMake, id);
            r = make_req(op);
        }
        uint64_t t0 = now_ns();
        uint64_t ticket = submit(r, id);
        flush(id, 1);
        if (r.scan) {
            Frame f;
            if (!wait_reply(f, id))
                return;
            uint64_t t1 = now_ns();
            Scoped v(tr_, kVerify, id);
            Message m;
            if (!decode_reply(f, ticket, view(r.a), view(r.b), m))
                return;
            if (smp)
                (op.kind == OpKind::kLogin ? smp->login : smp->check)
                    .push_back(static_cast<double>(t1 - t0) / 1e3);
        } else {
            Completion c;
            if (!wait_completion(c, id))
                return;
            uint64_t t1 = now_ns();
            Scoped v(tr_, kVerify, id);
            if (c.ticket != ticket) {
                tally_.fail("completion for the wrong ticket");
                return;
            }
            ack(r);
            if (smp)
                (op.kind == OpKind::kPost ? smp->post : smp->sub)
                    .push_back(static_cast<double>(t1 - t0) / 1e3);
        }
    }

    // Closed loop with `window` ops outstanding; returns elapsed seconds.
    // Inline, this is batches of `window` consecutive ops.
    double windowed(const std::vector<Op>& ops, int window,
                    uint32_t id0 = 0) {
        size_t n = ops.size(), next = 0, done = 0, inflight = 0;
        size_t win = static_cast<size_t>(std::max(window, 1));
        uint64_t base = 0;
        uint64_t t0 = now_ns(), last_progress = t0;
        tally_.attempted += n;
        auto at = [&] { return id0 + static_cast<uint32_t>(next); };  // span id
        while (done < n) {
            unsigned mask = 0;
            while (next < n && inflight < win) {
                Req r;
                {
                    Scoped s(tr_, kMake, at());
                    r = make_req(ops[next]);
                }
                uint64_t ticket = submit(r, at());
                if (next == 0)
                    base = ticket;
                else if (ticket != base + next) {
                    tally_.fail("non-sequential ticket");
                    return 0;
                }
                if (tr_)
                    mask |= 1u << req_shard(r);
                ++next;
                ++inflight;
            }
            if (client_->pending_ops())
                flush(at(), __builtin_popcount(mask));
            pump(at());
            bool progressed = false;
            Completion c;
            for (;;) {
                {
                    Scoped p(tr_, kPoll, at());
                    if (!client_->poll_completion(c))
                        break;
                }
                Scoped v(tr_, kVerify, at());
                uint64_t i = c.ticket - base;
                if (c.ticket < base || i >= next
                    || ops[i].kind == OpKind::kCheck
                    || ops[i].kind == OpKind::kLogin) {
                    tally_.fail("completion for an unknown ticket");
                    return 0;
                }
                ack(make_req(ops[i]));
                ++done;
                --inflight;
                progressed = true;
            }
            Frame f;
            for (;;) {
                {
                    Scoped p(tr_, kPoll, at());
                    if (!client_->poll_reply(f))
                        break;
                }
                Scoped v(tr_, kVerify, at());
                Message m;
                if (!pequod::net::decode_message(f.buf, m)
                    || m.type != MsgType::kScanReply || m.seq < base
                    || m.seq - base >= next) {
                    tally_.fail("undecodable or unknown scan reply");
                    return 0;
                }
                Req r = make_req(ops[m.seq - base]);
                if (!r.scan) {
                    tally_.fail("scan reply for a put");
                    return 0;
                }
                check_items(m, view(r.a), view(r.b));
                ++done;
                --inflight;
                progressed = true;
            }
            if (progressed) {
                last_progress = now_ns();
            } else if (now_ns() - last_progress > kTimeoutNs) {
                for (; done < n; ++done)
                    tally_.fail("op never completed");
                return 0;
            }
        }
        return static_cast<double>(now_ns() - t0) / 1e9;
    }

    // End-of-run checks: quiesce, compare a seeded sample of timelines
    // with the recomputed join, measure memory, and (durable) restart
    // and read back every acknowledged base row.
    double final_checks() {
        if (threaded_)
            ss_->wait_idle();
        else
            pump(0);
        oracle_sample();
        stop_threads();
        double mem = 0, base_bytes = 0;
        for (int s = 0; s != kShards; ++s)
            mem += static_cast<double>(ss_->server(s).memory_stats().total());
        for (const auto& kv : in_.base)
            base_bytes += static_cast<double>(kv.first.size()
                                              + kv.second.size());
        if (spec_.durable)
            durability_check();
        return base_bytes > 0 ? mem / base_bytes : 0;
    }

    // Counters summed over shards (quiescent or inline only).
    StatSums sums() const {
        StatSums t;
        for (int s = 0; s != kShards; ++s) {
            const ShardStats& st = ss_->stats(s);
            t.frames += st.frames;
            t.subscribes += st.subscribes_sent;
            t.backfill += st.backfill_items;
            t.notify_items += st.notify_items_sent;
            t.notify_frames += st.notify_frames_sent;
        }
        return t;
    }

  private:
    uint64_t submit(const Req& r, uint32_t id) {
        Scoped s(tr_, kSubmit, id);
        return r.scan ? client_->submit_scan(view(r.a), view(r.b))
                      : client_->submit_put(view(r.a), view(r.b));
    }

    void flush(uint32_t id, int frames) {
        Scoped s(tr_, kFlush, id);
        client_->flush();
        client_frames_ += static_cast<uint64_t>(frames);
    }

    void ack(const Req& r) {
        if (record_acks_)
            in_.base.insert_or_assign(r.a.str(), r.b.str());
    }

    // Worker threads run the shards by themselves; inline, step every
    // shard until none has work left.
    void pump(uint32_t id) {
        if (threaded_) {
            cpu_relax();
            return;
        }
        Scoped drain(tr_, kDrain, id);
        for (bool any = true; any;) {
            any = false;
            for (int s = 0; s != kShards; ++s) {
                for (;;) {
                    uint64_t t0 = tr_ ? now_ns() : 0;
                    if (!ss_->step(s))
                        break;
                    if (tr_)
                        tr_->record(kStep, id, t0, now_ns());
                    Scoped rel(tr_, kRelease, id);
                    ss_->release_staged(s, 0);
                    any = true;
                }
            }
        }
    }

    bool wait_reply(Frame& f, uint32_t id) {
        uint64_t deadline = now_ns() + kTimeoutNs;
        for (uint32_t spins = 0;; ++spins) {
            pump(id);
            {
                Scoped p(tr_, kPoll, id);
                if (client_->poll_reply(f))
                    return true;
            }
            if ((spins & 255) == 0 && now_ns() > deadline) {
                tally_.fail("scan reply never arrived");
                return false;
            }
        }
    }

    bool wait_completion(Completion& c, uint32_t id) {
        uint64_t deadline = now_ns() + kTimeoutNs;
        for (uint32_t spins = 0;; ++spins) {
            pump(id);
            {
                Scoped p(tr_, kPoll, id);
                if (client_->poll_completion(c))
                    return true;
            }
            if ((spins & 255) == 0 && now_ns() > deadline) {
                tally_.fail("put never completed");
                return false;
            }
        }
    }

    bool decode_reply(Frame& f, uint64_t ticket, Str lo, Str hi,
                      Message& m) {
        if (!pequod::net::decode_message(f.buf, m)
            || m.type != MsgType::kScanReply || m.seq != ticket) {
            tally_.fail("undecodable or mismatched scan reply");
            return false;
        }
        return check_items(m, lo, hi);
    }

    // A reply must be in strictly ascending key order inside [lo, hi).
    bool check_items(const Message& m, Str lo, Str hi) {
        const std::string* prev = nullptr;
        for (const auto& kv : m.items) {
            Str k(kv.first);
            if (k < lo || !(k < hi) || (prev && !(Str(*prev) < k))) {
                tally_.fail("scan reply out of order or out of range");
                return false;
            }
            prev = &kv.first;
        }
        return true;
    }

    // Freshness probe: submit the post, then re-check the follower's
    // timeline until the post is in a reply. Lag = post submit -> that
    // reply. Neither op feeds the check or post latency samples.
    void probe(const Op& op, uint32_t id, Samples* smp) {
        Op post = op;
        post.kind = OpKind::kPost;
        Req pr, cr;
        {
            Scoped s(tr_, kMake, id);
            pr = make_req(post);
            cr.scan = true;
            cr.a = timeline_lo(op.u, op.ts);
            cr.b = timeline_hi(op.u);
        }
        Key want = timeline_key(op.u, op.ts, op.p);
        uint64_t t0 = now_ns(), deadline = t0 + kTimeoutNs;
        uint64_t pt = submit(pr, id);
        flush(id, 1);
        bool acked = false, seen = false;
        Completion c;
        while (!seen) {
            uint64_t st = submit(cr, id);
            flush(id, 1);
            Frame f;
            for (bool got = false; !got;) {
                pump(id);
                Scoped p(tr_, kPoll, id);
                if (!acked && client_->poll_completion(c)) {
                    if (c.ticket != pt) {
                        tally_.fail("probe post completion mismatch");
                        return;
                    }
                    acked = true;
                    ack(pr);
                }
                got = client_->poll_reply(f);
                if (!got && now_ns() > deadline) {
                    tally_.fail("probe post never became visible");
                    return;
                }
            }
            uint64_t t1 = now_ns();
            Scoped v(tr_, kVerify, id);
            Message m;
            if (!decode_reply(f, st, view(cr.a), view(cr.b), m))
                return;
            if (smp)
                ++smp->probe_checks;
            for (const auto& kv : m.items)
                if (Str(kv.first) == view(want)) {
                    seen = true;
                    if (Str(kv.second) != view(pr.b))
                        tally_.fail("probe post has the wrong value");
                }
            if (seen && smp)
                smp->lag.push_back(static_cast<double>(t1 - t0) / 1e3);
        }
        if (!acked) {
            if (!wait_completion(c, id))
                return;
            if (c.ticket != pt)
                tally_.fail("probe post completion mismatch");
            ack(pr);
        }
    }

    // Compare a seeded sample of logged-in timelines, row for row, with
    // the join recomputed over the acknowledged base rows.
    void oracle_sample() {
        std::vector<uint32_t> users = in_.logged_in;
        auto logins = [&users](const Op& op, bool) {
            if (op.kind == OpKind::kLogin)
                users.push_back(op.u);
        };
        for (const Op& op : in_.warm)
            logins(op, false);
        in_.for_each_measured(logins);
        Rng rng(opt_.seed ^ 0x5eedULL);
        for (size_t i = users.size(); i > 1; --i)
            std::swap(users[i - 1], users[rng.below(i)]);
        users.resize(std::min(users.size(), kOracleSample));
        bool dropped = false;
        for (uint32_t u : users) {
            ++tally_.attempted;
            Req r;
            r.scan = true;
            r.a = timeline_lo(u, 0);
            r.b = timeline_hi(u);
            uint64_t ticket = submit(r, 0);
            flush(0, 1);
            Frame f;
            Message m;
            if (!wait_reply(f, 0) || !decode_reply(f, ticket, view(r.a),
                                                   view(r.b), m))
                continue;
            if (opt_.selftest && !dropped && !m.items.empty()) {
                m.items.erase(m.items.begin()
                              + static_cast<long>(m.items.size() / 2));
                dropped = true;
            }
            if (m.items != expected_timeline(in_.base, u))
                tally_.fail("timeline differs from the recomputed join");
        }
    }

    // Restart from the durable files and read back every acknowledged
    // base row; a miss is a failed op.
    void durability_check() {
        ss_.reset();
        client_ = nullptr;
        threaded_ = false;
        ss_ = std::make_unique<ShardedServer>(config());
        uint64_t missing = 0;
        for (const auto& kv : in_.base) {
            ++tally_.attempted;
            const pequod::Entry* e =
                ss_->server(shard_of(kv.first, kShards)).get_ptr(kv.first);
            if (!e || e->value() != kv.second)
                ++missing;
        }
        for (uint64_t i = 0; i != missing; ++i)
            tally_.fail("acknowledged write lost across restart");
    }

    const Spec& spec_;
    const Options& opt_;
    Inputs& in_;
    Tally& tally_;
    std::string wal_dir_;
    std::unique_ptr<ShardedServer> ss_;
    ShardClient* client_ = nullptr;
    bool threaded_ = false;
    bool record_acks_ = true;
    Tracer* tr_ = nullptr;
    uint64_t client_frames_ = 0;
};

// ---- output --------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

std::string json_escape(const std::string& s) {
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out;
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics,
                  const std::vector<std::pair<std::string, std::string>>&
                      info) {
    std::string out = "{\"correct\": ";
    out += tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i != metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": "
            + num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit
            + "\"}";
    }
    out += "}, \"info\": {";
    for (size_t i = 0; i != info.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + info[i].first + "\": " + info[i].second;
    }
    out += ", \"notes\": [";
    for (size_t i = 0; i != tally.notes.size(); ++i)
        out += (i ? ", \"" : "\"") + json_escape(tally.notes[i]) + "\"";
    out += "]}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::string jstr(const std::string& s) {
    return "\"" + json_escape(s) + "\"";
}

void add_dist(std::vector<std::pair<std::string, std::string>>& info,
              const char* name, const std::vector<double>& v) {
    Dist d = dist(v);
    info.emplace_back(name, "{\"p50_us\": " + num(d.p50) + ", \"p99_us\": "
                                + num(d.p99) + ", \"n\": "
                                + std::to_string(d.n) + "}");
}

double median_of(std::vector<double> v) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

// ---- the two run modes -------------------------------------------------

void end_to_end(const Spec& spec, const Options& opt, Inputs& in,
                Tally& tally, std::vector<Metric>& metrics,
                std::vector<std::pair<std::string, std::string>>& info) {
    Driver d(spec, opt, in, tally);
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i)
        setups.push_back(d.setup(nullptr, nullptr));
    d.warm_up();
    Samples smp;
    uint64_t l0 = now_ns();
    double thr_s = d.rounds(&smp, nullptr);
    double lat_s = static_cast<double>(now_ns() - l0) / 1e9 - thr_s;
    double mem = d.final_checks();
    size_t thr_ops = 0, lat_ops = 0;
    for (const Inputs::Round& r : in.rounds) {
        thr_ops += r.thr.size();
        lat_ops += r.lat.size();
    }

    const std::pair<const char*, const std::vector<double>*> need[] = {
        {"check", &smp.check}, {"login", &smp.login}, {"post", &smp.post},
        {"subscribe", &smp.sub}, {"fresh_lag", &smp.lag}};
    for (const auto& n : need)
        if (n.second->empty())
            tally.fail(std::string("no ") + n.first + " samples");

    metrics = {
        {"setup_s", median_of(setups), "s"},
        {"sat_ops_s",
         thr_s > 0 ? static_cast<double>(thr_ops) / thr_s : 0, "1/s"},
        {"check_p50_us", dist(smp.check).p50, "us"},
        {"login_p50_us", dist(smp.login).p50, "us"},
        {"post_p50_us", dist(smp.post).p50, "us"},
        {"subscribe_p50_us", dist(smp.sub).p50, "us"},
        {"fresh_lag_p50_us", dist(smp.lag).p50, "us"},
        {"mem_per_base_byte", mem, "B/B"},
    };
    std::string all;
    for (double s : setups)
        all += (all.empty() ? "" : ", ") + num(s);
    info.emplace_back("setup_runs_s", "[" + all + "]");
    add_dist(info, "check", smp.check);
    add_dist(info, "login", smp.login);
    add_dist(info, "post", smp.post);
    add_dist(info, "subscribe", smp.sub);
    add_dist(info, "fresh_lag", smp.lag);
    info.emplace_back("probe_checks", std::to_string(smp.probe_checks));
    {
        std::string t;
        size_t n = smp.check.size() / 10;
        for (size_t k = 0; n && k != 10; ++k)
            t += (t.empty() ? "" : ", ")
                + num(dist(std::vector<double>(
                               smp.check.begin() + static_cast<long>(k * n),
                               smp.check.begin()
                                   + static_cast<long>((k + 1) * n)))
                          .p50);
        info.emplace_back("check_p50_by_tenth", "[" + t + "]");
    }
    info.emplace_back("latency_phase_s", num(lat_s));
    info.emplace_back("throughput_phase_s", num(thr_s));
    info.emplace_back("ops", "{\"warm\": " + std::to_string(in.warm.size())
                                 + ", \"latency\": "
                                 + std::to_string(lat_ops)
                                 + ", \"throughput\": "
                                 + std::to_string(thr_ops) + ", \"rounds\": "
                                 + std::to_string(in.rounds.size()) + "}");
}

struct CoreResult {
    uint64_t core_ns = 0;        // every core call, for attribution
    uint64_t codec_step_ns = 0;  // request decode + reply encode
    uint64_t logins = 0, mats = 0, rows = 0, updaters = 0;
    uint64_t posts = 0, eager = 0;
    uint64_t msgs = 0, bytes = 0, ops = 0;
};

// The same stream against one standalone core::Server, with each
// request and reply round-tripped through the net codec.
CoreResult core_replay(const Inputs& in, Tracer& tr) {
    CoreResult res;
    Server srv;
    srv.add_join(kTimelineJoin);
    for (const auto& kv : in.base)
        srv.put(kv.first, kv.second);
    auto noop = [](const std::string&, const ValuePtr&) {};
    for (uint32_t u : in.logged_in)
        srv.scan(view(timeline_lo(u, 0)), view(timeline_hi(u)), noop);

    auto codec = [&](const Message& m, bool decode_in_step, uint32_t id) {
        pequod::net::Buffer b;
        uint64_t t0 = now_ns();
        pequod::net::encode_message(b, m);
        uint64_t t1 = now_ns();
        Message back;
        pequod::net::decode_message(b, back);
        uint64_t t2 = now_ns();
        tr.record(kNetEncode, id, t0, t1);
        tr.record(kNetDecode, id, t1, t2);
        res.codec_step_ns += decode_in_step ? t2 - t1 : t1 - t0;
        ++res.msgs;
        res.bytes += b.size();
    };
    auto scan = [&](const Req& r, bool login, bool timed, uint32_t id) {
        Message req, reply;
        req.type = MsgType::kScan;
        req.key = r.a.str();
        req.value = r.b.str();
        req.seq = id;
        reply.type = MsgType::kScanReply;
        reply.seq = id;
        uint64_t m0 = srv.materialization_count(),
                 r0 = srv.source_rows_scanned(), u0 = srv.updater_count();
        uint64_t t0 = now_ns();
        srv.scan(view(r.a), view(r.b),
                 [&reply](const std::string& k, const ValuePtr& v) {
                     reply.items.emplace_back(k, *v);
                 });
        uint64_t t1 = now_ns();
        if (!timed)
            return;
        tr.record(login ? kCoreScanLogin : kCoreScanHot, id, t0, t1);
        res.core_ns += t1 - t0;
        if (login) {
            ++res.logins;
            res.mats += srv.materialization_count() - m0;
            res.rows += srv.source_rows_scanned() - r0;
            res.updaters += srv.updater_count() - u0;
        }
        codec(req, true, id);
        codec(reply, false, id);
    };
    auto put = [&](const Req& r, bool is_post, bool timed, uint32_t id) {
        uint64_t e0 = srv.eager_update_count();
        uint64_t t0 = now_ns();
        srv.put(view(r.a), view(r.b));
        uint64_t t1 = now_ns();
        if (!timed)
            return;
        tr.record(is_post ? kCorePost : kCoreSub, id, t0, t1);
        res.core_ns += t1 - t0;
        if (is_post) {
            ++res.posts;
            res.eager += srv.eager_update_count() - e0;
        }
        Message m;
        m.type = MsgType::kPut;
        m.key = r.a.str();
        m.value = r.b.str();
        m.seq = id;
        codec(m, true, id);
    };
    auto run = [&](const Op& op, bool timed, uint32_t id) {
        Req r = make_req(op);
        switch (op.kind) {
        case OpKind::kCheck:
        case OpKind::kLogin:
            scan(r, op.kind == OpKind::kLogin, timed, id);
            break;
        case OpKind::kPost:
            put(r, true, timed, id);
            break;
        case OpKind::kSubscribe:
            put(r, false, timed, id);
            break;
        case OpKind::kProbe: {
            put(r, true, timed, id);
            Req c;
            c.scan = true;
            c.a = timeline_lo(op.u, op.ts);
            c.b = timeline_hi(op.u);
            scan(c, false, timed, id);
            break;
        }
        }
    };
    for (const Op& op : in.warm)
        run(op, false, 0);
    uint32_t id = 0;
    in.for_each_measured([&](const Op& op, bool) {
        run(op, true, id++);
        ++res.ops;
    });
    return res;
}

struct WalResult {
    uint64_t ns = 0, appends = 0, flushes = 0, bytes = 0;
};

// The stream's base writes through one standalone persist::Wal with the
// shard's frame boundaries: a flush per put in the latency phase, one
// per (window batch, destination shard) in the throughput phase.
WalResult wal_replay(const Spec& spec, const Inputs& in,
                     const std::string& dir, Tracer& tr) {
    WalResult res;
    std::filesystem::remove_all(dir);
    {
        pequod::persist::WalConfig wc;
        wc.dir = dir;
        wc.flush_interval_ops = size_t(1) << 16;
        wc.fsync_data = false;  // as the deployment (Driver::config)
        pequod::persist::Wal wal(wc);
        auto append = [&](const Req& r, uint32_t id) {
            uint64_t t0 = now_ns();
            wal.append_put(view(r.a), view(r.b));
            uint64_t t1 = now_ns();
            tr.record(kWalAppend, id, t0, t1);
            res.ns += t1 - t0;
        };
        auto flush = [&](uint32_t id) {
            uint64_t t0 = now_ns();
            wal.flush();
            uint64_t t1 = now_ns();
            tr.record(kWalFlush, id, t0, t1);
            res.ns += t1 - t0;
        };
        uint32_t id = 0;
        size_t win = static_cast<size_t>(spec.window);
        for (const Inputs::Round& round : in.rounds) {
            for (const Op& op : round.lat) {
                Req r = make_req(op);
                if (!r.scan) {
                    append(r, id);
                    flush(id);
                }
                ++id;
            }
            const std::vector<Op>& thr = round.thr;
            for (size_t b = 0; b < thr.size(); b += win) {
                size_t e = std::min(thr.size(), b + win);
                for (int s = 0; s != kShards; ++s) {
                    bool any = false;
                    for (size_t i = b; i != e; ++i) {
                        Req r = make_req(thr[i]);
                        if (!r.scan && req_shard(r) == s) {
                            append(r, id + static_cast<uint32_t>(i));
                            any = true;
                        }
                    }
                    if (any)
                        flush(id + static_cast<uint32_t>(b));
                }
            }
            id += static_cast<uint32_t>(thr.size());
        }
        const pequod::persist::WalStats& st = wal.stats();
        res.appends = st.appended_ops;
        res.flushes = st.flushes;
        res.bytes = st.bytes_written;
    }
    std::filesystem::remove_all(dir);
    return res;
}

double ratio(double a, double b) {
    return b != 0 ? a / b : 0;
}

void traced(const Spec& spec, const Options& opt, Inputs& in, Tally& tally,
            std::vector<Metric>& metrics,
            std::vector<std::pair<std::string, std::string>>& info) {
    size_t ops = in.measured_ops();
    Tracer tr(std::min(kMaxSpans, ops * 16));

    // Standalone replays first: they read the initial base rows.
    CoreResult core = core_replay(in, tr);
    WalResult wal;
    if (spec.durable)
        wal = wal_replay(spec, in, opt.work_dir + "/wal-replay", tr);

    // A: the untraced inline replay (the overhead reference), then the
    // hand-off probe. Its acknowledgements stay out of the oracle, so B
    // starts from the same base rows.
    double untraced_s = 0, threaded_check_p50 = 0, inline_check_p50 = 0;
    {
        Driver a(spec, opt, in, tally);
        a.set_record_acks(false);
        a.setup(nullptr, nullptr);
        a.warm_up();
        a.stop_threads();
        uint64_t t0 = now_ns();
        a.rounds(nullptr, nullptr);
        untraced_s = static_cast<double>(now_ns() - t0) / 1e9;
        // The stream's checks again, on the final state, threaded then
        // inline: their p50 difference is the mailbox hand-off.
        std::vector<Op> checks;
        in.for_each_measured([&checks](const Op& op, bool) {
            if (op.kind == OpKind::kCheck && checks.size() < kHandoffChecks)
                checks.push_back(op);
        });
        Samples thr, inl;
        a.start_threads();
        for (const Op& op : checks)
            a.one(op, 0, &thr);
        a.stop_threads();
        for (const Op& op : checks)
            a.one(op, 0, &inl);
        threaded_check_p50 = dist(thr.check).p50;
        inline_check_p50 = dist(inl.check).p50;
    }

    // B: the traced inline replay.
    Driver b(spec, opt, in, tally);
    double recover_s = 0;
    uint64_t recovered = 0;
    b.setup(&recover_s, &recovered);
    b.warm_up();
    b.stop_threads();
    StatSums s0 = b.sums();
    LoginCost login;
    b.set_tracer(&tr);
    uint64_t t0 = now_ns();
    b.rounds(nullptr, &login);
    uint64_t wall_ns = now_ns() - t0;
    b.set_tracer(nullptr);
    StatSums s1 = b.sums();
    uint64_t posts = 0;
    in.for_each_measured([&posts](const Op& op, bool) {
        posts += op.kind == OpKind::kPost || op.kind == OpKind::kProbe;
    });

    // Store shape after the replay, before the final checks reopen.
    pequod::MemoryStats mem;
    for (int s = 0; s != kShards; ++s) {
        pequod::MemoryStats m = b.server().server(s).memory_stats();
        mem.entry_count += m.entry_count;
        mem.key_bytes += m.key_bytes;
        mem.value_bytes += m.value_bytes;
        mem.structure_bytes += m.structure_bytes;
    }
    double base_entries = static_cast<double>(in.base.size());
    b.final_checks();

    double dops = static_cast<double>(ops);
    double attributed = 0;
    for (SpanName n : {kMake, kSubmit, kFlush, kDrain, kPoll, kVerify})
        attributed += static_cast<double>(tr.total_ns(n));
    double self_ns = static_cast<double>(tr.total_ns(kDrain))
        - static_cast<double>(core.core_ns + wal.ns + core.codec_step_ns);
    double enc = ratio(static_cast<double>(tr.total_ns(kNetEncode)) / 1e3,
                       static_cast<double>(tr.count(kNetEncode)));
    double dec = ratio(static_cast<double>(tr.total_ns(kNetDecode)) / 1e3,
                       static_cast<double>(tr.count(kNetDecode)));
    double dlogins = static_cast<double>(login.logins);
    double clogins = static_cast<double>(core.logins);
    metrics = {
        {"shard.submit_us", tr.mean_us(kSubmit), "us"},
        {"shard.flush_us", tr.mean_us(kFlush), "us"},
        {"shard.step_us", tr.mean_us(kStep), "us"},
        {"shard.release_us", tr.mean_us(kRelease), "us"},
        {"shard.self_us_per_op", self_ns / 1e3 / dops, "us"},
        {"shard.frames_per_op",
         static_cast<double>(s1.frames - s0.frames) / dops, "frame/op"},
        {"shard.ops_per_frame",
         ratio(dops, static_cast<double>(b.client_frames())), "op/frame"},
        {"shard.handoff_us", threaded_check_p50 - inline_check_p50, "us"},
        {"shard.subscribes_per_login",
         ratio(static_cast<double>(login.subscribes), dlogins), "msg/login"},
        {"shard.backfill_items_per_login",
         ratio(static_cast<double>(login.backfill), dlogins), "item/login"},
        {"shard.notify_items_per_post",
         ratio(static_cast<double>(s1.notify_items - s0.notify_items),
               static_cast<double>(posts)),
         "item/post"},
        {"shard.notify_items_per_frame",
         ratio(static_cast<double>(s1.notify_items - s0.notify_items),
               static_cast<double>(s1.notify_frames - s0.notify_frames)),
         "item/frame"},
        {"net.encode_us_per_msg", enc, "us"},
        {"net.decode_us_per_msg", dec, "us"},
        {"net.bytes_per_op",
         ratio(static_cast<double>(core.bytes), static_cast<double>(core.ops)),
         "B/op"},
        {"core.scan_hot_us", tr.mean_us(kCoreScanHot), "us"},
        {"core.scan_login_us", tr.mean_us(kCoreScanLogin), "us"},
        {"core.materializations_per_login",
         ratio(static_cast<double>(core.mats), clogins), "mat/login"},
        {"core.source_rows_per_login",
         ratio(static_cast<double>(core.rows), clogins), "row/login"},
        {"core.updaters_per_login",
         ratio(static_cast<double>(core.updaters), clogins), "upd/login"},
        {"core.put_us", tr.mean_us(kCorePost), "us"},
        {"core.eager_updates_per_post",
         ratio(static_cast<double>(core.eager),
               static_cast<double>(core.posts)),
         "upd/post"},
        {"store.bytes_per_entry",
         ratio(static_cast<double>(mem.total()),
               static_cast<double>(mem.entry_count)),
         "B/entry"},
        {"store.structure_frac",
         ratio(static_cast<double>(mem.structure_bytes),
               static_cast<double>(mem.total())),
         "frac"},
        {"store.entries_per_base_entry",
         ratio(static_cast<double>(mem.entry_count), base_entries),
         "entry/entry"},
        {"wal.append_us", tr.mean_us(kWalAppend), "us"},
        {"wal.flush_us", tr.mean_us(kWalFlush), "us"},
        // Group-commit barriers per put: each is an fsync when the WAL
        // syncs (it does not here; see Driver::config).
        {"wal.fsyncs_per_put",
         ratio(static_cast<double>(wal.flushes),
               static_cast<double>(wal.appends)),
         "fsync/put"},
        {"wal.bytes_per_put",
         ratio(static_cast<double>(wal.bytes),
               static_cast<double>(wal.appends)),
         "B/put"},
        {"persist.recover_s", recover_s, "s"},
        {"persist.recover_us_per_record",
         ratio(recover_s * 1e6, static_cast<double>(recovered)), "us"},
        {"trace.unattributed_frac",
         1.0 - attributed / static_cast<double>(wall_ns), "frac"},
        {"trace.overhead_frac",
         ratio(static_cast<double>(wall_ns) / 1e9, untraced_s) - 1.0,
         "frac"},
    };
    info.emplace_back("derived",
                      "[\"shard.self_us_per_op\", \"shard.handoff_us\"]");
    info.emplace_back("threaded_check_p50_us", num(threaded_check_p50));
    info.emplace_back("inline_check_p50_us", num(inline_check_p50));
    info.emplace_back("traced_replay_s",
                      num(static_cast<double>(wall_ns) / 1e9));
    info.emplace_back("untraced_replay_s", num(untraced_s));
    info.emplace_back("spans_kept", std::to_string(
                                        std::min(kMaxSpans, ops * 16)));
    std::string path = opt.work_dir + "/trace-" + spec.name + ".bin";
    info.emplace_back("trace_file", jstr(tr.write(path) ? path : ""));
}

int usage() {
    std::fprintf(stderr,
                 "usage: pqbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--work-dir DIR] [--scale X]"
                 " [--git-sha SHA] [--selftest]\n"
                 "workloads:");
    for (const Spec& s : kSpecs)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace
}  // namespace pqbench

int main(int argc, char** argv) {
    using namespace pqbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = val();
        else if (a == "--seed")
            opt.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = val() != "0";
        else if (a == "--work-dir")
            opt.work_dir = val();
        else if (a == "--scale")
            opt.scale = std::strtod(val().c_str(), nullptr);
        else if (a == "--git-sha")
            opt.git_sha = val();
        else if (a == "--selftest")
            opt.selftest = true;
        else
            return usage();
    }
    const Spec* found = find_spec(opt.workload);
    if (!found || opt.seconds <= 0 || opt.scale <= 0)
        return usage();
    Spec spec = *found;
    std::filesystem::create_directories(opt.work_dir);
    // Inputs: graph, base rows, logged-in set, op streams. Untimed.
    double ops_scale = opt.seconds / 10.0 * opt.scale;
    auto scaled = [ops_scale](uint32_t n) {
        return static_cast<uint32_t>(
            std::max(1.0, static_cast<double>(n) * ops_scale));
    };
    spec.users = static_cast<uint32_t>(std::max(
        200.0, static_cast<double>(spec.users) * std::min(opt.scale, 1.0)));
    pequod::apps::SocialGraph::Config gc;
    gc.users = spec.users;
    gc.avg_following = kAvgFollowing;
    gc.zipf_exponent = kZipf;
    gc.seed = opt.seed;
    Inputs in{pequod::apps::SocialGraph::generate(gc), {}, {}, {}, {}};
    Generator gen(spec, in.graph, opt.seed);
    gen.base_rows(in);
    gen.initial_logged_in(in);
    for (uint32_t i = 0, n = scaled(spec.warm_ops); i != n; ++i)
        in.warm.push_back(gen.next(false));
    in.rounds.resize(kRounds);
    for (Inputs::Round& r : in.rounds) {
        for (uint32_t i = 0, n = scaled(spec.lat_ops) / kRounds; i != n; ++i)
            r.lat.push_back(gen.next(true));
        for (uint32_t i = 0, n = scaled(spec.thr_ops) / kRounds; i != n; ++i)
            r.thr.push_back(gen.next(false));
    }

    Tally tally;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> info;
    info.emplace_back("workload", jstr(spec.name));
    info.emplace_back("trace", opt.trace ? "1" : "0");
    info.emplace_back("seed", std::to_string(opt.seed));
    info.emplace_back("users", std::to_string(spec.users));
    info.emplace_back("base_rows", std::to_string(in.base.size()));
    info.emplace_back("logged_in_at_setup",
                      std::to_string(in.logged_in.size()));
    info.emplace_back("shards", std::to_string(kShards));
    info.emplace_back("build_type", jstr(PQBENCH_BUILD_TYPE));
    info.emplace_back("compiler", jstr(PQBENCH_COMPILER));
    info.emplace_back("git_sha", jstr(opt.git_sha));
    info.emplace_back("nproc",
                      std::to_string(std::thread::hardware_concurrency()));
    info.emplace_back("wal_fs", jstr(spec.durable
                                           ? fs_name(opt.work_dir)
                                           : "none"));
    try {
        if (opt.trace)
            traced(spec, opt, in, tally, metrics, info);
        else
            end_to_end(spec, opt, in, tally, metrics, info);
    } catch (const std::exception& e) {
        tally.fail(std::string("exception: ") + e.what());
    }
    print_result(tally, metrics, info);
    if (opt.selftest) {
        // The dropped row must be the one and only failure.
        bool caught = tally.failed == 1 && !tally.notes.empty()
            && tally.notes[0].find("recomputed join") != std::string::npos;
        std::fprintf(stderr, "selftest: oracle %s the dropped row\n",
                     caught ? "caught" : "MISSED");
        return caught ? 0 : 1;
    }
    return tally.failed == 0 ? 0 : 1;
}
