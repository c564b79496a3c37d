// Workload definitions and the seeded op-stream generator for pqbench.
//
// Everything a run sends to the program is decided here, before any
// timing starts: the social graph (apps::SocialGraph), the bulk-loaded
// base rows, the initially logged-in set, and the whole op stream. The
// generator tracks what the application would know at issue time (who
// is logged in, each reader's last-seen timestamp, who follows whom), so
// the stream is a pure function of the workload and the seed.
//
// Key schema (the Twip schema of src/apps/twip.cc, DESIGN.md §1):
//   s|<u:6>|<p:6>            = "1"        u follows p
//   p|<p:6>|<ts:10>          = post body
//   t|<u:6>|<ts:10>|<p:6>    = post body  (join sink: u's timeline)
#ifndef PQBENCH_WORKLOAD_HH
#define PQBENCH_WORKLOAD_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "apps/graph.hh"
#include "common/rng.hh"
#include "shard/routing.hh"

namespace pqbench {

using pequod::Rng;
using pequod::apps::SocialGraph;

// Two shard workers plus the client thread: 3 of 4 cores (README).
constexpr int kShards = 2;

// Measured rounds per run (see Inputs::rounds).
constexpr int kRounds = 8;
// SocialGraph shape shared by every workload.
constexpr uint32_t kAvgFollowing = 16;
constexpr double kZipf = 1.0;

inline const char* const kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

struct Spec {
    const char* name;
    uint32_t users;
    int prepop_posts;        // bulk-loaded posts per user
    double logged_frac;      // share of candidates logged in at setup
    // Op weights. A login is the first check of a never-read timeline.
    double w_check, w_login, w_post, w_sub;
    // Posts come from the poster pool, and the logged-in candidates are
    // the pool's followers (otherwise: log-follower posters, everyone).
    bool pool;
    int window;              // outstanding ops in the throughput phase
    bool durable;
    // Op counts at --seconds 10 (scaled linearly): warm-up, and the
    // latency and throughput ops summed over all rounds.
    uint32_t warm_ops, lat_ops, thr_ops;
    uint32_t probe_every;    // latency phase: one freshness probe per N ops
};

// The four workloads. Sizes keep a run's resident set near 0.5 GB: a
// timeline only grows, so posts x fan-out bounds the phase lengths.
inline const Spec kSpecs[] = {
    {"timeline-hot", 30000, 3, 0.25,
     59.7, 0.3, 1, 10, false, 32, false, 60000, 360000, 600000, 50},
    {"timeline-login", 40000, 2, 0.0,
     12, 48, 1, 10, false, 16, false, 4000, 15000, 24000, 50},
    {"post-fanout", 20000, 3, 0.6,
     9.5, 0.5, 10, 1, true, 16, false, 2000, 12000, 18000, 25},
    {"durable-ingest", 40000, 3, 0.02,
     10, 1, 40, 40, false, 32, true, 8000, 72000, 180000, 50},
};

inline const Spec* find_spec(const std::string& name) {
    for (const Spec& s : kSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

enum class OpKind : uint8_t { kCheck, kLogin, kPost, kSubscribe, kProbe };

// kCheck/kLogin: u reads its timeline from ts (0 = from the start).
// kPost: p posts at ts. kSubscribe: u follows p.
// kProbe: p posts at ts, then u (a logged-in follower whose timeline
// lives on another shard) re-checks until the post shows up.
struct Op {
    OpKind kind = OpKind::kCheck;
    uint32_t u = 0;
    uint32_t p = 0;
    uint64_t ts = 0;
};

// ---- key formatting (fixed-width, stack buffers) --------------------------

struct Key {
    char buf[40];
    size_t len = 0;
    std::string str() const {
        return std::string(buf, len);
    }
};

inline Key sub_key(uint32_t u, uint32_t p) {
    Key k;
    k.len = static_cast<size_t>(
        std::snprintf(k.buf, sizeof k.buf, "s|%06u|%06u", u, p));
    return k;
}

inline Key post_key(uint32_t p, uint64_t ts) {
    Key k;
    k.len = static_cast<size_t>(std::snprintf(
        k.buf, sizeof k.buf, "p|%06u|%010llu", p,
        static_cast<unsigned long long>(ts)));
    return k;
}

inline Key timeline_key(uint32_t u, uint64_t ts, uint32_t p) {
    Key k;
    k.len = static_cast<size_t>(std::snprintf(
        k.buf, sizeof k.buf, "t|%06u|%010llu|%06u", u,
        static_cast<unsigned long long>(ts), p));
    return k;
}

// [lo, hi) of u's timeline from `ts` on ('}' is '|' + 1).
inline Key timeline_lo(uint32_t u, uint64_t ts) {
    Key k;
    if (ts)
        k.len = static_cast<size_t>(std::snprintf(
            k.buf, sizeof k.buf, "t|%06u|%010llu", u,
            static_cast<unsigned long long>(ts)));
    else
        k.len = static_cast<size_t>(
            std::snprintf(k.buf, sizeof k.buf, "t|%06u|", u));
    return k;
}

inline Key timeline_hi(uint32_t u) {
    Key k;
    k.len = static_cast<size_t>(
        std::snprintf(k.buf, sizeof k.buf, "t|%06u}", u));
    return k;
}

// A 48-byte post body that names its post, so a misplaced value is
// caught by the oracle.
inline Key post_body(uint32_t p, uint64_t ts) {
    Key k;
    std::snprintf(k.buf, sizeof k.buf, "post %06u@%010llu ", p,
                  static_cast<unsigned long long>(ts));
    size_t n = std::strlen(k.buf);
    for (; n < 48; ++n)
        k.buf[n] = static_cast<char>('a' + (ts + n) % 26);
    k.len = 48;
    return k;
}

// ---- inputs ------------------------------------------------------------------

struct Inputs {
    SocialGraph graph;
    // Every base row, ordered: the bulk load and the oracle's start.
    std::map<std::string, std::string> base;
    std::vector<uint32_t> logged_in;  // materialized during setup
    std::vector<Op> warm;             // untimed warm-up
    // Measured rounds, in order: each runs its latency chunk one op in
    // flight, then its throughput chunk windowed. Alternating spreads
    // both measurements over the whole run, so a transient slowdown of
    // the host lands on every metric alike.
    struct Round {
        std::vector<Op> lat, thr;
    };
    std::vector<Round> rounds;

    // Every measured op, in execution order.
    template <typename F>
    void for_each_measured(F&& f) const {
        for (const Round& r : rounds) {
            for (const Op& op : r.lat)
                f(op, false);
            for (const Op& op : r.thr)
                f(op, true);
        }
    }
    size_t measured_ops() const {
        size_t n = 0;
        for (const Round& r : rounds)
            n += r.lat.size() + r.thr.size();
        return n;
    }
};

class Generator {
  public:
    Generator(const Spec& spec, const SocialGraph& graph, uint64_t seed)
        : spec_(spec), graph_(graph), rng_(seed * 0x9e3779b97f4a7c15ULL + 7),
          n_(graph.user_count()), logged_flag_(n_, 0), last_seen_(n_, 0),
          following_(n_), followers_(n_) {
        for (uint32_t u = 0; u < n_; ++u) {
            following_[u] = graph.following(u);
            for (uint32_t p : graph.following(u))
                followers_[p].push_back(u);
        }
        // The poster pool: popular accounts below the very top, so a
        // post fans out to hundreds of timelines, not tens of thousands.
        std::vector<uint32_t> by_rank(n_);
        std::iota(by_rank.begin(), by_rank.end(), 0u);
        std::stable_sort(by_rank.begin(), by_rank.end(),
                         [&graph](uint32_t a, uint32_t b) {
                             return graph.follower_count(a)
                                 > graph.follower_count(b);
                         });
        uint32_t lo = n_ / 200, hi = std::max(lo + 1, n_ / 40);
        pool_.assign(by_rank.begin() + lo, by_rank.begin() + hi);
    }

    // Prepopulated posts (round-robin over users, as Twip does) and
    // the graph edges.
    void base_rows(Inputs& in) {
        for (int round = 0; round < spec_.prepop_posts; ++round)
            for (uint32_t p = 0; p < n_; ++p) {
                uint64_t ts = ++ts_;
                in.base.emplace(post_key(p, ts).str(),
                                post_body(p, ts).str());
            }
        for (uint32_t u = 0; u < n_; ++u)
            for (uint32_t p : graph_.following(u))
                in.base.emplace(sub_key(u, p).str(), "1");
    }

    void initial_logged_in(Inputs& in) {
        std::vector<uint32_t> candidates;
        if (spec_.pool) {
            std::vector<char> seen(n_, 0);
            for (uint32_t p : pool_)
                for (uint32_t f : followers_[p])
                    seen[f] = 1;
            for (uint32_t u = 0; u < n_; ++u)
                if (seen[u])
                    candidates.push_back(u);
        } else {
            candidates.resize(n_);
            std::iota(candidates.begin(), candidates.end(), 0u);
        }
        for (uint32_t u : candidates)
            if (rng_.uniform() < spec_.logged_frac)
                mark_logged(u);
        for (uint32_t u = 0; u < n_; ++u)
            if (!logged_flag_[u])
                not_logged_.push_back(u);
        in.logged_in = logged_;
    }

    Op next(bool allow_probe) {
        if (allow_probe && spec_.probe_every
            && ++since_probe_ >= spec_.probe_every) {
            since_probe_ = 0;
            return probe();
        }
        double total =
            spec_.w_check + spec_.w_login + spec_.w_post + spec_.w_sub;
        double x = rng_.uniform() * total;
        if (x < spec_.w_check)
            return logged_.empty() ? login() : check();
        x -= spec_.w_check;
        if (x < spec_.w_login)
            return not_logged_.empty() ? check() : login();
        x -= spec_.w_login;
        if (x < spec_.w_post) {
            Op op;
            op.kind = OpKind::kPost;
            op.p = spec_.pool ? pool_[rng_.below(pool_.size())]
                                      : graph_.sample_poster(rng_);
            op.ts = ++ts_;
            return op;
        }
        return subscribe();
    }

  private:
    void mark_logged(uint32_t u) {
        logged_flag_[u] = 1;
        logged_.push_back(u);
    }

    Op check() {
        Op op;
        op.kind = OpKind::kCheck;
        op.u = logged_[rng_.below(logged_.size())];
        op.ts = last_seen_[op.u];
        last_seen_[op.u] = ts_;
        return op;
    }

    Op login() {
        size_t i = rng_.below(not_logged_.size());
        Op op;
        op.kind = OpKind::kLogin;
        op.u = not_logged_[i];
        not_logged_[i] = not_logged_.back();
        not_logged_.pop_back();
        mark_logged(op.u);
        last_seen_[op.u] = ts_;
        return op;
    }

    Op subscribe() {
        Op op;
        op.kind = OpKind::kSubscribe;
        op.u = static_cast<uint32_t>(rng_.below(n_));
        op.p = graph_.sample_poster(rng_);
        if (op.p == op.u)
            op.p = (op.p + 1) % n_;
        std::vector<uint32_t>& f = following_[op.u];
        auto it = std::lower_bound(f.begin(), f.end(), op.p);
        if (it == f.end() || *it != op.p) {
            f.insert(it, op.p);
            followers_[op.p].push_back(op.u);
        }
        return op;
    }

    // A post from the pool, watched through its first logged-in
    // follower whose timeline another shard owns. With no such follower
    // yet (nobody logged in), a plain post.
    Op probe() {
        Op op;
        op.kind = OpKind::kPost;
        op.p = pool_[rng_.below(pool_.size())];
        op.ts = ++ts_;
        Key pk = post_key(op.p, op.ts);
        int owner = pequod::shard::shard_of(pequod::Str(pk.buf, pk.len),
                                            kShards);
        for (uint32_t f : followers_[op.p]) {
            if (!logged_flag_[f])
                continue;
            Key tk = timeline_lo(f, 0);
            if (pequod::shard::shard_of(pequod::Str(tk.buf, tk.len),
                                        kShards) != owner) {
                op.kind = OpKind::kProbe;
                op.u = f;
                break;
            }
        }
        return op;
    }

    const Spec& spec_;
    const SocialGraph& graph_;
    Rng rng_;
    uint32_t n_;
    uint64_t ts_ = 0;
    uint32_t since_probe_ = 0;
    std::vector<char> logged_flag_;
    std::vector<uint32_t> logged_, not_logged_;
    std::vector<uint64_t> last_seen_;
    std::vector<std::vector<uint32_t>> following_, followers_;
    std::vector<uint32_t> pool_;
};

}  // namespace pqbench

#endif
