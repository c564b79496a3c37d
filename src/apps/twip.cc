#include "apps/twip.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "common/base.hh"
#include "common/clock.hh"
#include "common/rng.hh"

namespace pequod {
namespace apps {

namespace {

constexpr int kUserWidth = 6;
constexpr int kTimeWidth = 10;
// memcached-model cache depths: recent posts kept per user, and
// timeline entries kept per rebuilt timeline blob.
constexpr size_t kRecentPosts = 10;
constexpr size_t kTimelineDepth = 50;
// §5.1 operation weights (the check:post ratio of a normal day, with
// ~10x more graph changes than posts).
constexpr double kCheckWeight = 60;
constexpr double kPostWeight = 1;
constexpr double kSubscribeWeight = 10;
constexpr size_t kPostValueBytes = 80;  // synthetic post body length
constexpr uint64_t kSeed = 1;

std::string user_id(uint32_t u) {
    return pad_number(u, kUserWidth);
}

// The Twip cache join: a timeline entry per (follower, time, poster).
const char* kTimelineJoin =
    "t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>";

// One driver instance per run; holds the per-style bookkeeping the
// *application* would keep (cursors, and for the blob model the local
// scratch used to rebuild timelines).
class TwipDriver {
  public:
    TwipDriver(compare::Backend& backend, const SocialGraph& graph,
               const TwipConfig& config)
        : backend_(backend), graph_(graph), config_(config),
          style_(backend.style()), rng_(kSeed),
          last_seen_(graph.user_count(), 0),
          post_body_(kPostValueBytes, 'x') {}

    void setup() {
        if (backend_.supports_joins())
            backend_.add_join(kTimelineJoin);
        // Load the social graph. No posts exist yet, so no backfill: the
        // graph edges are plain writes for every system.
        for (uint32_t u = 0; u < graph_.user_count(); ++u) {
            for (uint32_t p : graph_.following(u))
                write_edge(u, p);
            if (style_ == compare::Backend::Style::kMemcacheModel)
                backend_.put("subs|" + user_id(u),
                             join_ids(graph_.following(u)));
        }
        if (style_ == compare::Backend::Style::kMemcacheModel) {
            std::vector<std::vector<uint32_t>> followers(
                graph_.user_count());
            for (uint32_t u = 0; u < graph_.user_count(); ++u)
                for (uint32_t p : graph_.following(u))
                    followers[p].push_back(u);
            for (uint32_t p = 0; p < graph_.user_count(); ++p)
                backend_.put("flw|" + user_id(p), join_ids(followers[p]));
        }
        backend_.flush();
        for (int round = 0; round < config_.prepopulate_posts_per_user;
             ++round)
            for (uint32_t p = 0; p < graph_.user_count(); ++p)
                do_post(p);
        backend_.flush();
    }

    void run_ops() {
        double total = kCheckWeight + kPostWeight + kSubscribeWeight;
        uint64_t ops = static_cast<uint64_t>(
            static_cast<double>(graph_.user_count())
            * config_.checks_per_user * total / kCheckWeight);
        for (uint64_t i = 0; i < ops; ++i) {
            double pick = rng_.uniform() * total;
            if (pick < kCheckWeight) {
                do_check(static_cast<uint32_t>(
                    rng_.below(graph_.user_count())));
            } else if (pick < kCheckWeight + kPostWeight) {
                do_post(graph_.sample_poster(rng_));
            } else {
                uint32_t u = static_cast<uint32_t>(
                    rng_.below(graph_.user_count()));
                uint32_t p = graph_.sample_poster(rng_);
                if (p != u)
                    do_subscribe(u, p);
            }
            backend_.flush();
        }
    }

  private:
    using Style = compare::Backend::Style;

    // ---- per-style operations ----------------------------------------------

    void do_check(uint32_t u) {
        std::string lo = "t|" + user_id(u) + "|";
        if (last_seen_[u])
            lo += pad_number(last_seen_[u], kTimeWidth);
        std::string hi = prefix_successor("t|" + user_id(u) + "|");
        if (style_ == Style::kMemcacheModel) {
            check_blob(u);
        } else {
            // Pequod (server or client), minidb, redis: one range read of
            // the timeline forward from the last-seen timestamp.
            backend_.scan(lo, hi, [](Str, Str) {});
        }
        last_seen_[u] = now_;
    }

    void do_post(uint32_t p) {
        uint64_t ts = ++now_;
        std::string key =
            "p|" + user_id(p) + "|" + pad_number(ts, kTimeWidth);
        switch (style_) {
        case Style::kServerPequod:
        case Style::kClientPequod:
        case Style::kMiniDbModel:
            backend_.put(key, post_body_);
            break;
        case Style::kRedisModel: {
            backend_.put(key, post_body_);
            // The app fans the post out: read the reverse follower index,
            // then append one timeline entry per follower (pipelined).
            std::vector<uint32_t> flw;
            backend_.scan("r|" + user_id(p) + "|",
                          prefix_successor("r|" + user_id(p) + "|"),
                          [&flw](Str fkey, Str) {
                              flw.push_back(trailing_user(fkey));
                          });
            for (uint32_t f : flw)
                backend_.put("t|" + user_id(f) + "|"
                                 + pad_number(ts, kTimeWidth) + "|"
                                 + user_id(p),
                             post_body_);
            break;
        }
        case Style::kMemcacheModel: {
            // Append to the poster's recent-posts blob, then invalidate
            // every follower's timeline blob.
            std::string posts;
            backend_.get("posts|" + user_id(p), &posts);
            append_post_line(posts, ts, p);
            backend_.put("posts|" + user_id(p), posts);
            std::string flw;
            backend_.get("flw|" + user_id(p), &flw);
            for_each_id(flw, [this](uint32_t f) {
                backend_.erase("tl|" + user_id(f));
            });
            break;
        }
        }
    }

    void do_subscribe(uint32_t u, uint32_t p) {
        switch (style_) {
        case Style::kServerPequod:
        case Style::kClientPequod:
        case Style::kMiniDbModel:
            backend_.put("s|" + user_id(u) + "|" + user_id(p), "1");
            break;
        case Style::kRedisModel: {
            backend_.put("s|" + user_id(u) + "|" + user_id(p), "1");
            backend_.put("r|" + user_id(p) + "|" + user_id(u), "1");
            // Backfill: copy the new followee's existing posts into the
            // subscriber's timeline.
            std::vector<std::pair<uint64_t, std::string>> posts;
            backend_.scan("p|" + user_id(p) + "|",
                          prefix_successor("p|" + user_id(p) + "|"),
                          [&posts](Str key, Str value) {
                              posts.emplace_back(trailing_number(key),
                                                 value.str());
                          });
            for (const auto& post : posts)
                backend_.put("t|" + user_id(u) + "|"
                                 + pad_number(post.first, kTimeWidth) + "|"
                                 + user_id(p),
                             post.second);
            break;
        }
        case Style::kMemcacheModel: {
            std::string subs;
            backend_.get("subs|" + user_id(u), &subs);
            append_id(subs, p);
            backend_.put("subs|" + user_id(u), subs);
            std::string flw;
            backend_.get("flw|" + user_id(p), &flw);
            append_id(flw, u);
            backend_.put("flw|" + user_id(p), flw);
            backend_.erase("tl|" + user_id(u));
            break;
        }
        }
    }

    // A memcached-model check: timeline blob hit, or recompute it from
    // every followee's recent-posts blob and re-store. Blobs hold recent
    // entries only (as a real timeline cache would), so the recompute
    // cost is bounded by the cache depth, not the full history.
    void check_blob(uint32_t u) {
        std::string blob;
        if (backend_.get("tl|" + user_id(u), &blob))
            return;
        std::string subs;
        backend_.get("subs|" + user_id(u), &subs);
        std::vector<std::string> keys;
        for_each_id(subs, [&keys](uint32_t p) {
            keys.push_back("posts|" + user_id(p));
        });
        std::vector<std::string> blobs;
        backend_.multi_get(keys, &blobs);  // one multiget round trip
        std::vector<std::string> lines;
        for (const std::string& posts : blobs) {
            size_t at = 0;
            while (at < posts.size()) {
                size_t nl = posts.find('\n', at);
                if (nl == std::string::npos)
                    nl = posts.size();
                lines.emplace_back(posts, at, nl - at);
                at = nl + 1;
            }
        }
        std::sort(lines.begin(), lines.end());
        if (lines.size() > kTimelineDepth)
            lines.erase(lines.begin(),
                        lines.end() - static_cast<long>(kTimelineDepth));
        blob.clear();
        for (const std::string& line : lines) {
            blob += line;
            blob += '\n';
        }
        backend_.put("tl|" + user_id(u), blob);
    }

    // ---- helpers -----------------------------------------------------------

    void write_edge(uint32_t u, uint32_t p) {
        switch (style_) {
        case Style::kServerPequod:
        case Style::kClientPequod:
        case Style::kMiniDbModel:
            backend_.put("s|" + user_id(u) + "|" + user_id(p), "1");
            break;
        case Style::kRedisModel:
            backend_.put("s|" + user_id(u) + "|" + user_id(p), "1");
            backend_.put("r|" + user_id(p) + "|" + user_id(u), "1");
            break;
        case Style::kMemcacheModel:
            break;  // blobs are written whole, after the edge loop
        }
    }

    static std::string join_ids(const std::vector<uint32_t>& ids) {
        std::string out;
        for (uint32_t id : ids)
            append_id(out, id);
        return out;
    }

    static void append_id(std::string& blob, uint32_t id) {
        if (!blob.empty())
            blob += '|';
        blob += pad_number(id, kUserWidth);
    }

    template <typename F>
    static void for_each_id(const std::string& blob, F f) {
        size_t at = 0;
        while (at + kUserWidth <= blob.size()) {
            f(static_cast<uint32_t>(
                std::stoul(blob.substr(at, kUserWidth))));
            at += kUserWidth + 1;
        }
    }

    void append_post_line(std::string& posts, uint64_t ts, uint32_t p) {
        posts += pad_number(ts, kTimeWidth);
        posts += '|';
        posts += user_id(p);
        posts += '|';
        posts += post_body_;
        posts += '\n';
        // The recent-posts blob keeps the newest kRecentPosts lines.
        size_t keep = 0, newlines = 0;
        for (size_t i = posts.size(); i-- > 0;) {
            if (posts[i] == '\n' && ++newlines > kRecentPosts) {
                keep = i + 1;
                break;
            }
        }
        if (keep)
            posts.erase(0, keep);
    }

    // The user id at the end of "r|<p>|<u>".
    static uint32_t trailing_user(Str key) {
        return static_cast<uint32_t>(
            std::stoul(key.substr(key.size() - kUserWidth,
                                  kUserWidth).str()));
    }
    // The timestamp at the end of "p|<p>|<ts>".
    static uint64_t trailing_number(Str key) {
        return std::stoull(
            key.substr(key.size() - kTimeWidth, kTimeWidth).str());
    }

    compare::Backend& backend_;
    const SocialGraph& graph_;
    const TwipConfig& config_;
    Style style_;
    Rng rng_;
    uint64_t now_ = 0;  // global post timestamp
    std::vector<uint64_t> last_seen_;
    std::string post_body_;
};

}  // namespace

TwipResult run_twip(compare::TwipBackend& backend, const SocialGraph& graph,
                    const TwipConfig& config) {
    TwipDriver driver(backend, graph, config);
    double wall0 = WallTimer::now();
    driver.setup();
    driver.run_ops();
    double wall = WallTimer::now() - wall0;

    TwipResult r;
    r.system = backend.name();
    r.wall_seconds = wall;
    r.modeled_rpc_seconds = backend.modeled_seconds();
    r.total_seconds = r.wall_seconds + r.modeled_rpc_seconds;
    compare::BackendStats s = backend.stats();
    r.rpc_messages = s.messages;
    r.rpc_bytes = s.bytes;
    r.rpc_round_trips = s.round_trips;
    r.memory_bytes = backend.memory_bytes();
    return r;
}

}  // namespace apps
}  // namespace pequod
