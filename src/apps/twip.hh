// The Twip workload (§5.1): a Twitter-like op mix — timeline checks,
// posts, and subscriptions at 60:1:10 weights over a power-law
// SocialGraph — run to completion against any compare::Backend. One
// driver, five system-specific strategies keyed by Backend::Style:
//
//   kServerPequod   post/subscribe are single puts; a check is one scan
//                   of the materialized timeline (the join does the rest)
//   kClientPequod   identical application code — the backend's client-
//                   side join executor pays the per-RPC costs
//   kMiniDbModel    identical application code — the backend recomputes
//                   the (pull) join by row scans on every check
//   kRedisModel     the app maintains timeline lists: a post fans out
//                   one timeline insert per follower (via a reverse
//                   follower index it also maintains); a check is one
//                   range read
//   kMemcacheModel  whole timelines as blobs: a post invalidates each
//                   follower's blob; a check that misses refetches every
//                   followee's recent posts and re-stores the blob
//
// Checks are incremental (each user reads forward from their last-seen
// timestamp), matching the paper's experiment. Key schema: DESIGN.md §1
// ("s|" subscriptions, "p|" posts, "t|" timelines, plus "r|" reverse
// edges for the redis model and "subs|/flw|/posts|/tl|" blobs for the
// memcached model).
#ifndef PEQUOD_APPS_TWIP_HH
#define PEQUOD_APPS_TWIP_HH

#include <cstdint>
#include <string>

#include "apps/graph.hh"
#include "compare/backend.hh"

namespace pequod {
namespace apps {

struct TwipConfig {
    int checks_per_user = 30;  // expected timeline checks per user
    int prepopulate_posts_per_user = 5;
};

struct TwipResult {
    std::string system;
    double total_seconds = 0;  // wall + modeled RPC — the Fig 7 number
    double wall_seconds = 0;
    double modeled_rpc_seconds = 0;
    uint64_t rpc_messages = 0;
    uint64_t rpc_bytes = 0;
    uint64_t rpc_round_trips = 0;
    uint64_t memory_bytes = 0;
};

// Run the workload to completion: install joins (where supported),
// populate the graph's subscriptions, prepopulate posts, then execute
// the weighted op mix. Deterministic for a given config and graph.
TwipResult run_twip(compare::TwipBackend& backend, const SocialGraph& graph,
                    const TwipConfig& config);

}  // namespace apps
}  // namespace pequod

#endif
