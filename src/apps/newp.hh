// The Newp workload (§5.4): a Hacker-News-like site — articles,
// comments, votes, and per-user karma — whose article pages can fetch
// commenter karma two ways:
//
//   separate RPCs    read the comments with one scan, then issue one
//                    get of "k|<uid>" per distinct commenter
//   interleaved      a cache join copies each commenter's karma next to
//                    their comment ("pg|<aid>|<cid>|<uid> = check
//                    c|... copy k|..."), so one scan of the
//                    materialized page range returns everything — but
//                    every karma change eagerly fans out into every
//                    page where that user commented
//
// Fig 9 sweeps the vote rate: interleaved wins while reads dominate
// (saved per-commenter gets), and loses when votes are so common that
// the precomputation fan-out outweighs the saved RPCs.
#ifndef PEQUOD_APPS_NEWP_HH
#define PEQUOD_APPS_NEWP_HH

#include <cstdint>

namespace pequod {
namespace apps {

struct NewpConfig {
    uint64_t sessions = 30000;  // op-phase sessions (reads and votes)
    uint32_t users = 1000;
    uint32_t articles = 2000;
    uint32_t prepopulate_comments = 20000;
    uint32_t prepopulate_votes = 40000;
    double vote_rate = 0;  // fraction of sessions that vote
};

struct NewpResult {
    double total_seconds = 0;  // wall + modeled RPC — the Fig 9 number
    double wall_seconds = 0;
    double modeled_rpc_seconds = 0;
    uint64_t rpc_messages = 0;
    uint64_t eager_updates = 0;
};

NewpResult run_newp(const NewpConfig& config, bool interleaved);

}  // namespace apps
}  // namespace pequod

#endif
