#include "apps/newp.hh"

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/base.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "compare/backend.hh"

namespace pequod {
namespace apps {

namespace {

constexpr int kIdWidth = 6;
constexpr int kKarmaWidth = 8;
constexpr uint64_t kSeed = 1;

// Modeled RPC costs. The per-update charge is one eager karma fan-out
// write: an unhinted tree write into a scattered page range, slightly
// above the hinted append cost the Fig 7 Pequod model charges. With this
// RTT it puts the interleaved-vs-separate crossover near the paper's
// ~90% vote rate.
constexpr double kRttSeconds = 50e-6;
constexpr double kPerMessageSeconds = 5e-6;
constexpr double kPerByteSeconds = 20e-9;
constexpr double kPerUpdateSeconds = 3e-6;

// The interleaved page join: one karma entry per comment, keyed into
// the article's page range so a single scan returns every commenter's
// karma in comment order. A vote changes "k|<uid>", and the engine
// eagerly rewrites that user's entry in every materialized page.
const char* kPageJoin =
    "pg|<a>|<c>|<u> = check c|<a>|<c>|<u> copy k|<u>";

std::string id(uint32_t x) {
    return pad_number(x, kIdWidth);
}

class NewpDriver {
  public:
    NewpDriver(const NewpConfig& config, bool interleaved)
        : config_(config), interleaved_(interleaved), rng_(kSeed),
          karma_(config.users, 0), author_(config.articles, 0) {
        compare::CostModel model;
        model.rtt_seconds = kRttSeconds;
        model.per_message_seconds = kPerMessageSeconds;
        model.per_byte_seconds = kPerByteSeconds;
        model.per_update_seconds = kPerUpdateSeconds;
        backend_ = compare::make_pequod_backend(true, true, true, model);
    }

    void populate() {
        if (interleaved_)
            backend_->add_join(kPageJoin);
        for (uint32_t a = 0; a < config_.articles; ++a) {
            author_[a] = static_cast<uint32_t>(rng_.below(config_.users));
            backend_->put("art|" + id(a), "by|" + id(author_[a]));
        }
        for (uint32_t c = 0; c < config_.prepopulate_comments; ++c) {
            uint32_t a = static_cast<uint32_t>(rng_.below(config_.articles));
            uint32_t u = static_cast<uint32_t>(rng_.below(config_.users));
            backend_->put("c|" + id(a) + "|" + id(c) + "|" + id(u),
                          "comment text body");
        }
        // Seed karma from prepopulated votes; counts land in "k|" once.
        for (uint32_t v = 0; v < config_.prepopulate_votes; ++v) {
            uint32_t a = static_cast<uint32_t>(rng_.below(config_.articles));
            backend_->put("v|" + id(a) + "|" + id(v), "1");
            ++karma_[author_[a]];
        }
        for (uint32_t u = 0; u < config_.users; ++u)
            backend_->put("k|" + id(u), pad_number(karma_[u], kKarmaWidth));
        backend_->flush();
        // Warm the site: a live news site serves every page, so the
        // interleaved configuration materializes its page ranges up
        // front rather than mid-measurement.
        if (interleaved_)
            for (uint32_t a = 0; a < config_.articles; ++a)
                backend_->scan("pg|" + id(a) + "|",
                               prefix_successor("pg|" + id(a) + "|"),
                               [](Str, Str) {});
    }

    void run_sessions() {
        for (uint64_t s = 0; s < config_.sessions; ++s) {
            uint32_t a = static_cast<uint32_t>(rng_.below(config_.articles));
            if (rng_.uniform() < config_.vote_rate)
                vote(a);
            else
                read_page(a);
            backend_->flush();
        }
    }

    NewpResult result(double wall) const {
        NewpResult r;
        r.wall_seconds = wall;
        r.modeled_rpc_seconds = backend_->modeled_seconds();
        r.total_seconds = r.wall_seconds + r.modeled_rpc_seconds;
        compare::BackendStats s = backend_->stats();
        r.rpc_messages = s.messages;
        r.eager_updates = s.server_updates;
        return r;
    }

  private:
    void read_page(uint32_t a) {
        // Both configurations read the article and its comments.
        backend_->get("art|" + id(a), nullptr);
        std::set<uint32_t> seen;
        backend_->scan("c|" + id(a) + "|",
                       prefix_successor("c|" + id(a) + "|"),
                       [&seen](Str key, Str) {
                           seen.insert(static_cast<uint32_t>(std::stoul(
                               key.substr(key.size() - kIdWidth,
                                          kIdWidth).str())));
                       });
        if (interleaved_) {
            // One scan of the materialized page range: karma arrives
            // interleaved with the comment order.
            backend_->scan("pg|" + id(a) + "|",
                           prefix_successor("pg|" + id(a) + "|"),
                           [](Str, Str) {});
        } else {
            // One get per distinct commenter.
            for (uint32_t u : seen)
                backend_->get("k|" + id(u), nullptr);
        }
    }

    void vote(uint32_t a) {
        uint32_t voter = static_cast<uint32_t>(rng_.below(config_.users));
        backend_->put("v|" + id(a) + "|u" + id(voter), "1");
        uint32_t u = author_[a];
        ++karma_[u];  // the app's read-modify-write, write side
        backend_->get("k|" + id(u), nullptr);
        backend_->put("k|" + id(u), pad_number(karma_[u], kKarmaWidth));
    }

    const NewpConfig& config_;
    bool interleaved_;
    Rng rng_;
    std::unique_ptr<compare::Backend> backend_;
    std::vector<uint64_t> karma_;
    std::vector<uint32_t> author_;
};

}  // namespace

NewpResult run_newp(const NewpConfig& config, bool interleaved) {
    NewpDriver driver(config, interleaved);
    double wall0 = WallTimer::now();
    driver.populate();
    driver.run_sessions();
    double wall = WallTimer::now() - wall0;
    return driver.result(wall);
}

}  // namespace apps
}  // namespace pequod
