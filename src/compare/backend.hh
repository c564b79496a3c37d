// The unified client API for the Fig 7 / Fig 9 system comparisons
// (DESIGN.md §9). A compare::Backend is what an application sees of a
// storage system: put/get/scan plus (where the system supports it)
// add_join, behind one abstract interface, so the same workload driver
// (apps/twip.hh, apps/newp.hh) can run to completion against server-side
// Pequod, client-side Pequod, and in-process models of Redis, memcached,
// and PostgreSQL — the five bars of Fig 7.
//
// Costs are accounted, not hand-waved: every operation counts request
// and reply messages and bytes, and an explicit batch/flush boundary
// separates pipelined writes (one round trip per flushed batch) from
// synchronous reads (one round trip each), so a system that needs many
// small requests per logical operation is charged for them honestly.
// `modeled_seconds()` converts the counters through a CostModel; the
// benches report wall time plus modeled RPC time.
#ifndef PEQUOD_COMPARE_BACKEND_HH
#define PEQUOD_COMPARE_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fnref.hh"
#include "common/str.hh"

namespace pequod {
namespace compare {

// Per-unit costs a deployment of the modeled system would pay. The
// defaults describe one datacenter round trip plus per-message server
// handling and wire/serialization cost per byte; the relational and
// Pequod-specific knobs are zero unless a backend opts in.
struct CostModel {
    double rtt_seconds = 100e-6;        // client-observed round-trip time
    double per_message_seconds = 5e-6;  // request/reply handling per frame
    double per_byte_seconds = 20e-9;    // wire + (de)serialization per byte
    double per_update_seconds = 0;      // one eager sink update (Pequod)
    double per_row_seconds = 0;         // one row visited (relational)
    double per_query_seconds = 0;       // query parse/plan (relational)
};

struct BackendStats {
    uint64_t messages = 0;     // frames sent or received
    uint64_t bytes = 0;        // framed bytes both directions
    uint64_t round_trips = 0;  // synchronous reads + flushed write batches
    uint64_t server_updates = 0;  // Pequod eager sink updates
    uint64_t rows_scanned = 0;    // relational rows visited
    uint64_t queries = 0;         // relational queries planned
};

class Backend {
  public:
    enum class Style {
        kServerPequod,   // joins materialized and maintained in the server
        kClientPequod,   // joins executed by the client over RPC
        kRedisModel,     // ordered store; app maintains timeline lists
        kMemcacheModel,  // flat blob cache; recompute on miss
        kMiniDbModel,    // relational row scans; join on every check
    };
    using ScanRef = FnRef<void(Str key, Str value)>;

    virtual ~Backend() = default;
    virtual const char* name() const = 0;
    virtual Style style() const = 0;

    // Writes are batched: the message is counted immediately, the round
    // trip when the batch is flushed. Reads are synchronous: they flush
    // any pending batch first (so results always reflect prior writes),
    // then pay their own round trip.
    virtual void put(Str key, Str value) = 0;
    virtual bool get(Str key, std::string* value_out);
    // Batched point reads: `values_out` is resized parallel to `keys`,
    // with misses left empty; returns the hit count. Systems with a
    // batched read protocol (memcached multiget) charge one round trip
    // for the whole set; the default issues one synchronous get per key.
    virtual size_t multi_get(const std::vector<std::string>& keys,
                             std::vector<std::string>* values_out);
    template <typename F>
    void scan(Str lo, Str hi, F&& f) {
        ScanRef ref(f);
        scan_impl(lo, hi, ref);
    }
    // Close the current write batch: one round trip if anything was
    // pending, free otherwise.
    virtual void flush();

    // Optional surface, gated by the capability queries below.
    virtual void erase(Str key);
    virtual void add_join(const std::string& spec);
    virtual bool supports_scan() const {
        return true;
    }
    virtual bool supports_joins() const {
        return false;
    }

    // Re-derive the backend's internal invariants (DESIGN.md §11);
    // throws InvariantError. Only the engine-backed systems have any.
    virtual void verify() const {}

    virtual size_t memory_bytes() const = 0;
    virtual BackendStats stats() const {
        return stats_;
    }
    double modeled_seconds() const;

  protected:
    explicit Backend(const CostModel& model) : model_(model) {}
    virtual void scan_impl(Str lo, Str hi, const ScanRef& f) = 0;

    // Estimated framing overhead of one modeled message (type tag plus
    // length prefixes), for the backends that do not run real frames.
    static constexpr size_t kFrameOverhead = 8;

    // A batched write: counted now, round trip deferred to flush().
    void account_batched(size_t payload_bytes) {
        ++stats_.messages;
        stats_.bytes += payload_bytes + kFrameOverhead;
        pending_batch_ = true;
    }
    // A synchronous request: flush pending writes, then one round trip.
    void account_sync(size_t payload_bytes) {
        flush();
        ++stats_.messages;
        stats_.bytes += payload_bytes + kFrameOverhead;
        ++stats_.round_trips;
    }
    void account_reply(size_t payload_bytes) {
        ++stats_.messages;
        stats_.bytes += payload_bytes + kFrameOverhead;
    }

    CostModel model_;
    BackendStats stats_;
    bool pending_batch_ = false;
};

// The Fig 7 harness names its systems through this alias.
using TwipBackend = Backend;

// Server-side Pequod: the in-process engine with its §4.1/§4.2/§4.3
// optimizations individually switchable (the ablation knobs).
std::unique_ptr<Backend> make_pequod_backend(
    bool subtables = true, bool output_hints = true,
    bool value_sharing = true, const CostModel& model = CostModel());
// Client-side Pequod: the same engine run in the client over a join-less
// store endpoint, every source read and stored write a framed net/ message.
std::unique_ptr<Backend> make_client_pequod_backend();
// Redis model: ordered in-memory store, application-maintained timelines.
std::unique_ptr<Backend> make_redis_like_backend();
// memcached model: flat get/put/delete blob cache.
std::unique_ptr<Backend> make_memcache_like_backend();
// PostgreSQL model: relational row scans, the join recomputed per check.
std::unique_ptr<Backend> make_minidb_backend();

}  // namespace compare
}  // namespace pequod

#endif
