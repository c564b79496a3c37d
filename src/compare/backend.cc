#include "compare/backend.hh"

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/base.hh"
#include "core/server.hh"
#include "net/message.hh"
#include "net/network.hh"

namespace pequod {
namespace compare {

double Backend::modeled_seconds() const {
    BackendStats s = stats();
    return static_cast<double>(s.round_trips) * model_.rtt_seconds
        + static_cast<double>(s.messages) * model_.per_message_seconds
        + static_cast<double>(s.bytes) * model_.per_byte_seconds
        + static_cast<double>(s.server_updates) * model_.per_update_seconds
        + static_cast<double>(s.rows_scanned) * model_.per_row_seconds
        + static_cast<double>(s.queries) * model_.per_query_seconds;
}

bool Backend::get(Str key, std::string* value_out) {
    // [key, key + '\0') contains exactly `key`; routed through scan so a
    // get of join output materializes it like any other read.
    std::string hi(key.data(), key.size());
    hi.push_back('\0');
    bool found = false;
    scan(key, hi, [&](Str, Str value) {
        found = true;
        if (value_out)
            value_out->assign(value.data(), value.size());
    });
    return found;
}

size_t Backend::multi_get(const std::vector<std::string>& keys,
                          std::vector<std::string>* values_out) {
    values_out->assign(keys.size(), std::string());
    size_t hits = 0;
    for (size_t i = 0; i < keys.size(); ++i)
        if (get(keys[i], &(*values_out)[i]))
            ++hits;
    return hits;
}

void Backend::flush() {
    if (pending_batch_) {
        ++stats_.round_trips;
        pending_batch_ = false;
    }
}

void Backend::erase(Str) {
    throw std::logic_error(std::string(name()) + ": erase unsupported");
}

void Backend::add_join(const std::string&) {
    throw std::logic_error(std::string(name()) + ": joins unsupported");
}

namespace {

// ---- server Pequod and the PostgreSQL model ---------------------------------
//
// Both run the real engine in-process; they differ in configuration and
// cost model. The relational model installs every join as `pull` — no
// materialization, the join recomputed by row scans on every check,
// charged per row visited plus a per-query planning cost — and runs the
// store as one flat heap (no subtables, no output hints).

class PequodBackend : public Backend {
  public:
    PequodBackend(const char* name, Style style, const ServerConfig& config,
                  const CostModel& model, RemoteStore* remote = nullptr)
        : Backend(model), name_(name), style_(style),
          server_(config, remote) {}

    const char* name() const override {
        return name_;
    }
    Style style() const override {
        return style_;
    }
    bool supports_joins() const override {
        return true;
    }

    void put(Str key, Str value) override {
        account_batched(key.size() + value.size());
        if (style_ == Style::kMiniDbModel)
            ++stats_.rows_scanned;  // heap insert + index maintenance
        server_.put(key, value);
    }

    void add_join(const std::string& spec) override {
        if (style_ == Style::kMiniDbModel) {
            // No materialized views: recompute per read. "<sink> = rest"
            // becomes "<sink> = pull rest".
            size_t eq = spec.find(" = ");
            if (eq == std::string::npos)
                throw std::runtime_error("bad join spec: " + spec);
            server_.add_join(spec.substr(0, eq + 3) + "pull "
                             + spec.substr(eq + 3));
        } else {
            server_.add_join(spec);
        }
    }

    size_t memory_bytes() const override {
        return server_.memory_stats().total();
    }

    BackendStats stats() const override {
        BackendStats s = stats_;
        s.server_updates = server_.eager_update_count();
        s.rows_scanned += server_.source_rows_scanned();
        return s;
    }

    void verify() const override {
        server_.verify();
    }

  protected:
    void scan_impl(Str lo, Str hi, const ScanRef& f) override {
        account_sync(lo.size() + hi.size());
        if (style_ == Style::kMiniDbModel)
            ++stats_.queries;
        size_t reply = 0;
        server_.scan(lo, hi,
                     [&](const std::string& key, const ValuePtr& v) {
                         reply += key.size() + v->size() + 2;
                         f(key, *v);
                     });
        account_reply(reply);
    }

    const char* name_;
    Style style_;
    Server server_;
};

// ---- client Pequod ----------------------------------------------------------
//
// The same engine run *in the client*: a core::Server whose rows live at
// a join-less store endpoint (its RemoteStore seam), so every source
// read is a synchronous kScan and every stored write — client puts and
// sink emissions alike — a pipelined kPut, framed and counted by
// net::Network. Fig 7's "client Pequod" bar is the cost of pushing the
// cache-join abstraction across an RPC boundary.

class KvStoreEndpoint final : public net::Endpoint {
  public:
    void attach(net::Network* net, int self) {
        net_ = net;
        self_ = self;
    }

    void deliver(int from, net::Message&& m, size_t) override {
        switch (m.type) {
        case net::MsgType::kPut:
            store_.put(m.key, m.value);
            break;
        case net::MsgType::kScan: {
            net::Message reply;
            reply.type = net::MsgType::kScanReply;
            store_.scan(m.key, m.value,
                        [&reply](const std::string& k, const Entry& e) {
                            reply.items.emplace_back(k, e.value());
                        });
            net_->send(self_, from, reply);
            break;
        }
        default:
            throw std::logic_error("kv store: unexpected message type");
        }
    }

    const Store& store() const {
        return store_;
    }

  private:
    Store store_{true};  // a dumb KV store: no joins, no engine
    net::Network* net_ = nullptr;
    int self_ = -1;
};

// The modeled accounting of PequodBackend is replaced by real frames:
// put and scan go straight to the engine, whose RemoteStore calls are
// the only traffic, all of it counted by net_. RemoteStore is the first
// base so `this` converts to it before PequodBackend builds the server.
class ClientPequodBackend final : private RemoteStore,
                                  public PequodBackend,
                                  private net::Endpoint {
  public:
    ClientPequodBackend()
        : PequodBackend("client pequod", Style::kClientPequod,
                        ServerConfig(), CostModel(), this) {
        store_id_ = net_.add_endpoint(&store_);
        self_id_ = net_.add_endpoint(this);
        store_.attach(&net_, store_id_);
    }

    void put(Str key, Str value) override {
        server_.put(key, value);
    }

    void flush() override {
        if (pending_batch_) {
            net_.drain();
            ++stats_.round_trips;
            pending_batch_ = false;
        }
    }

    size_t memory_bytes() const override {
        // Rows live at the store; the client engine holds only routing
        // and maintenance bookkeeping.
        return store_.store().memory_stats().total()
            + PequodBackend::memory_bytes();
    }

    BackendStats stats() const override {
        BackendStats s = PequodBackend::stats();
        s.messages = net_.stats().messages;
        s.bytes = net_.stats().bytes;
        return s;
    }

    void verify() const override {
        PequodBackend::verify();
        store_.store().verify();
    }

  protected:
    void scan_impl(Str lo, Str hi, const ScanRef& f) override {
        server_.scan(lo, hi, [&f](const std::string& key, const ValuePtr& v) {
            f(key, *v);
        });
    }

  private:
    void deliver(int, net::Message&& m, size_t) override {
        if (m.type != net::MsgType::kScanReply)
            throw std::logic_error("client pequod: unexpected message");
        reply_ = std::move(m.items);
    }

    // A pipelined write: framed and counted now, delivered with the
    // batch. Counts toward the next flush's round trip.
    void rpc_put(Str key, Str value) override {
        net::Message m;
        m.type = net::MsgType::kPut;
        m.key.assign(key.data(), key.size());
        m.value.assign(value.data(), value.size());
        net_.post(self_id_, store_id_, m);
        pending_batch_ = true;
    }

    Rows rpc_scan(Str lo, Str hi) override {
        flush();  // reads observe every prior write
        net::Message m;
        m.type = net::MsgType::kScan;
        m.key.assign(lo.data(), lo.size());
        m.value.assign(hi.data(), hi.size());
        net_.send(self_id_, store_id_, m);  // reply lands in reply_
        ++stats_.round_trips;
        return std::move(reply_);
    }

    net::Network net_;
    KvStoreEndpoint store_;
    int store_id_;
    int self_id_;
    Rows reply_;
};

// ---- Redis and memcached models ---------------------------------------------
//
// Both are simple stores with application-side logic (apps/twip.hh);
// they share the single-key surface and per-entry accounting, differing
// in map shape (ordered vs flat hash), per-entry overhead, and the
// operations beyond get/put/erase.

template <typename Map>
class MapModelBackend : public Backend {
  public:
    void put(Str key, Str value) override {
        account_batched(key.size() + value.size());
        auto it = map_.find(key);
        if (it != map_.end()) {
            bytes_ += value.size() - it->second.size();
            it->second.assign(value.data(), value.size());
        } else {
            bytes_ += key.size() + value.size();
            map_.emplace(key.str(), value.str());
        }
    }

    bool get(Str key, std::string* value_out) override {
        account_sync(key.size());
        auto it = map_.find(key);
        account_reply(it != map_.end() ? it->second.size() : 1);
        if (it == map_.end())
            return false;
        if (value_out)
            *value_out = it->second;
        return true;
    }

    void erase(Str key) override {
        account_batched(key.size());
        auto it = map_.find(key);
        if (it != map_.end()) {
            bytes_ -= it->first.size() + it->second.size();
            map_.erase(it);
        }
    }

    size_t memory_bytes() const override {
        return bytes_ + map_.size() * entry_overhead_;
    }

  protected:
    MapModelBackend(size_t entry_overhead)
        : Backend(CostModel()), entry_overhead_(entry_overhead) {}

    Map map_;
    size_t bytes_ = 0;
    size_t entry_overhead_;  // modeled per-entry structure cost
};

// An ordered in-memory store (sorted sets / lists): cheap single-key and
// range operations, no server-side joins — the *application* maintains
// timeline lists on every post (kRedisModel style).
class RedisBackend final
    : public MapModelBackend<
          std::map<std::string, std::string, std::less<>>> {
  public:
    // dict entry + skiplist node + two sds headers, roughly.
    RedisBackend() : MapModelBackend(64) {}

    const char* name() const override {
        return "redis-model";
    }
    Style style() const override {
        return Style::kRedisModel;
    }

  protected:
    void scan_impl(Str lo, Str hi, const ScanRef& f) override {
        account_sync(lo.size() + hi.size());
        size_t reply = 0;
        for (auto it = map_.lower_bound(lo);
             it != map_.end() && (hi.empty() || Str(it->first) < hi); ++it) {
            reply += it->first.size() + it->second.size() + 2;
            f(it->first, it->second);
        }
        account_reply(reply);
    }
};

// A flat blob cache: get/multiget/put/delete only, no ordered scans.
// The application stores whole timelines as blobs, invalidates them on
// writes, and recomputes them on read miss (kMemcacheModel style).
class MemcacheBackend final
    : public MapModelBackend<std::unordered_map<std::string, std::string,
                                                StrHash, StrEqual>> {
  public:
    // hash bucket + item header, roughly.
    MemcacheBackend() : MapModelBackend(56) {}

    const char* name() const override {
        return "memcached-model";
    }
    Style style() const override {
        return Style::kMemcacheModel;
    }
    bool supports_scan() const override {
        return false;
    }

    // memcached multiget: the request keys are pipelined into one round
    // trip, the values stream back in one reply.
    size_t multi_get(const std::vector<std::string>& keys,
                     std::vector<std::string>* values_out) override {
        flush();
        size_t request = 0;
        for (const std::string& k : keys) {
            ++stats_.messages;
            request += k.size() + kFrameOverhead;
        }
        stats_.bytes += request;
        ++stats_.round_trips;
        values_out->assign(keys.size(), std::string());
        size_t hits = 0, reply = 0;
        for (size_t i = 0; i < keys.size(); ++i) {
            auto it = map_.find(Str(keys[i]));
            if (it == map_.end())
                continue;
            ++hits;
            reply += it->second.size();
            (*values_out)[i] = it->second;
        }
        account_reply(reply);
        return hits;
    }

  protected:
    void scan_impl(Str, Str, const ScanRef&) override {
        throw std::logic_error("memcached model has no ordered scan");
    }
};

}  // namespace

std::unique_ptr<Backend> make_pequod_backend(bool subtables,
                                             bool output_hints,
                                             bool value_sharing,
                                             const CostModel& model) {
    ServerConfig config;
    config.store.enable_subtables = subtables;
    config.enable_output_hints = output_hints;
    config.enable_value_sharing = value_sharing;
    CostModel m = model;
    if (m.per_update_seconds == 0)
        m.per_update_seconds = 2e-6;  // one hinted in-tree sink write
    return std::make_unique<PequodBackend>(
        "pequod", Backend::Style::kServerPequod, config, m);
}

std::unique_ptr<Backend> make_client_pequod_backend() {
    return std::make_unique<ClientPequodBackend>();
}

std::unique_ptr<Backend> make_redis_like_backend() {
    return std::make_unique<RedisBackend>();
}

std::unique_ptr<Backend> make_memcache_like_backend() {
    return std::make_unique<MemcacheBackend>();
}

std::unique_ptr<Backend> make_minidb_backend() {
    ServerConfig config;
    config.store.enable_subtables = false;  // one flat row heap
    config.enable_output_hints = false;
    CostModel model;
    // Per row visited by a scan: buffer-manager lookup, tuple
    // deserialization, MVCC visibility — well above an in-memory tree
    // step — plus per-statement parse/plan/execute overhead.
    model.per_row_seconds = 8e-6;
    model.per_query_seconds = 300e-6;
    return std::make_unique<PequodBackend>(
        "postgres-model", Backend::Style::kMiniDbModel, config, model);
}

}  // namespace compare
}  // namespace pequod
