// In-memory span recorder for pqbench's traced run (--trace 1).
//
// Spans are recorded around the benchmark's own calls into each layer's
// public functions; nothing inside the program is instrumented. A span
// is 16 bytes: start (ns since the tracer was made), duration (ns), and
// the op it served plus its name packed into one word. Every span of
// one op shares the op id; the parent of a span is fixed by its name
// (kParent below), which is all the nesting pqbench produces: step
// and release calls happen inside a drain, nothing else nests.
//
// Storage is reserved up front so recording never reallocates mid-run;
// spans past the reservation are still counted in the totals but not
// kept. write() dumps the spans at exit (format in README.md).
#ifndef PQBENCH_TRACE_HH
#define PQBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pqbench {

inline uint64_t now_ns() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

enum SpanName : uint8_t {
    // Traced inline replay through shard::ShardedServer / ShardClient.
    kMake,      // benchmark: format the op's keys
    kSubmit,    // ShardClient::submit_put / submit_scan
    kFlush,     // ShardClient::flush
    kDrain,     // step every shard until idle (self time = idle polls)
    kStep,      // ShardedServer::step that applied a frame (in kDrain)
    kRelease,   // ShardedServer::release_staged (in kDrain)
    kPoll,      // ShardClient::poll_completion / poll_reply
    kVerify,    // benchmark: decode + check the reply, record the ack
    // Standalone replays of the same stream, for attribution.
    kCoreScanHot,    // core::Server::scan of a materialized timeline
    kCoreScanLogin,  // core::Server::scan of a never-read timeline
    kCorePost,       // core::Server::put of a post (eager fan-out)
    kCoreSub,        // core::Server::put of a subscription
    kNetEncode,      // net::encode_message
    kNetDecode,      // net::decode_message
    kWalAppend,      // persist::Wal::append_put
    kWalFlush,       // persist::Wal::flush
    kSpanNames
};

inline const char* const kSpanLabel[kSpanNames] = {
    "bench.make",      "shard.submit",    "shard.flush",
    "shard.drain",     "shard.step",      "shard.release",
    "shard.poll",      "bench.verify",    "core.scan_hot",
    "core.scan_login", "core.put_post",   "core.put_sub",
    "net.encode",      "net.decode",      "wal.append",
    "wal.flush"};

inline const int kParent[kSpanNames] = {
    -1, -1, -1, -1, kDrain, kDrain, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1};

struct Span {
    uint64_t start;
    uint32_t dur;
    uint32_t op_name;  // op id << 8 | SpanName
};

class Tracer {
  public:
    explicit Tracer(size_t reserve) : origin_(now_ns()) {
        spans_.reserve(reserve);
    }

    void record(SpanName name, uint32_t op, uint64_t t0, uint64_t t1) {
        uint64_t d = t1 - t0;
        total_ns_[name] += d;
        ++count_[name];
        if (spans_.size() < spans_.capacity())
            spans_.push_back(Span{t0 - origin_, static_cast<uint32_t>(d),
                                  (op << 8) | name});
    }

    uint64_t total_ns(SpanName n) const {
        return total_ns_[n];
    }
    uint64_t count(SpanName n) const {
        return count_[n];
    }
    double mean_us(SpanName n) const {
        return count_[n] ? static_cast<double>(total_ns_[n]) / 1e3
                / static_cast<double>(count_[n])
                         : 0.0;
    }

    // "PQTRACE1", the name table (index, parent, label per line, blank
    // line), then the raw Span array.
    bool write(const std::string& path) const {
        FILE* f = std::fopen(path.c_str(), "wb");
        if (!f)
            return false;
        std::fprintf(f, "PQTRACE1\n");
        for (int i = 0; i < kSpanNames; ++i)
            std::fprintf(f, "%d %d %s\n", i, kParent[i], kSpanLabel[i]);
        std::fprintf(f, "\n");
        size_t n = std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f);
        return std::fclose(f) == 0 && n == spans_.size();
    }

  private:
    uint64_t origin_;
    std::vector<Span> spans_;
    uint64_t total_ns_[kSpanNames] = {};
    uint64_t count_[kSpanNames] = {};
};

// Records one span from construction to destruction.
class Scoped {
  public:
    Scoped(Tracer* t, SpanName n, uint32_t op)
        : t_(t), n_(n), op_(op), t0_(t ? now_ns() : 0) {}
    ~Scoped() {
        if (t_)
            t_->record(n_, op_, t0_, now_ns());
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

  private:
    Tracer* t_;
    SpanName n_;
    uint32_t op_;
    uint64_t t0_;
};

}  // namespace pqbench

#endif
