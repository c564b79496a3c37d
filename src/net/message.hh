// Message frames for inter-server and client traffic (DESIGN.md §7, §10,
// §12). Every frame is varint-framed over net::Buffer: a varint type tag,
// then length-prefixed strings (and a varint item count for batched
// frames). The distribution layer routes these through net::Network,
// whose message and byte counters are what the benches report as modeled
// traffic; encode/decode is a genuine round-trip, not an estimate. The
// shard tier (§12) carries the same format through MPSC mailboxes,
// appending several encode_message frames to one buffer and reading them
// back with a decode_message loop, so one mailbox wake amortizes across
// a pipeline of operations. Frames are self-delimiting: a batch grows
// one message at a time with no count header to patch.
//
// Delivery metadata (§10), stamped by sub::Publisher in both tiers:
// notify frames carry the owner's generation (bumped on restart), the
// subscriber epoch they were stamped under, and a per-(owner,
// subscriber)-link sequence number, so a subscriber can drop duplicates,
// detect gaps, and notice an owner restart. Backfill frames are the
// replies to a subscribe; they echo its epoch (the shard tier's wait
// nonce) and carry the *next* live sequence number as a
// resynchronization baseline rather than consuming one themselves.
#ifndef PEQUOD_NET_MESSAGE_HH
#define PEQUOD_NET_MESSAGE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/buffer.hh"

namespace pequod {
namespace net {

enum class MsgType : uint8_t {
    kPut = 1,        // client -> base: store one key
    kScan = 2,       // client -> compute: read a range
    kScanReply = 3,  // compute -> client: the range contents
    kSubscribe = 4,  // compute -> base: keep me fresh for a range
    kNotify = 5,     // base -> compute: one live put for subscribed ranges
    kBackfill = 6,   // base -> compute: a subscribed range's current
                     // contents (the synchronous subscribe reply)
    kPing = 7,       // compute -> base: liveness / high-water probe
    kPong = 8,       // base -> compute: generation + next notify seq
};
constexpr int kMsgTypeCount = 9;  // index space; tag 0 is never sent

struct Message {
    MsgType type = MsgType::kPut;
    std::string key;    // kPut: key; kScan/kSubscribe: range lo
    std::string value;  // kPut: value; kScan/kSubscribe: range hi
    std::vector<std::pair<std::string, std::string>> items;  // batched frames
    // Delivery metadata (kNotify/kBackfill/kSubscribe/kPing/kPong; §10).
    uint64_t gen = 0;    // base server generation (kNotify/kBackfill/kPong)
    uint64_t epoch = 0;  // subscriber epoch (kSubscribe/kNotify/kBackfill/
                         // kPing)
    uint64_t seq = 0;    // per-link notify sequence (kNotify); the next
                         // live sequence baseline (kBackfill/kPong); the
                         // client's operation ticket (kPut/kScan/
                         // kScanReply, §12) echoed on the completion path
};

inline void encode_message(Buffer& b, const Message& m) {
    b.write_varint(static_cast<uint64_t>(m.type));
    switch (m.type) {
    case MsgType::kPut:
        b.write_string(m.key);
        b.write_string(m.value);
        b.write_varint(m.seq);
        break;
    case MsgType::kScan:
        b.write_string(m.key);
        b.write_string(m.value);
        b.write_varint(m.seq);
        b.write_varint(m.epoch);  // §12: nonzero marks a broadcast slice
        break;
    case MsgType::kSubscribe:
        b.write_string(m.key);
        b.write_string(m.value);
        b.write_varint(m.epoch);
        break;
    case MsgType::kScanReply:
        b.write_varint(m.seq);
        b.write_varint(m.items.size());
        for (const auto& kv : m.items) {
            b.write_string(kv.first);
            b.write_string(kv.second);
        }
        break;
    case MsgType::kNotify:
    case MsgType::kBackfill:
        b.write_varint(m.gen);
        b.write_varint(m.epoch);
        b.write_varint(m.seq);
        b.write_varint(m.items.size());
        for (const auto& kv : m.items) {
            b.write_string(kv.first);
            b.write_string(kv.second);
        }
        break;
    case MsgType::kPing:
        b.write_varint(m.epoch);
        break;
    case MsgType::kPong:
        b.write_varint(m.gen);
        b.write_varint(m.seq);
        break;
    }
}

// Reads one frame from `b`'s cursor. False on an empty buffer, an
// unknown tag, or a batch count that cannot fit the remaining bytes.
inline bool decode_message(Buffer& b, Message& m) {
    if (b.remaining() == 0)
        return false;
    uint64_t tag = b.read_varint();
    if (tag < 1 || tag >= kMsgTypeCount)
        return false;
    m.type = static_cast<MsgType>(tag);
    m.key.clear();
    m.value.clear();
    m.items.clear();
    m.gen = m.epoch = m.seq = 0;
    switch (m.type) {
    case MsgType::kPut:
        m.key = b.read_string();
        m.value = b.read_string();
        m.seq = b.read_varint();
        break;
    case MsgType::kScan:
        m.key = b.read_string();
        m.value = b.read_string();
        m.seq = b.read_varint();
        m.epoch = b.read_varint();
        break;
    case MsgType::kSubscribe:
        m.key = b.read_string();
        m.value = b.read_string();
        m.epoch = b.read_varint();
        break;
    case MsgType::kScanReply:
    case MsgType::kNotify:
    case MsgType::kBackfill: {
        if (m.type != MsgType::kScanReply) {
            m.gen = b.read_varint();
            m.epoch = b.read_varint();
            m.seq = b.read_varint();
        } else {
            m.seq = b.read_varint();
        }
        uint64_t n = b.read_varint();
        // Each item takes at least two bytes (two length varints).
        if (n > b.remaining() / 2)
            return false;
        m.items.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i) {
            std::string k = b.read_string();
            std::string v = b.read_string();
            m.items.emplace_back(std::move(k), std::move(v));
        }
        break;
    }
    case MsgType::kPing:
        m.epoch = b.read_varint();
        break;
    case MsgType::kPong:
        m.gen = b.read_varint();
        m.seq = b.read_varint();
        break;
    }
    return true;
}

}  // namespace net
}  // namespace pequod

#endif
