#include "persist/record.hh"

#include "persist/crc32c.hh"

namespace pequod {
namespace persist {

bool read_varint(const uint8_t* data, size_t limit, size_t& pos,
                 uint64_t& out) {
    uint64_t v = 0;
    int shift = 0;
    while (pos < limit && shift < 64) {
        uint8_t c = data[pos++];
        v |= static_cast<uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80)) {
            out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

void append_frame(net::Buffer& out, const uint8_t* payload, size_t n) {
    out.write_varint(n);
    out.write_bytes(payload, n);
    out.write_u32(crc32c(payload, n));
}

void append_entry(net::Buffer& out, net::Buffer& scratch, Record::Op op,
                  Str a, Str b) {
    scratch.clear();
    scratch.write_varint(op);
    scratch.write_string(a);
    scratch.write_string(b);
    append_frame(out, scratch.data(), scratch.size());
}

bool RecordReader::next_frame(const uint8_t*& payload, size_t& n) {
    // Work on locals: the CRC loop reads bytes, which may alias members.
    size_t pos = pos_;
    if (stop_ || pos == size_)
        return false;
    start_ = pos;
    uint64_t len = 0;
    if (!read_varint(data_, size_, pos, len))
        return stop("torn length varint");
    if (len > size_ - pos)
        return stop("torn payload");
    const uint8_t* p = data_ + pos;
    pos += static_cast<size_t>(len);
    if (size_ - pos < 4)
        return stop("torn checksum");
    const uint8_t* c = data_ + pos;
    uint32_t want = static_cast<uint32_t>(c[0])
        | static_cast<uint32_t>(c[1]) << 8
        | static_cast<uint32_t>(c[2]) << 16
        | static_cast<uint32_t>(c[3]) << 24;
    pos_ = pos + 4;
    if (crc32c(p, static_cast<size_t>(len)) != want)
        return stop("crc mismatch");
    payload = p;
    n = static_cast<size_t>(len);
    return true;
}

bool RecordReader::next(Record& rec) {
    const uint8_t* p = nullptr;
    size_t end = 0;
    if (!next_frame(p, end))
        return false;
    size_t pos = 0;
    uint64_t op = 0, alen = 0, blen = 0;
    if (!read_varint(p, end, pos, op) || op < Record::kPut
        || op > Record::kSeal || !read_varint(p, end, pos, alen)
        || alen > end - pos)
        return stop("malformed record");
    rec.key = Str(reinterpret_cast<const char*>(p) + pos,
                  static_cast<size_t>(alen));
    pos += static_cast<size_t>(alen);
    if (!read_varint(p, end, pos, blen) || blen > end - pos)
        return stop("malformed record");
    rec.value = Str(reinterpret_cast<const char*>(p) + pos,
                    static_cast<size_t>(blen));
    rec.op = static_cast<Record::Op>(op);
    return true;
}

}  // namespace persist
}  // namespace pequod
