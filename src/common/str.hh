// Non-owning string slices for the hot paths (DESIGN.md §8). A Str is a
// (pointer, length) view of bytes owned by someone else — a stored key, a
// string literal, a KeyBuf — and is trivially copyable, so passing and
// copying one never allocates. The engine's per-update chain (route a put
// to its table, match it against source patterns, expand the sink key)
// runs entirely on Str views of the written key.
//
// Lifetime conventions:
//  - A Str never outlives the bytes it views. Parameters of Str type
//    promise only to read the bytes during the call; any value kept
//    beyond the call is copied into owned storage (std::string,
//    OwnedSlots) at the point of capture.
//  - Str views of container-owned keys (std::map node keys, stable
//    subtable prefixes) stay valid until that element is erased.
//  - String literals have static storage, so a Str of one is always safe.
#ifndef PEQUOD_COMMON_STR_HH
#define PEQUOD_COMMON_STR_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>

#include "common/annotate.hh"

namespace pequod {

class Str {
  public:
    constexpr Str() : data_(""), len_(0) {}
    constexpr Str(const char* data, size_t len) : data_(data), len_(len) {}
    Str(const char* cstr) : data_(cstr), len_(std::strlen(cstr)) {}
    Str(const std::string& s) : data_(s.data()), len_(s.size()) {}

    const char* data() const {
        return data_;
    }
    size_t size() const {
        return len_;
    }
    bool empty() const {
        return len_ == 0;
    }
    char operator[](size_t i) const {
        return data_[i];
    }
    char back() const {
        return data_[len_ - 1];
    }
    const char* begin() const {
        return data_;
    }
    const char* end() const {
        return data_ + len_;
    }

    // A sub-slice; `pos` is clamped to the end, `n` to the remainder.
    Str substr(size_t pos, size_t n = npos) const {
        if (pos > len_)
            pos = len_;
        if (n > len_ - pos)
            n = len_ - pos;
        return Str(data_ + pos, n);
    }
    Str prefix(size_t n) const {
        return substr(0, n);
    }

    bool starts_with(Str prefix) const {
        return len_ >= prefix.len_
            && std::memcmp(data_, prefix.data_, prefix.len_) == 0;
    }

    // <0 / 0 / >0, ordering bytewise like std::string::compare.
    int compare(Str x) const {
        size_t n = len_ < x.len_ ? len_ : x.len_;
        int c = n ? std::memcmp(data_, x.data_, n) : 0;
        if (c != 0)
            return c;
        return len_ < x.len_ ? -1 : (len_ > x.len_ ? 1 : 0);
    }

    // Position of `c` at or after `pos`, or npos.
    size_t find(char c, size_t pos = 0) const {
        if (pos >= len_)
            return npos;
        const void* p = std::memchr(data_ + pos, c, len_ - pos);
        return p ? static_cast<size_t>(static_cast<const char*>(p) - data_)
                 : npos;
    }

    // The key component starting at `pos` and running to the next '|' (or
    // the end), excluding the separator. `pos` past the end yields "".
    Str component(size_t pos) const {
        size_t bar = find('|', pos);
        return substr(pos, (bar == npos ? len_ : bar) - pos);
    }

    // The one sanctioned slice-to-owned conversion; every call site in
    // a hot-path file needs its own pqcheck allow.
    std::string str() const {
        return std::string(data_, len_);  // pqcheck: allow(hot-string)
    }
    explicit operator std::string() const {  // pqcheck: allow(hot-string)
        return str();
    }

    // FNV-1a; also the hash used by the transparent unordered containers.
    size_t hash() const {
        uint64_t h = 1469598103934665603ULL;
        for (size_t i = 0; i < len_; ++i) {
            h ^= static_cast<unsigned char>(data_[i]);
            h *= 1099511628211ULL;
        }
        return static_cast<size_t>(h);
    }

    static constexpr size_t npos = static_cast<size_t>(-1);

  private:
    const char* data_;
    size_t len_;
};

inline bool operator==(Str a, Str b) {
    return a.size() == b.size()
        && std::memcmp(a.data(), b.data(), a.size()) == 0;
}
inline bool operator!=(Str a, Str b) {
    return !(a == b);
}
inline bool operator<(Str a, Str b) {
    return a.compare(b) < 0;
}
inline bool operator>(Str a, Str b) {
    return b < a;
}
inline bool operator<=(Str a, Str b) {
    return !(b < a);
}
inline bool operator>=(Str a, Str b) {
    return !(a < b);
}

inline std::ostream& operator<<(std::ostream& out, Str s) {
    return out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline bool starts_with(Str s, Str prefix) {
    return s.starts_with(prefix);
}

// True when the key ranges addressed by two table prefixes intersect,
// i.e. one prefix is a prefix of the other.
inline bool prefixes_overlap(Str a, Str b) {
    return a.size() < b.size() ? b.starts_with(a) : a.starts_with(b);
}

// Transparent hash/equality so unordered containers keyed by std::string
// can be probed with a Str and never construct a temporary key.
struct StrHash {
    using is_transparent = void;
    size_t operator()(Str s) const {
        return s.hash();
    }
};
struct StrEqual {
    using is_transparent = void;
    bool operator()(Str a, Str b) const {
        return a == b;
    }
};

// An appendable key buffer with inline storage, reused across expansions
// so synthesizing a sink key allocates nothing once warm (and nothing
// ever, for keys under the inline capacity). Typical Pequod keys are a
// table byte plus a few short components — far below the inline size.
class KeyBuf {
  public:
    enum { kInlineCapacity = 120 };

    KeyBuf() : data_(local_), len_(0), cap_(kInlineCapacity) {}
    ~KeyBuf() {
        if (data_ != local_)
            delete[] data_;
    }
    KeyBuf(const KeyBuf&) = delete;
    KeyBuf& operator=(const KeyBuf&) = delete;

    void clear() {
        len_ = 0;
    }
    void append(Str s) {
        if (len_ + s.size() > cap_)
            grow(len_ + s.size());
        std::memcpy(data_ + len_, s.data(), s.size());
        len_ += s.size();
    }
    void push_back(char c) {
        if (len_ + 1 > cap_)
            grow(len_ + 1);
        data_[len_++] = c;
    }

    const char* data() const {
        return data_;
    }
    size_t size() const {
        return len_;
    }
    // Named view(), not str(): Str::str() allocates a std::string while
    // this returns a free slice, and pqcheck's hot-string rule tells them
    // apart by spelling.
    Str view() const {
        return Str(data_, len_);
    }
    operator Str() const {
        return view();
    }

  private:
    // Spill to the heap when a key outgrows the inline buffer — the
    // sanctioned cold path out of the §8 no-alloc contract.
    PQ_COLDPATH void grow(size_t need) {
        size_t cap = cap_ * 2;
        while (cap < need)
            cap *= 2;
        char* data = new char[cap];
        std::memcpy(data, data_, len_);
        if (data_ != local_)
            delete[] data_;
        data_ = data;
        cap_ = cap;
    }

    char* data_;
    size_t len_;
    size_t cap_;
    char local_[kInlineCapacity];
};

}  // namespace pequod

#endif
