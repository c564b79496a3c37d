// Key-string helpers shared across the system. Pequod keys are flat byte
// strings built from '|'-separated components; numeric components are
// zero-padded to a fixed width so that lexicographic order matches numeric
// order (DESIGN.md §1).
#ifndef PEQUOD_COMMON_BASE_HH
#define PEQUOD_COMMON_BASE_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/str.hh"

namespace pequod {

// Render `x` as a zero-padded decimal of at least `width` digits, the
// canonical fixed-width key component.
inline std::string pad_number(uint64_t x, int width) {
    char buf[24];
    int n = std::snprintf(buf, sizeof buf, "%0*llu", width,
                          static_cast<unsigned long long>(x));
    // Returns owned bytes by contract. pqcheck: allow(hot-string)
    return std::string(buf, static_cast<size_t>(n));
}

// The smallest string ordered after every string that has `prefix` as a
// prefix, i.e. the exclusive upper bound of the prefix's key range.
// Returns the empty string when no such bound exists (all-0xff input);
// callers treat an empty bound as +infinity.
inline std::string prefix_successor(Str prefix) {
    size_t n = prefix.size();
    while (n > 0 && static_cast<unsigned char>(prefix[n - 1]) == 0xFF)
        --n;
    std::string bound(prefix.data(), n);
    if (!bound.empty())
        bound.back() = static_cast<char>(
            static_cast<unsigned char>(bound.back()) + 1);
    return bound;
}

// The smaller of two exclusive upper bounds, where an empty bound means
// +infinity.
inline const std::string& min_bound(const std::string& a,
                                    const std::string& b) {
    if (a.empty())
        return b;
    if (b.empty())
        return a;
    return a < b ? a : b;
}

inline Str min_bound(Str a, Str b) {
    if (a.empty())
        return b;
    if (b.empty())
        return a;
    return a < b ? a : b;
}

}  // namespace pequod

#endif
