// CRC32C (Castagnoli) for durable-record integrity (DESIGN.md §13).
// Every record frame (WAL, checkpoint, MANIFEST) carries a CRC32C over
// its payload, so a torn write or a bit flip at rest is detected before
// the bytes are ever served.
// Software table-driven implementation: the table is built once at
// static-init time; throughput is far beyond what the fsync-bound write
// path can generate.
#ifndef PEQUOD_PERSIST_CRC32C_HH
#define PEQUOD_PERSIST_CRC32C_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace pequod {
namespace persist {

namespace detail {

inline const std::array<uint32_t, 256>& crc32c_table() {
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i != 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k != 8; ++k)
                c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    return table;
}

}  // namespace detail

// One-shot CRC32C of `n` bytes (final XOR applied).
inline uint32_t crc32c(const void* data, size_t n) {
    const auto& table = detail::crc32c_table();
    const uint8_t* p = static_cast<const uint8_t*>(data);
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i != n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

}  // namespace persist
}  // namespace pequod

#endif
