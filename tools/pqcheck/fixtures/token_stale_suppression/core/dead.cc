// stale-suppression fixture: an allow() comment whose excused code is
// gone must itself fail the run; a live allow() next to it must not.
#include <string>

int measure(const std::string& s) {
    // pqcheck: allow(hot-string)  -- pqcheck-expect: stale-suppression
    return static_cast<int>(s.size());
}

std::string copy_tail(const std::string& s) {
    // Reviewed cold-path copy. pqcheck: allow(hot-string)
    return s.substr(1);
}
