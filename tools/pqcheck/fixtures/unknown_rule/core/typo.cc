// Fixture: an allow() naming no rule. A misspelled exemption suppresses
// nothing, so it must fail the run like any other stale one instead of
// passing silently.
#include <string>
#include <vector>

struct Buffer {
    PQ_NOALLOC void add(int k) {
        // pqcheck: allow(no-aloc)  pqcheck-expect: stale-suppression
        total_ += k;
    }

    std::string name() const {
        return label_.substr(1);  // pqcheck: allow(hot-strng) pqcheck-expect: stale-suppression pqcheck-expect: hot-string
    }

    int total_ = 0;
    std::string label_;
};
