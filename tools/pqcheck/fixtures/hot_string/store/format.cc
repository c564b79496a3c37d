// hot-string fixture: allocating string operations in a hot-path
// directory, plus one documented (live) suppression.
#include <string>

std::string describe(const std::string& key) {
    return std::string("key=") + key;  // pqcheck-expect: hot-string
}

std::string head(const std::string& key) {
    return key.substr(0, 4);  // pqcheck-expect: hot-string
}

// Error-path copy, reviewed: cost is irrelevant once we throw.
std::string fail_message(const std::string& key) {
    // pqcheck: allow(hot-string)
    return std::string("bad key: ") + key;
}
