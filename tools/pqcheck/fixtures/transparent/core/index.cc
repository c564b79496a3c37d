// transparent-comparator fixture: string-keyed containers that force a
// std::string allocation per Str probe, next to correctly transparent
// ones.
#include <map>
#include <set>
#include <string>
#include <unordered_map>

struct StrHash {
    unsigned long operator()(const char*) const;
};
struct StrEqual {
    bool operator()(const char*, const char*) const;
};

std::map<std::string, int> opaque_index;  // pqcheck-expect: transparent-comparator
std::map<std::string, int, std::less<>> clear_index;
std::set<std::string> opaque_names;  // pqcheck-expect: transparent-comparator
std::unordered_map<std::string, int> opaque_hash;  // pqcheck-expect: transparent-comparator
std::unordered_map<std::string, int, StrHash, StrEqual> clear_hash;
