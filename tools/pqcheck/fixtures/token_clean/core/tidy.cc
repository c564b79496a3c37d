// Clean fixture: hot-path code written to the conventions; pqcheck must
// report nothing.
#include <map>
#include <string>

struct Str {
    const char* data;
    unsigned long size;
};

class KeyBuf {
  public:
    Str view;

  private:
    char buf_[64];
};

std::map<std::string, int, std::less<>> index_by_key;

int lookup(const std::string& key) {
    auto it = index_by_key.find(key);
    return it == index_by_key.end() ? -1 : it->second;
}
