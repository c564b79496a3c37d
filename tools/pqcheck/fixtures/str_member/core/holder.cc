// str-member fixture: a class outside the sanctioned owner set holding
// a non-owning Str slice as a data member.
#include <string>

struct Str {
    const char* data;
    unsigned long size;
};

// KeyBuf is sanctioned: its whole contract is owning the bytes its
// slices point at.
class KeyBuf {
  public:
    Str view;  // sanctioned owner: no finding
  private:
    char buf_[64];
};

class Cursor {
  public:
    void advance();

  private:
    Str here_;  // pqcheck-expect: str-member
    int depth_ = 0;
};
