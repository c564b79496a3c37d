// Fixture: str-escape. A Str is a borrowed slice; deriving one from a
// locally-owned buffer and letting it outlive the frame (via return or
// a member/out-param store) is a use-after-scope in waiting.

struct Str {
    const char* s = nullptr;
    int len = 0;
    Str() = default;
    Str(const char* p, int n) : s(p), len(n) {}
};

struct KeyBuf {
    // OK: slicing a member; the buffer outlives the call.
    Str view() const {
        return Str(b_, len_);
    }
    char b_[32];
    int len_ = 0;
};

// BAD: the returned slice points into a dead frame.
Str make_key_bad(int id) {
    KeyBuf buf;
    buf.len_ = id;
    return buf.view();  // pqcheck-expect: str-escape
}

// OK: member-owned storage backs the slice.
struct Row {
    Str key() const {
        return store_.view();
    }

    // BAD: the member Str outlives the local std::string it borrows.
    void rename_bad(int id) {
        std::string tmp(8, 'k');
        tmp[0] = char('0' + id);
        key_ = Str(tmp.data(), 8);  // pqcheck-expect: str-escape
    }

    KeyBuf store_;
    Str key_;  // the member the bad stores dangle; pqcheck: allow(str-member)
};
