// Fixture: unreachable through data members. Building a class builds
// its by-value data members, and destroying it destroys them, though no
// source line names their constructors or destructors.

struct Part {
    Part() : n_(1) {}
    ~Part() { n_ = 0; }
    int n_;
};

// Built only as a member of Whole, which main builds.
struct Whole {
    Whole() : part_() {}
    Part part_;
};

// Built only as a member of Unbuilt, which nothing builds.
struct Orphan {
    Orphan() {}  // pqcheck-expect: unreachable
};

struct Unbuilt {
    Unbuilt() {}  // pqcheck-expect: unreachable
    Orphan orphan_;
};

// A pointer member is not built with its holder.
struct Pointee {
    Pointee() {}  // pqcheck-expect: unreachable
};

struct Holder {
    Pointee* p_ = nullptr;
};

int main() {
    Whole w;
    Holder h;
    return w.part_.n_ + (h.p_ ? 1 : 0);
}
