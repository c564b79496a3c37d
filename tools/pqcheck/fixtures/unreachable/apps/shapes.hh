// Fixture: unreachable. The roots are the mains under the fixture root;
// a call or any other mention of a name reaches every definition of it.
#include <cstddef>
#include <vector>

// A dead virtual pair: nothing names corners(), so neither the base
// nor the override is reached, however they might dispatch.
struct Shape {
    virtual ~Shape() {}
    virtual int corners() const { return 0; }  // pqcheck-expect: unreachable
    virtual int area() const { return 0; }
};

struct Square : Shape {
    int corners() const override { return 4; }  // pqcheck-expect: unreachable
    int area() const override { return side_ * side_; }  // via Shape*
    int side_ = 2;
};

// Reached only from a constructor's member-initializer list.
inline int seed_value() {
    return 7;
}

struct Holder {
    Holder() : value_(seed_value()) {}
    int value_;
};

// The converting constructor and allocate/deallocate are called by the
// std::vector that names this type as a template argument; no source
// line spells those calls.
template <class T>
struct ArenaAlloc {
    using value_type = T;
    ArenaAlloc() = default;
    template <class U>
    ArenaAlloc(const ArenaAlloc<U>&) {}
    T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T))); }
    void deallocate(T* p, std::size_t) { ::operator delete(p); }
};

// A data member initialized after an attribute macro is not a function:
// this is Guard's constructor, which main reaches.
struct Lock {};
struct Guard {
    explicit Guard(Lock& lock) PQ_ACQUIRE(lock) : lock_(lock) {}
    Lock& lock_;
};
