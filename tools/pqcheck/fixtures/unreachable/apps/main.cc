#include <algorithm>

#include "shapes.hh"

// A dead free function: no root mentions it.
int unused_helper(int x) {  // pqcheck-expect: unreachable
    return x + seed_value();
}

// Reached through a function pointer, not a call.
bool by_area(const Shape* a, const Shape* b) {
    return a->area() < b->area();
}

int main() {
    Square sq;
    std::vector<const Shape*> shapes{&sq, &sq};
    std::sort(shapes.begin(), shapes.end(), by_area);
    Holder holder;
    std::vector<int, ArenaAlloc<int>> pooled;
    pooled.push_back(holder.value_);
    Lock lock;
    Guard guard(lock);
    return static_cast<int>(pooled.size());
}
