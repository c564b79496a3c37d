// intervalmap-mutation fixture: a private IntervalMap held outside
// src/core/, bypassing Table's routing and validation hooks.
template <typename T>
class IntervalMap {
  public:
    void insert(const char* lo, const char* hi, T v);
};

class RouteCache {
  private:
    IntervalMap<int> routes_;  // pqcheck-expect: intervalmap-mutation
};
