// Fixture: no-alloc closure. A PQ_NOALLOC entry point's transitive
// callees must not allocate; PQ_COLDPATH carves out the sanctioned
// slow path (pool refill, buffer spill), and a documented allow()
// suppresses a finding without hiding it from the report.

struct Table {
    // OK inside the closure only because it is the cold path.
    PQ_COLDPATH void grow() {
        int* bigger = new int[cap_ * 2];
        delete[] slab_;
        slab_ = bigger;
        cap_ *= 2;
    }

    void set(int i, int v) {
        if (i >= cap_)
            grow();
        slab_[i] = v;
    }

    // OK: the warm path writes in place; growth is behind PQ_COLDPATH.
    PQ_NOALLOC void hot_ok(int i, int v) {
        set(i, v);
    }

    // BAD three ways: a naked new, a growth-capable std:: container
    // call, and std::string constructions (a temporary or a named
    // local), all on the hot path. A std::string_view is not one.
    PQ_NOALLOC void hot_bad(int k) {
        int* scratch = new int[k];  // pqcheck-expect: no-alloc
        history_.push_back(k);      // pqcheck-expect: no-alloc
        label_ = std::string("k");  // pqcheck-expect: no-alloc pqcheck: allow(hot-string)
        std::string probe(label_.data(), label_.size());  // pqcheck-expect: no-alloc
        std::string copy{label_};   // pqcheck-expect: no-alloc
        std::string_view view(label_);
        delete[] scratch;
    }

    // Suppressed: counted in the report, but not a failure. The vector
    // is reserved to capacity at construction in this model.
    PQ_NOALLOC void hot_quiet(int k) {
        history_.push_back(k);  // pqcheck: allow(no-alloc)
    }

    int* slab_ = nullptr;
    int cap_ = 0;
    std::vector<int> history_;
    std::string label_;
};
