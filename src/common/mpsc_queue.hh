// Multi-producer single-consumer queue (Vyukov's algorithm), the
// inter-thread mailbox for the multi-shard server (DESIGN.md §12): any
// thread may push a frame onto a shard worker's queue; only that worker
// pops. Push is wait-free (one exchange + one store), pop is lock-free;
// neither takes a lock, so TSan exercising this queue checks real
// release/acquire interleavings rather than mutex serialization.
//
// Caveats inherent to the algorithm:
//  - A push is two steps (swing tail, then link the predecessor). After
//    the first step and before the second, try_pop on the *predecessor*
//    chain returns false even though an element is in flight — so an
//    empty pop means "nothing linked yet", not "nothing pushed". Callers
//    track completion out of band (op counts, sentinel values) and spin
//    or yield on false.
//  - Exactly one consumer thread may call try_pop/peek; producers only
//    push. approx_size is safe from any thread.
//
// The single-consumer contract is a capability, not a lock: try_pop and
// peek require the queue's consumer Role (common/annotate.hh), claimed
// with a stack RoleGuard at the consumer's entry point. Under clang
// -Wthread-safety a consumer-side call without the role held is a
// compile error; everywhere else the annotations vanish.
#ifndef PEQUOD_COMMON_MPSC_QUEUE_HH
#define PEQUOD_COMMON_MPSC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <utility>

#include "common/annotate.hh"

namespace pequod {

template <typename T>
class MpscQueue {
  public:
    MpscQueue() {
        Node* stub = new Node;
        head_ = stub;
        tail_.store(stub, std::memory_order_relaxed);
    }
    MpscQueue(const MpscQueue&) = delete;
    MpscQueue& operator=(const MpscQueue&) = delete;
    ~MpscQueue() {
        // Single-threaded by the time the queue dies: drain whatever the
        // consumer never popped, then the stub.
        Node* n = head_;
        while (n) {
            Node* next = n->next.load(std::memory_order_relaxed);
            delete n;
            n = next;
        }
    }

    // Elements pushed but not yet popped, give or take in-flight
    // operations. Any thread.
    size_t approx_size() const {
        return size_.load(std::memory_order_relaxed);
    }

    // Any thread. The release store on the predecessor's link publishes
    // `value`'s bytes to the consumer's acquire load in try_pop.
    void push(T value) {
        size_.fetch_add(1, std::memory_order_relaxed);
        Node* n = new Node;
        n->value = std::move(value);
        Node* prev = tail_.exchange(n, std::memory_order_acq_rel);
        prev->next.store(n, std::memory_order_release);
    }

    // The phantom capability standing for "I am this queue's single
    // consumer". Claim it with RoleGuard around consumer-side calls.
    Role& consumer_role() const PQ_RETURN_CAPABILITY(consumer_role_) {
        return consumer_role_;
    }

    // Consumer thread only. False when nothing is linked yet (see the
    // in-flight caveat above).
    bool try_pop(T& out) PQ_REQUIRES(consumer_role_) {
        Node* next = head_->next.load(std::memory_order_acquire);
        if (!next)
            return false;
        out = std::move(next->value);
        Node* old = head_;
        head_ = next;
        delete old;
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }

    // Consumer thread only: the element try_pop would return, without
    // consuming it — how the shard scheduler reads a queued frame's
    // virtual-time stamp before deciding to run it. Null when nothing is
    // linked.
    const T* peek() const PQ_REQUIRES(consumer_role_) {
        Node* next = head_->next.load(std::memory_order_acquire);
        return next ? &next->value : nullptr;
    }

  private:
    struct Node {
        std::atomic<Node*> next{nullptr};
        T value{};
    };

    // Producers contend on tail_; the consumer owns head_. Separate
    // cache lines so pops do not bounce the producers' line. head_ is
    // guarded by the consumer role — only the capability holder may
    // touch it (the ctor/dtor run single-threaded and are exempt from
    // clang's capability analysis by design).
    alignas(64) std::atomic<Node*> tail_;
    alignas(64) Node* head_ PQ_GUARDED_BY(consumer_role_);
    mutable Role consumer_role_;
    alignas(64) std::atomic<size_t> size_{0};
};

}  // namespace pequod

#endif
