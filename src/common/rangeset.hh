// Coalesced set of half-open string ranges [lo, hi), with an empty hi
// meaning +infinity. Used for a join's materialized (valid) sink ranges
// and for a compute server's subscribed source ranges: both need "is
// [lo, hi) fully covered?", "add [lo, hi), merging overlaps", and — for
// invalidation (§10) — "subtract [lo, hi), trimming or splitting what it
// overlaps".
#ifndef PEQUOD_COMMON_RANGESET_HH
#define PEQUOD_COMMON_RANGESET_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/str.hh"
#include "common/validate.hh"

namespace pequod {

class RangeSet {
  public:
    // True when [lo, hi) lies inside a single stored range. Stored ranges
    // are coalesced, so covered-by-several implies covered-by-one. Takes
    // Str views so the hot covered-already check allocates nothing.
    bool covers(Str lo, Str hi) const {
        auto it = ranges_.upper_bound(lo);
        if (it == ranges_.begin())
            return false;
        --it;  // it->first <= lo
        if (it->second.empty())
            return true;
        return !hi.empty() && hi <= Str(it->second);
    }

    // Add [lo, hi), coalescing with every overlapping or adjacent range.
    void add(std::string lo, std::string hi) {
        auto first = ranges_.upper_bound(lo);
        if (first != ranges_.begin()) {
            auto prev = std::prev(first);
            if (prev->second.empty() || prev->second >= lo)
                first = prev;
        }
        auto last = first;
        while (last != ranges_.end() && (hi.empty() || last->first <= hi)) {
            if (last->first < lo)
                lo = last->first;
            if (!hi.empty() && (last->second.empty() || last->second > hi))
                hi = last->second;
            ++last;
        }
        ranges_.erase(first, last);
        ranges_.emplace(std::move(lo), std::move(hi));
        PQ_AUTOVALIDATE(verify());
    }

    // Remove [lo, hi) from the covered set: stored ranges it swallows
    // disappear, edge overlaps are trimmed, and a stored range strictly
    // containing it splits in two. Ranges merely adjacent to [lo, hi)
    // are untouched (the bounds are exclusive at hi, inclusive at lo).
    void subtract(Str lo, Str hi) {
        if (!hi.empty() && !(lo < hi))
            return;  // empty removal
        auto it = ranges_.upper_bound(lo);
        if (it != ranges_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.empty() || Str(prev->second) > lo)
                it = prev;
        }
        std::vector<std::pair<std::string, std::string>> keep;
        while (it != ranges_.end() && (hi.empty() || Str(it->first) < hi)) {
            if (Str(it->first) < lo)
                // The set owns its bounds; a trimmed range must copy the
                // new endpoint. pqcheck: allow(hot-string)
                keep.emplace_back(it->first, lo.str());
            if (!hi.empty()
                && (it->second.empty() || Str(it->second) > hi))
                keep.emplace_back(hi.str(), it->second);  // pqcheck: allow(hot-string)
            it = ranges_.erase(it);
        }
        for (auto& kv : keep)
            ranges_.emplace(std::move(kv.first), std::move(kv.second));
        PQ_AUTOVALIDATE(verify());
    }

    // Re-derive the set's invariants (DESIGN.md §11): every stored range
    // is non-empty, only the last range may extend to +infinity, and
    // consecutive ranges are strictly separated (overlapping or adjacent
    // ranges must have been coalesced by add). Throws InvariantError.
    PQ_COLDPATH void verify() const {
        const std::string* prev_hi = nullptr;
        for (const auto& range : ranges_) {
            if (prev_hi && prev_hi->empty())
                invariant_fail("RangeSet",
                               "range stored after an infinite upper bound");
            if (!range.second.empty() && !(range.first < range.second))
                invariant_fail("RangeSet",
                               "empty or inverted range at lo="
                                   + range.first);
            if (prev_hi && !(*prev_hi < range.first))
                invariant_fail("RangeSet",
                               "overlapping or un-coalesced ranges at lo="
                                   + range.first);
            prev_hi = &range.second;
        }
    }

    // Test-only corruption hook (validation_tests): plants an inverted
    // range next to the first stored one so the suite can prove verify()
    // catches it. False when the set is empty.
    bool corrupt_for_test() {
        if (ranges_.empty())
            return false;
        const std::string& lo = ranges_.begin()->first;
        ranges_.emplace(lo + '\0', lo);
        return true;
    }

    bool empty() const {
        return ranges_.empty();
    }
    size_t size() const {
        return ranges_.size();
    }
    const std::map<std::string, std::string, std::less<>>& ranges() const {
        return ranges_;
    }

  private:
    // lo -> hi, coalesced; transparent so covers() can probe with a Str.
    std::map<std::string, std::string, std::less<>> ranges_;
};

}  // namespace pequod

#endif
