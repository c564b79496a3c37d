// Cache-join patterns and specs (DESIGN.md §2). A pattern is a key
// template mixing literals with named slots: `t|<user>|<time:10>|<poster>`.
// A slot with a width matches exactly that many bytes; a slot without one
// matches up to the next literal character. A join spec binds a sink
// pattern to an ordered list of source patterns:
//
//     t|<u>|<ts:10>|<p> = check s|<u>|<p> copy p|<p>|<ts:10>
//
// `check` sources filter and bind slots; `copy` sources supply the value
// stored under the expanded sink key and must come after every check
// source (a check-only join stores the final check source's value). A
// leading `pull` marks the join as unmaintained: scans recompute results
// on every access instead of materializing and eagerly maintaining them.
#ifndef PEQUOD_JOIN_JOIN_HH
#define PEQUOD_JOIN_JOIN_HH

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/annotate.hh"
#include "common/base.hh"
#include "common/str.hh"

namespace pequod {

enum { kMaxSlots = 5 };

// Interns slot names so all patterns of one join agree on slot ids.
class SlotTable {
  public:
    int find(const std::string& name) const;  // -1 when unknown
    int find_or_create(const std::string& name);
    int size() const {
        return static_cast<int>(names_.size());
    }
    const std::string& name(int slot) const {
        return names_[static_cast<size_t>(slot)];
    }

  private:
    std::vector<std::string> names_;
};

// A partial assignment of slot values accumulated while matching keys.
// Values are non-owning Str slices — into the matched key during a scan
// callback, into an OwnedSlots' storage when replayed by an updater — so
// binding and copying a SlotSet never allocates. A SlotSet must not
// outlive the bytes its slices view (DESIGN.md §8).
class SlotSet {
  public:
    void bind(int slot, Str value) {
        if (slot < 0 || slot >= kMaxSlots)
            throw std::out_of_range("SlotSet::bind: bad slot index");
        values_[static_cast<size_t>(slot)] = value;
        mask_ |= 1u << slot;
    }
    bool has(int slot) const {
        return slot >= 0 && slot < kMaxSlots && (mask_ >> slot) & 1;
    }
    Str operator[](int slot) const {
        return values_[static_cast<size_t>(slot)];
    }
    unsigned mask() const {
        return mask_;
    }

  private:
    // SlotSet is a transient view; the bytes live in the stabbed key or
    // an OwnedSlots (see UpdaterGroup). pqcheck: allow(str-member)
    std::array<Str, kMaxSlots> values_;
    unsigned mask_ = 0;
};

// Owned backing bytes for slot bindings that must outlive the key they
// were matched from — an updater group keeps its bindings here. The
// bindings are packed into one string: a mask byte, then each bound
// slot's length (a varint) and bytes, in slot order. Equal bindings pack
// to equal bytes, so packed() is also a binding's identity and sort key,
// and a one-slot binding such as a user id fits std::string's inline
// buffer. view() and unpack() re-slice the packed bytes without
// allocating.
class OwnedSlots {
  public:
    static constexpr unsigned kAllSlots = (1u << kMaxSlots) - 1;

    // Keep the slots of `ss` named in `mask`.
    void assign(const SlotSet& ss, unsigned mask = kAllSlots) {
        KeyBuf buf;
        pack(ss, mask, buf);
        packed_.assign(buf.data(), buf.size());
    }

    // Append the packed form of the slots of `ss` named in `mask`.
    PQ_NOALLOC static void pack(const SlotSet& ss, unsigned mask,
                                KeyBuf& out) {
        mask &= ss.mask();
        out.push_back(static_cast<char>(mask));
        for (int slot = 0; slot < kMaxSlots; ++slot) {
            if (!((mask >> slot) & 1))
                continue;
            Str v = ss[slot];
            size_t n = v.size();
            for (; n >= 0x80; n >>= 7)
                out.push_back(static_cast<char>((n & 0x7f) | 0x80));
            out.push_back(static_cast<char>(n));
            out.append(v);
        }
    }

    // Bind every slot packed in `packed` into `ss`, as slices of
    // `packed`.
    PQ_NOALLOC static void unpack(Str packed, SlotSet& ss) {
        if (packed.empty())
            return;
        unsigned mask = static_cast<unsigned char>(packed[0]);
        size_t pos = 1;
        for (int slot = 0; slot < kMaxSlots; ++slot) {
            if (!((mask >> slot) & 1))
                continue;
            size_t n = 0;
            for (int shift = 0;; shift += 7) {
                unsigned char b = static_cast<unsigned char>(packed[pos++]);
                n |= static_cast<size_t>(b & 0x7f) << shift;
                if (!(b & 0x80))
                    break;
            }
            ss.bind(slot, Str(packed.data() + pos, n));
            pos += n;
        }
    }

    SlotSet view() const {
        SlotSet out;
        unpack(packed_, out);
        return out;
    }

    unsigned mask() const {
        return packed_.empty() ? 0 : static_cast<unsigned char>(packed_[0]);
    }
    Str packed() const {
        return packed_;
    }

  private:
    std::string packed_;
};

struct KeyRange {
    std::string lo;
    std::string hi;  // exclusive; empty == +infinity
};

class Pattern {
  public:
    // Throws std::runtime_error on malformed text (unclosed slot, bad
    // width, more than kMaxSlots distinct names).
    static Pattern parse(const std::string& text, SlotTable& slots);

    // Match `key`, binding unbound slots into `ss` as slices of `key`
    // (zero allocation; the bindings share `key`'s lifetime). Slots
    // already bound in `ss` must match the key byte-for-byte. False on
    // any mismatch, including a width mismatch or trailing key bytes.
    PQ_NOALLOC bool match(Str key, SlotSet& ss) const;

    // The slots that every key in [lo, hi) provably agrees on, taken from
    // the longest prefix of `lo` that is constant across the range. The
    // bindings slice `lo`.
    SlotSet derive_slot_set(Str lo, Str hi) const;

    // The smallest key range containing every key this pattern can
    // produce under the bindings in `ss`.
    KeyRange containing_range(const SlotSet& ss) const;

    // Append the key for a fully bound slot set to `out` (cleared first);
    // throws if a slot this pattern uses is unbound. Allocation-free
    // while the key fits the KeyBuf's capacity.
    PQ_NOALLOC void expand(const SlotSet& ss, KeyBuf& out) const;
    // Allocating convenience for cold paths and tests. Named apart from
    // expand() so the PQ_NOALLOC contract stays on one symbol.
    std::string expand_str(const SlotSet& ss) const {
        KeyBuf buf;
        expand(ss, buf);
        return buf.view().str();
    }

    unsigned slot_mask() const {
        return slot_mask_;
    }
    // Leading literal, e.g. "t|" — the pattern's table prefix.
    const std::string& table_prefix() const {
        return table_prefix_;
    }
    const std::string& text() const {
        return text_;
    }

  private:
    struct Element {
        std::string literal;  // used when slot < 0
        int slot = -1;
        int width = 0;  // 0 == unbounded
    };
    std::vector<Element> elements_;
    std::string table_prefix_;
    std::string text_;
    unsigned slot_mask_ = 0;
};

enum class SourceOp { kCheck, kCopy };

class Join {
  public:
    // Throws std::runtime_error on grammar or consistency errors (e.g. a
    // sink slot no source can bind).
    void parse(const std::string& spec);

    const Pattern& sink() const {
        return sink_;
    }
    int nsource() const {
        return static_cast<int>(sources_.size());
    }
    const Pattern& source(int i) const {
        return sources_[static_cast<size_t>(i)].second;
    }
    SourceOp source_op(int i) const {
        return sources_[static_cast<size_t>(i)].first;
    }
    // False for `pull` joins, which are recomputed on every scan.
    bool maintained() const {
        return maintained_;
    }
    SlotTable& slots() {
        return slots_;
    }
    const SlotTable& slots() const {
        return slots_;
    }

  private:
    Pattern sink_;
    std::vector<std::pair<SourceOp, Pattern>> sources_;
    bool maintained_ = true;
    SlotTable slots_;
};

// The specs of a ';'-separated join list, in order, skipping blank ones
// (a trailing ';' or newline leaves one).
std::vector<std::string> split_join_specs(const std::string& specs);

}  // namespace pequod

#endif
