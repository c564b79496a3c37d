#include "join/join.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace pequod {

int SlotTable::find(const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<int>(i);
    return -1;
}

int SlotTable::find_or_create(const std::string& name) {
    int slot = find(name);
    if (slot >= 0)
        return slot;
    if (names_.size() >= kMaxSlots)
        throw std::runtime_error("too many slots (max "
                                 + std::to_string(int(kMaxSlots)) + "): "
                                 + name);
    names_.push_back(name);
    return static_cast<int>(names_.size()) - 1;
}

Pattern Pattern::parse(const std::string& text, SlotTable& slots) {
    Pattern p;
    p.text_ = text;
    size_t pos = 0;
    while (pos < text.size()) {
        if (text[pos] == '<') {
            size_t close = text.find('>', pos);
            if (close == std::string::npos)
                throw std::runtime_error("unclosed slot in pattern: " + text);
            std::string body = text.substr(pos + 1, close - pos - 1);
            int width = 0;
            size_t colon = body.find(':');
            if (colon != std::string::npos) {
                const std::string wtext = body.substr(colon + 1);
                char* end = nullptr;
                long w = std::strtol(wtext.c_str(), &end, 10);
                if (wtext.empty() || *end != '\0' || w < 1 || w > 255)
                    throw std::runtime_error("bad slot width in pattern: "
                                             + text);
                width = static_cast<int>(w);
                body.resize(colon);
            }
            if (body.empty())
                throw std::runtime_error("empty slot name in pattern: "
                                         + text);
            Element e;
            e.slot = slots.find_or_create(body);
            e.width = width;
            p.slot_mask_ |= 1u << e.slot;
            p.elements_.push_back(std::move(e));
            pos = close + 1;
        } else {
            size_t open = text.find('<', pos);
            if (open == std::string::npos)
                open = text.size();
            Element e;
            e.literal = text.substr(pos, open - pos);
            p.elements_.push_back(std::move(e));
            pos = open;
        }
    }
    if (p.elements_.empty())
        throw std::runtime_error("empty pattern");
    if (p.elements_[0].slot < 0)
        p.table_prefix_ = p.elements_[0].literal;
    return p;
}

bool Pattern::match(Str key, SlotSet& ss) const {
    size_t pos = 0;
    for (size_t e = 0; e < elements_.size(); ++e) {
        const Element& el = elements_[e];
        if (el.slot < 0) {
            if (!key.substr(pos).starts_with(el.literal))
                return false;
            pos += el.literal.size();
        } else {
            size_t len;
            if (el.width > 0) {
                len = static_cast<size_t>(el.width);
            } else if (ss.has(el.slot)) {
                len = ss[el.slot].size();
            } else if (e + 1 < elements_.size()
                       && elements_[e + 1].slot < 0) {
                // Unbounded slot runs to the next literal's first byte.
                size_t end = key.find(elements_[e + 1].literal[0], pos);
                if (end == Str::npos)
                    return false;
                len = end - pos;
            } else {
                len = key.size() - pos;
            }
            if (len == 0 || pos + len > key.size())
                return false;
            if (ss.has(el.slot)) {
                if (key.substr(pos, len) != ss[el.slot])
                    return false;
            } else {
                ss.bind(el.slot, key.substr(pos, len));
            }
            pos += len;
        }
    }
    return pos == key.size();
}

SlotSet Pattern::derive_slot_set(Str lo, Str hi) const {
    // Largest L such that every key in [lo, hi) shares lo's first L
    // bytes: the prefix P = lo[0..L) is constant over the range iff
    // hi <= prefix_successor(P).
    auto constant = [lo, hi](size_t n) {
        std::string bound = prefix_successor(lo.prefix(n));
        // An empty hi means +infinity, where only an infinite bound (all
        // 0xff prefix) keeps the prefix constant.
        return bound.empty() || (!hi.empty() && hi <= Str(bound));
    };
    size_t limit = lo.size();
    while (limit > 0 && !constant(limit))
        --limit;

    // Bind every slot whose span falls entirely inside the constant
    // prefix, walking the pattern along lo. The bindings slice `lo`.
    SlotSet ss;
    size_t pos = 0;
    for (size_t e = 0; e < elements_.size(); ++e) {
        const Element& el = elements_[e];
        size_t end;
        if (el.slot < 0) {
            end = pos + el.literal.size();
            if (end > limit || !lo.substr(pos).starts_with(el.literal))
                break;
        } else {
            if (el.width > 0) {
                end = pos + static_cast<size_t>(el.width);
            } else if (e + 1 < elements_.size()
                       && elements_[e + 1].slot < 0) {
                end = lo.find(elements_[e + 1].literal[0], pos);
                if (end == Str::npos)
                    break;
            } else {
                end = lo.size();
            }
            if (end > limit || end == pos)
                break;
            ss.bind(el.slot, lo.substr(pos, end - pos));
        }
        pos = end;
    }
    return ss;
}

KeyRange Pattern::containing_range(const SlotSet& ss) const {
    std::string prefix;
    for (const Element& el : elements_) {
        if (el.slot < 0) {
            prefix += el.literal;
        } else if (ss.has(el.slot)) {
            Str v = ss[el.slot];
            prefix.append(v.data(), v.size());
        } else {
            return {prefix, prefix_successor(prefix)};
        }
    }
    // Fully bound: the range holding exactly this one key.
    KeyRange r;
    r.hi = prefix;
    r.hi.push_back('\0');
    r.lo = std::move(prefix);
    return r;
}

void Pattern::expand(const SlotSet& ss, KeyBuf& out) const {
    out.clear();
    for (const Element& el : elements_) {
        if (el.slot < 0) {
            out.append(el.literal);
        } else {
            if (!ss.has(el.slot))
                throw std::runtime_error("expand with unbound slot in "
                                         + text_);
            out.append(ss[el.slot]);
        }
    }
}

void Join::parse(const std::string& spec) {
    std::istringstream in(spec);
    std::vector<std::string> tokens;
    for (std::string tok; in >> tok;)
        tokens.push_back(tok);
    if (tokens.size() < 4 || tokens[1] != "=")
        throw std::runtime_error("join spec must look like "
                                 "'<sink> = [pull] check ... copy ...': "
                                 + spec);
    sink_ = Pattern::parse(tokens[0], slots_);
    if (sink_.table_prefix().empty())
        throw std::runtime_error("sink pattern needs a literal table "
                                 "prefix: " + spec);
    size_t i = 2;
    if (tokens[i] == "pull") {
        maintained_ = false;
        ++i;
    }
    while (i < tokens.size()) {
        SourceOp op;
        if (tokens[i] == "check")
            op = SourceOp::kCheck;
        else if (tokens[i] == "copy")
            op = SourceOp::kCopy;
        else
            throw std::runtime_error("expected 'check' or 'copy', got '"
                                     + tokens[i] + "' in: " + spec);
        if (i + 1 >= tokens.size())
            throw std::runtime_error("missing pattern after '" + tokens[i]
                                     + "' in: " + spec);
        sources_.emplace_back(op, Pattern::parse(tokens[i + 1], slots_));
        i += 2;
    }
    if (sources_.empty())
        throw std::runtime_error("join needs at least one source: " + spec);
    // Execution takes the sink value from the last source, so a check
    // source after a copy would silently override the copied value.
    bool saw_copy = false;
    for (const auto& src : sources_) {
        if (src.first == SourceOp::kCopy)
            saw_copy = true;
        else if (saw_copy)
            throw std::runtime_error(
                "check source after a copy source (copy must come last): "
                + spec);
    }
    unsigned bindable = 0;
    for (const auto& src : sources_)
        bindable |= src.second.slot_mask();
    if (sink_.slot_mask() & ~bindable)
        throw std::runtime_error("sink slot not bound by any source: "
                                 + spec);
}

std::vector<std::string> split_join_specs(const std::string& specs) {
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < specs.size()) {
        size_t semi = std::min(specs.find(';', pos), specs.size());
        std::string spec = specs.substr(pos, semi - pos);
        if (spec.find_first_not_of(" \t\n") != std::string::npos)
            out.push_back(std::move(spec));
        pos = semi + 1;
    }
    return out;
}

}  // namespace pequod
