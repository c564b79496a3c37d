// Checked-build invariant machinery (DESIGN.md §11). Every core data
// structure exposes a verify() walker that re-derives its structural
// invariants from scratch and throws InvariantError on the first break.
// The walkers always compile (tests call them directly); building with
// -DPEQUOD_VALIDATE=ON additionally wires them into the mutation paths
// via PQ_AUTOVALIDATE, so sanitizer CI re-checks the treap, the range
// sets, the pool free lists, and the stats accounting after every
// mutating operation instead of only when a test thinks to ask.
//
// Throwing (rather than aborting) keeps deliberate-corruption tests
// cheap: validation_tests breaks one invariant on purpose and asserts
// the walker reports it.
#ifndef PEQUOD_COMMON_VALIDATE_HH
#define PEQUOD_COMMON_VALIDATE_HH

#include <stdexcept>
#include <string>

#include "common/annotate.hh"

namespace pequod {

// A structural invariant does not hold. The message names the structure
// and the first violated invariant.
class InvariantError : public std::logic_error {
  public:
    explicit InvariantError(const std::string& what)
        : std::logic_error(what) {}
};

[[noreturn]] PQ_COLDPATH inline void invariant_fail(
        const char* where, const std::string& detail) {
    // Failure path: allocation cost is irrelevant. pqcheck: allow(hot-string)
    throw InvariantError(std::string(where) + ": " + detail);
}

#if PEQUOD_VALIDATE
inline constexpr bool kValidateBuild = true;
// Run `stmt` (typically a verify() call) after a mutation.
#define PQ_AUTOVALIDATE(stmt) stmt
#else
inline constexpr bool kValidateBuild = false;
#define PQ_AUTOVALIDATE(stmt) ((void)0)
#endif

}  // namespace pequod

#endif
