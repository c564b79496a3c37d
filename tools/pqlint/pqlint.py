#!/usr/bin/env python3
"""pqlint -- ownership and hot-path convention linter for the Pequod tree.

Enforces the conventions DESIGN.md section 8 establishes and section 11
documents, the ones a C++ compiler cannot check for us:

  str-member              A `Str` is a non-owning slice; storing one as a
                          data member is a dangling pointer waiting for its
                          backing buffer to move. Only the sanctioned owner
                          types (OwnedSlots, KeyBuf, Entry), whose contract
                          is exactly "keep the bytes alive next to the
                          slices", may hold Str members.
  hot-string              The write/scan hot path (HOT_DIRS below) must
                          not construct std::string temporaries: no
                          `std::string(...)`, `.substr(...)` or `.str()`
                          -- slice with Str, synthesize keys into KeyBuf
                          instead.
  intervalmap-mutation    Updater IntervalMaps belong to Table; holding a
                          private IntervalMap outside src/core/ bypasses the
                          routing (and the PEQUOD_VALIDATE hooks) that keep
                          the treap and the updater registry consistent.
  transparent-comparator  Keyed std:: containers with std::string keys must
                          accept heterogeneous (Str) probes: ordered
                          containers need std::less<>, unordered ones need
                          StrHash/StrEqual. A non-transparent container
                          forces a std::string allocation per lookup.
  raw-io                  Raw POSIX file I/O (::open, ::write, ::fsync,
                          ::rename, ...) belongs in src/persist/, whose
                          File/dir helpers own the partial-write retry,
                          errno mapping, and fsync-before-rename ordering
                          the durability contract (DESIGN.md section 13)
                          depends on. A stray ::write elsewhere bypasses
                          all of that.

A violation is suppressed by `// pqlint: allow(<rule>)` on the same line
or the line directly above; every suppression is a documented, reviewed
exception, and the report counts them. A suppression that no longer
suppresses anything is itself a violation (stale-suppression): when the
code it excused is fixed or moves away, the comment must go too, or
allow() rot would quietly disable the linter line by line.

When the libclang Python bindings are installed, `--use-libclang` runs the
member-declaration checks on the real AST; without them (the default, and
the only mode in this container) a token-level scanner with comment/string
stripping and class-scope tracking makes the same calls. The token mode is
deliberately conservative: it prefers a missed exotic declaration to a
false positive that teaches people to sprinkle allow() comments.

Exit status: 0 when every violation is suppressed, 1 otherwise, 2 on
usage errors. `--json FILE` writes the machine-readable report.
"""

import argparse
import json
import os
import re
import sys

RULES = ("str-member", "hot-string", "intervalmap-mutation",
         "transparent-comparator", "raw-io", "stale-suppression")

# Types whose whole purpose is owning the bytes their Str members point
# at; Str members inside them are the convention, not a violation.
SANCTIONED_STR_OWNERS = {"OwnedSlots", "KeyBuf", "Entry"}

# Directories (relative to the scan root) whose files form the hot path.
# persist is here because the WAL append rides every acked write; its
# recovery-time and error-path copies carry reviewed allow() comments.
# sub is here because the subscription publisher stabs on every shard put.
HOT_DIRS = ("store", "core", "common", "shard", "persist", "sub")

ALLOW_RE = re.compile(r"pqlint:\s*allow\(([a-z\-,\s]+)\)")


def strip_code(text):
    """Blank out comments and string/char literals, preserving layout.

    Returns (stripped_text, comment_text) where comment_text keeps ONLY
    the comments (for allow() extraction) -- both the same shape as the
    input so line/column arithmetic holds.
    """
    out = []
    comments = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                comments.append("//")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                comments.append("/*")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                comments.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                comments.append(" ")
                i += 1
                continue
            out.append(c)
            comments.append(c if c == "\n" else " ")
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
                comments.append("\n")
            else:
                out.append(" ")
                comments.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                comments.append("*/")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            comments.append(c)
            i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                comments.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; resync rather than cascade
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            comments.append(c if c == "\n" else " ")
            i += 1
    return "".join(out), "".join(comments)


def allow_sets(comment_lines):
    """Per-line sets of rules suppressed by pqlint: allow(...) comments."""
    allows = {}
    for lineno, line in enumerate(comment_lines, 1):
        m = ALLOW_RE.search(line)
        if m:
            allows[lineno] = {r.strip() for r in m.group(1).split(",")}
    return allows


def balanced_angle(text, start):
    """Return the contents of the <...> starting at text[start] == '<'."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return None


def split_template_args(args):
    """Split template args on top-level commas."""
    parts, depth, cur = [], 0, []
    for c in args:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur).strip())
    return parts


class ScopeTracker:
    """Tracks the innermost class/struct name at each brace depth.

    Good enough for this tree: it recognizes `class X ... {` and
    `struct X ... {`, pairs braces, and answers "is this line a
    class-body-level declaration, and of which class?". Function bodies,
    initializer lists, and nested lambdas all push anonymous scopes, so
    locals never look like members.
    """

    CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")

    def __init__(self):
        self.stack = []  # (kind, name) per open brace; kind: class|other
        self.pending = None  # class name seen, brace not yet opened

    def feed(self, line):
        for m in self.CLASS_RE.finditer(line):
            # `struct X;` forward declarations never reach a '{' before
            # the ';' clears them below.
            self.pending = m.group(2)
        for c in line:
            if c == ";" and self.pending is not None and "{" not in line:
                self.pending = None
            if c == "{":
                if self.pending is not None:
                    self.stack.append(("class", self.pending))
                    self.pending = None
                else:
                    self.stack.append(("other", None))
            elif c == "}":
                if self.stack:
                    self.stack.pop()

    def enclosing_class(self):
        """Name of the class whose body we are directly inside, or None."""
        if self.stack and self.stack[-1][0] == "class":
            return self.stack[-1][1]
        return None


STR_MEMBER_RE = re.compile(
    r"^\s*(?:static\s+|constexpr\s+|const\s+|mutable\s+)*"
    r"(Str|std::array\s*<\s*Str\b[^;]*>)\s+"
    r"([A-Za-z_]\w*)\s*(?:;|=|\{[^}]*\}\s*;)")


def check_str_member(path, stripped_lines):
    """Str (or std::array<Str, N>) data members outside sanctioned owners."""
    tracker = ScopeTracker()
    for lineno, line in enumerate(stripped_lines, 1):
        cls = None
        m = STR_MEMBER_RE.match(line)
        # Member declarations carry no parens; `Str prefix() const` and
        # parameters never match. Classify the scope BEFORE feeding the
        # line so its own braces don't shift the answer.
        if m and "(" not in line:
            cls = tracker.enclosing_class()
            if cls is not None and cls not in SANCTIONED_STR_OWNERS:
                yield (lineno, "str-member",
                       "class %s holds a non-owning Str member '%s'; move "
                       "the bytes into an owner (OwnedSlots/KeyBuf) or "
                       "sanction this type" % (cls, m.group(2)))
        tracker.feed(line)


HOT_STRING_RES = (
    (re.compile(r"\bstd::string\s*\("), "std::string(...) temporary"),
    (re.compile(r"\.\s*substr\s*\("), ".substr() allocates a copy"),
    (re.compile(r"\.\s*str\s*\(\s*\)"), ".str() materializes the slice"),
)


def check_hot_string(path, rel, stripped_lines):
    """Allocating string operations inside the hot-path directories."""
    parts = rel.split(os.sep)
    if len(parts) < 2 or parts[0] not in HOT_DIRS:
        return
    for lineno, line in enumerate(stripped_lines, 1):
        for pattern, what in HOT_STRING_RES:
            if pattern.search(line):
                yield (lineno, "hot-string",
                       "%s in hot-path file; slice with Str / build into "
                       "KeyBuf instead" % what)


def check_intervalmap(path, rel, stripped_lines):
    """IntervalMap instances declared outside the structure and Table."""
    parts = rel.split(os.sep)
    if rel.endswith(os.path.join("common", "interval_map.hh")):
        return
    if parts and parts[0] == "core":
        return  # Table owns the updater maps; Server routes through it
    decl = re.compile(r"\bIntervalMap\s*<")
    for lineno, line in enumerate(stripped_lines, 1):
        if decl.search(line):
            yield (lineno, "intervalmap-mutation",
                   "IntervalMap held outside src/core/ mutates outside "
                   "Table's routing; go through Table::updaters() or "
                   "sanction this instance")


# A global-namespace call to a POSIX I/O primitive. The negative
# lookbehind keeps qualified names (Server::write, File::read_only) from
# matching: those have an identifier or template '>' before the '::'.
RAW_IO_RE = re.compile(
    r"(?<![\w>])::(open|close|read|write|pread|pwrite|fsync|fdatasync"
    r"|ftruncate|unlink|rename|mkdir)\s*\(")


def check_raw_io(path, rel, stripped_lines):
    """Raw POSIX I/O calls outside the durability tier."""
    parts = rel.split(os.sep)
    if parts and parts[0] == "persist":
        return  # the File/dir helpers are the sanctioned home
    for lineno, line in enumerate(stripped_lines, 1):
        m = RAW_IO_RE.search(line)
        if m:
            yield (lineno, "raw-io",
                   "raw ::%s() outside src/persist/; go through "
                   "persist::File / the persist dir helpers so the "
                   "durability ordering rules hold" % m.group(1))


CONTAINER_RE = re.compile(r"\bstd::(map|set|unordered_map|unordered_set)\s*<")


def check_transparent(path, stripped_text, line_starts):
    """string-keyed std:: containers without heterogeneous lookup."""
    for m in CONTAINER_RE.finditer(stripped_text):
        kind = m.group(1)
        args_text = balanced_angle(stripped_text, m.end() - 1)
        if args_text is None:
            continue
        args = split_template_args(args_text)
        key = args[0]
        if key not in ("std::string", "string"):
            continue
        rest = args[1:]
        if kind == "map":
            rest = rest[1:]  # skip mapped type
        if kind in ("map", "set"):
            ok = any("less<>" in a.replace(" ", "") for a in rest)
            need = "std::less<>"
        else:
            ok = any("StrHash" in a for a in rest)
            need = "StrHash/StrEqual"
        if not ok:
            lineno = line_of(line_starts, m.start())
            yield (lineno, "transparent-comparator",
                   "std::%s keyed by std::string without %s: every Str "
                   "probe allocates a key copy" % (kind, need))


def line_of(line_starts, offset):
    lo, hi = 0, len(line_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def lint_file(path, root):
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    stripped, comments = strip_code(text)
    stripped_lines = stripped.split("\n")
    allows = allow_sets(comments.split("\n"))
    line_starts = [0]
    for i, c in enumerate(stripped):
        if c == "\n":
            line_starts.append(i + 1)

    found = []
    found.extend(check_str_member(path, stripped_lines))
    found.extend(check_hot_string(path, rel, stripped_lines))
    found.extend(check_intervalmap(path, rel, stripped_lines))
    found.extend(check_transparent(path, stripped, line_starts))
    found.extend(check_raw_io(path, rel, stripped_lines))

    results = []
    used_allows = {}  # line of the allow() comment -> rules it suppressed
    for lineno, rule, message in found:
        sup_line = None
        if rule in allows.get(lineno, ()):
            sup_line = lineno
        elif rule in allows.get(lineno - 1, ()):
            sup_line = lineno - 1
        if sup_line is not None:
            used_allows.setdefault(sup_line, set()).add(rule)
        results.append({
            "file": rel.replace(os.sep, "/"),
            "line": lineno,
            "rule": rule,
            "message": message,
            "suppressed": sup_line is not None,
        })

    # Stale suppressions: every rule named in an allow() must have
    # suppressed at least one finding on its line or the line below.
    for lineno in sorted(allows):
        for rule in sorted(allows[lineno]):
            if rule not in RULES or rule == "stale-suppression":
                continue
            if rule not in used_allows.get(lineno, set()):
                results.append({
                    "file": rel.replace(os.sep, "/"),
                    "line": lineno,
                    "rule": "stale-suppression",
                    "message": "allow(%s) suppresses nothing; delete the "
                               "dead exemption" % rule,
                    "suppressed": False,
                })
    return results


def try_libclang():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", help="source root to lint (e.g. src)")
    ap.add_argument("--json", metavar="FILE",
                    help="write the machine-readable report here")
    ap.add_argument("--use-libclang", action="store_true",
                    help="use libclang AST checks when the bindings exist")
    args = ap.parse_args(argv)

    if not os.path.isdir(args.root):
        print("pqlint: not a directory: %s" % args.root, file=sys.stderr)
        return 2

    if args.use_libclang and not try_libclang():
        print("pqlint: libclang bindings unavailable; "
              "falling back to token mode", file=sys.stderr)

    violations = []
    for dirpath, _dirnames, filenames in os.walk(args.root):
        for name in sorted(filenames):
            if name.endswith((".hh", ".h", ".cc", ".cpp")):
                violations.extend(
                    lint_file(os.path.join(dirpath, name), args.root))
    violations.sort(key=lambda v: (v["file"], v["line"], v["rule"]))

    active = [v for v in violations if not v["suppressed"]]
    suppressed = [v for v in violations if v["suppressed"]]

    if args.json:
        report = {
            "root": args.root,
            "rules": list(RULES),
            "violations": violations,
            "active_count": len(active),
            "suppressed_count": len(suppressed),
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    for v in active:
        print("%s:%d: [%s] %s" % (v["file"], v["line"], v["rule"],
                                  v["message"]))
    print("pqlint: %d violation(s), %d suppression(s) across %s"
          % (len(active), len(suppressed), args.root))
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
