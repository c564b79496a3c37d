#!/usr/bin/env python3
"""pqcheck -- convention linter and call-graph analyzer for the Pequod tree.

Checks the invariants of DESIGN.md sections 8, 11, 12 and 13 that a C++
compiler cannot. One parse of the tree feeds three rule families
(contracts in DESIGN.md sections 11 and 14; rule table in README.md):

  token rules       str-member, hot-string, intervalmap-mutation,
                    transparent-comparator, raw-io: per-line checks over
                    comment/string-stripped source with a class-scope
                    tracker.
  call-graph rules  owner-confinement, flush-before-ack, rename-sync,
                    no-alloc, str-escape: paths through a cross-TU call
                    graph built from the PQ_* annotations of
                    common/annotate.hh.
  unreachable       every function with a body under --root that no
                    root reaches. The roots are every name the compdb's
                    TUs outside --root (bench mains, test cases) or the
                    perfbench/*.cc|*.hh files next to --root mention, and
                    without a compdb the mains under --root. A tree with
                    no root is not checked.

A finding is suppressed by `// pqcheck: allow(<rule>)` on the same line
or the line directly above, and every suppression is counted. An allow()
that suppresses nothing, or names no rule, is itself a violation
(stale-suppression), so dead exemptions cannot accumulate.

  python3 tools/pqcheck/pqcheck.py --root src \\
      --compdb build/compile_commands.json --json report.json

--compdb also cross-checks that every TU the build compiles under --root
is analyzed. Exit status: 0 when every finding is suppressed, 1
otherwise, 2 on usage errors.
"""

import argparse
import bisect
import json
import os
import re
import sys

TOKEN_RULES = ("str-member", "hot-string", "intervalmap-mutation",
               "transparent-comparator", "raw-io")
RULES = ("owner-confinement", "flush-before-ack", "rename-sync",
         "no-alloc", "str-escape") + TOKEN_RULES + (
             "unreachable", "stale-suppression")

ALLOW_RE = re.compile(r"pqcheck:\s*allow\(([a-z\-,\s]+)\)")

# ---- token rules ------------------------------------------------------------

# Types whose whole purpose is owning the bytes their Str members point
# at; Str members inside them are the convention, not a violation.
SANCTIONED_STR_OWNERS = {"OwnedSlots", "KeyBuf", "Entry"}

# Directories (relative to the scan root) whose files form the hot path.
# persist is here because the WAL append rides every acked write; its
# recovery-time and error-path copies carry reviewed allow() comments.
# sub is here because the subscription publisher stabs on every shard put.
HOT_DIRS = ("store", "core", "common", "shard", "persist", "sub")


# The next token that leaves plain code, and, per literal kind, the next
# character that can end (or escape within) the literal.
CODE_EXIT_RE = re.compile(r"//|/\*|[\"']")
LITERAL_STOP_RE = {'"': re.compile(r'[\\"\n]'), "'": re.compile(r"[\\'\n]")}
NON_NEWLINE_RE = re.compile(r"[^\n]")


def _blank(text):
    """`text` with every character but newlines turned into a space."""
    if "\n" not in text:
        return " " * len(text)
    return NON_NEWLINE_RE.sub(" ", text)


def strip_code(text):
    """Blank out comments and string/char literals, preserving layout.

    Returns (stripped_text, comment_text) where comment_text keeps ONLY
    the comments (for allow() extraction) -- both the same shape as the
    input so line/column arithmetic holds. Works a run at a time: each
    regex search jumps to the next character that can change state.
    """
    out = []
    comments = []
    i, n = 0, len(text)
    while i < n:
        m = CODE_EXIT_RE.search(text, i)
        end = m.start() if m else n
        code = text[i:end]
        out.append(code)
        comments.append(_blank(code))
        if not m:
            break
        tok = m.group()
        i = m.end()
        if tok == "//":
            out.append("  ")
            comments.append("//")
            nl = text.find("\n", i)
            stop = n if nl < 0 else nl
            body = text[i:stop]
            out.append(" " * len(body))
            comments.append(body)
            if nl >= 0:
                out.append("\n")
                comments.append("\n")
                stop += 1
            i = stop
        elif tok == "/*":
            out.append("  ")
            comments.append("/*")
            close = text.find("*/", i)
            stop = n if close < 0 else close
            body = text[i:stop]
            out.append(_blank(body))
            comments.append(body)
            if close >= 0:
                out.append("  ")
                comments.append("*/")
                stop += 2
            i = stop
        else:  # a string or char literal
            out.append(tok)
            comments.append(" ")
            stop_re = LITERAL_STOP_RE[tok]
            while i < n:
                e = stop_re.search(text, i)
                stop = n if e is None else e.start()
                out.append(" " * (stop - i))
                comments.append(" " * (stop - i))
                i = stop
                if e is None:
                    break
                c = e.group()
                if c == "\\":
                    out.append("  ")
                    comments.append("  ")
                    i += 2
                    continue
                # The closing quote, or an unterminated literal's newline,
                # where it resyncs rather than cascading.
                out.append(c)
                comments.append("\n" if c == "\n" else " ")
                i += 1
                break
    return "".join(out), "".join(comments)


def allow_sets(comment_lines):
    """Per-line sets of rules named by pqcheck: allow(...) comments."""
    allows = {}
    for lineno, line in enumerate(comment_lines, 1):
        m = ALLOW_RE.search(line)
        if m:
            allows[lineno] = {r.strip() for r in m.group(1).split(",")}
    return allows


class ScopeTracker:
    """Tracks the innermost class/struct name at each brace depth.

    Good enough for this tree: it recognizes `class X ... {` and
    `struct X ... {`, pairs braces, and answers "is this line a
    class-body-level declaration, and of which class?". Function bodies,
    initializer lists, and nested lambdas all push anonymous scopes, so
    locals never look like members.
    """

    CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")
    BRACE_RE = re.compile(r"[;{}]")

    def __init__(self):
        self.stack = []  # (kind, name) per open brace; kind: class|other
        self.pending = None  # class name seen, brace not yet opened

    def feed(self, line):
        if "class" in line or "struct" in line:
            for m in self.CLASS_RE.finditer(line):
                # `struct X;` forward declarations never reach a '{'
                # before the ';' clears them below.
                self.pending = m.group(2)
        for c in self.BRACE_RE.findall(line):
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


def check_str_member(stripped_lines):
    """Str (or std::array<Str, N>) data members outside sanctioned owners."""
    tracker = ScopeTracker()
    for lineno, line in enumerate(stripped_lines, 1):
        cls = None
        m = STR_MEMBER_RE.match(line) if "Str" in line else None
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


def check_hot_string(rel, stripped_lines):
    """Allocating string operations inside the hot-path directories."""
    parts = rel.split("/")
    if len(parts) < 2 or parts[0] not in HOT_DIRS:
        return
    for lineno, line in enumerate(stripped_lines, 1):
        if "str" not in line:
            continue  # every pattern below spells it
        for pattern, what in HOT_STRING_RES:
            if pattern.search(line):
                yield (lineno, "hot-string",
                       "%s in hot-path file; slice with Str / build into "
                       "KeyBuf instead" % what)


def check_intervalmap(rel, stripped_lines):
    """IntervalMap instances declared outside the structure and Table."""
    parts = rel.split("/")
    if rel.endswith("common/interval_map.hh"):
        return
    if parts and parts[0] == "core":
        return  # Table owns the updater maps; Server routes through it
    decl = re.compile(r"\bIntervalMap\s*<")
    for lineno, line in enumerate(stripped_lines, 1):
        if "IntervalMap" in line and decl.search(line):
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


def check_raw_io(rel, stripped_lines):
    """Raw POSIX I/O calls outside the durability tier."""
    parts = rel.split("/")
    if parts and parts[0] == "persist":
        return  # the File/dir helpers are the sanctioned home
    for lineno, line in enumerate(stripped_lines, 1):
        m = RAW_IO_RE.search(line) if "::" in line else None
        if m:
            yield (lineno, "raw-io",
                   "raw ::%s() outside src/persist/; go through "
                   "persist::File / the persist dir helpers so the "
                   "durability ordering rules hold" % m.group(1))


CONTAINER_RE = re.compile(r"\bstd::(map|set|unordered_map|unordered_set)\s*<")


def check_transparent(stripped_text, line_starts):
    """string-keyed std:: containers without heterogeneous lookup."""
    for m in CONTAINER_RE.finditer(stripped_text):
        kind = m.group(1)
        end = match_close(stripped_text, m.end() - 1, "<", ">")
        if end < 0:
            continue
        args = [a.strip() for a in
                split_top_commas(stripped_text[m.end():end])]
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
    return bisect.bisect_right(line_starts, offset)


def token_findings(rel, stripped, line_starts):
    """(rel, line, rule, message) for the token rules over one file."""
    lines = stripped.split("\n")
    found = []
    found.extend(check_str_member(lines))
    found.extend(check_hot_string(rel, lines))
    found.extend(check_intervalmap(rel, lines))
    found.extend(check_transparent(stripped, line_starts))
    found.extend(check_raw_io(rel, lines))
    return [(rel,) + f for f in found]


# Annotation macro -> canonical tag (see common/annotate.hh).
ANNOTATIONS = {
    "PQ_REQUIRES_OWNER": "requires_owner",
    "PQ_WORKER_CONTEXT": "worker_context",
    "PQ_CLIENT_CONTEXT": "client_context",
    "PQ_QUIESCENT_CONTEXT": "quiescent_context",
    "PQ_NOALLOC": "noalloc",
    "PQ_COLDPATH": "coldpath",
    "PQ_RELEASES_ACK": "releases_ack",
    "PQ_FLUSHES_WAL": "flushes_wal",
}

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "throw",
    "new", "delete", "do", "else", "case", "default", "goto", "break",
    "continue", "static_assert", "alignas", "alignof", "decltype",
    "noexcept", "typeid", "assert", "defined", "static_cast",
    "const_cast", "reinterpret_cast", "dynamic_cast", "co_return",
    "co_await", "co_yield", "using", "typedef", "template", "typename",
    "operator", "requires",
}

# Directory scoping (first path component under the analysis root).
ACK_DIRS = ("shard", "distrib")
RENAME_DIR = "persist"

# Unresolved calls that allocate, or may grow a std:: container. A call
# resolving to a repo function is walked instead of name-matched.
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "strdup", "make_unique", "make_shared",
    "to_string", "str", "stoi", "stoull", "substr",
}
GROWTH_CALLS = {
    "push_back", "emplace_back", "emplace", "emplace_hint", "insert",
    "insert_or_assign", "resize", "reserve", "append", "assign",
    "push_front", "emplace_front",
}
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new T`, `new T[n]`, `new T{...}`
# A std::string temporary or a named construction (`std::string x(...)`,
# `std::string x{...}`); `\b` keeps std::string_view out.
STD_STRING_CTOR_RE = re.compile(
    r"\bstd::string\b\s*(?:[A-Za-z_]\w*\s*)?[({]")

# Methods a std:: container calls on an allocator named in its
# template arguments, which no source line spells as a call.
ALLOCATOR_METHODS = ("allocate", "deallocate")
# Functions that append to the WAL (journaling events for the
# self-flushing releaser check).
JOURNAL_NAMES = {"append_put", "append_erase", "log_put"}
# Event names accepted as a data-file sync for rename-sync.
SYNC_NAMES = {"fsync", "sync_dir", "fdatasync"}


class Call:
    __slots__ = ("name", "cls", "chain", "pos", "line")

    def __init__(self, name, cls, chain, pos, line):
        self.name = name
        self.cls = cls      # explicit X:: qualifier, or None
        self.chain = chain  # receiver tokens for obj.member->name(), or
        self.pos = pos      # None for a plain call; offset within body
        self.line = line    # absolute line in the file


class Func:
    __slots__ = ("name", "cls", "qname", "rel", "line", "anns", "ret",
                 "params", "body", "body_line0", "calls", "refs",
                 "_locals")

    def __init__(self, **kw):
        self._locals = None
        for k, v in kw.items():
            setattr(self, k, v)

    def __repr__(self):
        return "<Func %s %s:%d>" % (self.qname, self.rel, self.line)

    def local_types(self):
        """name -> declared type string, for params and body locals."""
        if self._locals is None:
            types = {}
            for part in split_top_commas(self.params):
                m = DECL_RE.match(part.strip())
                if m:
                    types[m.group(2)] = m.group(1)
            for m in LOCAL_DECL_RE.finditer(self.body):
                if m.group(1) in KEYWORDS or m.group(2) in KEYWORDS:
                    continue  # `return foo;` is not a declaration
                types.setdefault(m.group(2), m.group(1))
            self._locals = types
        return self._locals


# `Type name`, with the type possibly templated / ref / pointer.
CVQUAL = r"(?:(?:const|mutable|static|constexpr|inline|volatile)\s+)*"
DECL_RE = re.compile(
    CVQUAL + r"([A-Za-z_][\w:]*(?:<[^<>;(){}]{0,120}>)?)"
    r"\s*[*&]*\s+([A-Za-z_]\w*)\s*(?:=.*)?$", re.S)
LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}])\s*" + CVQUAL +
    r"([A-Za-z_][\w:]*(?:<[^<>;(){}]{0,120}>)?)"
    r"\s*[*&]*\s+([a-z_]\w*)\s*[=;(]")


def split_top_commas(text):
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# ---- parser: functions, classes and calls ----------------------------------

CLASS_HEAD_RE = re.compile(r"\b(class|struct)\b")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\s+([A-Za-z_]\w*)?\s*$")
CAND_RE = re.compile(
    r"(?:(?P<qual>(?:[A-Za-z_]\w*\s*::\s*)+))?"
    r"(?P<name>~?[A-Za-z_]\w*)\s*(?:<[^<>();]{0,80}>)?\s*\(")
TAIL_RE = re.compile(
    r"^\s*(?:(?:const|noexcept(?:\s*\([^()]*\))?|override|final|mutable"
    r"|&&?|try|PQ_[A-Z_]+(?:\s*\([^()]*\))?)\s*)*"
    r"(?:->\s*[\w:<>,\s&*]+?)?\s*(?::[\s\S]*)?$")
PQ_MACRO_RE = re.compile(r"\bPQ_[A-Z_]+\b")
IDENT_RE = re.compile(r"~?[A-Za-z_]\w*")


def head_class_name(head):
    """The declared name in a class/struct head, or None."""
    m = CLASS_HEAD_RE.search(head)
    if m is None or re.search(r"\benum\b", head[:m.start()]):
        return None
    rest = head[m.end():]
    # Cut the base-clause; what remains is the name possibly wrapped in
    # attribute macros (stripped literals leave empty parens).
    rest = rest.split(":")[0]
    rest = re.sub(r"\([^()]*\)", " ", rest)
    names = [t for t in re.findall(r"[A-Za-z_]\w*", rest)
             if not t.startswith("PQ_") and t not in ("final", "alignas")]
    return names[-1] if names else None


BRACKET_RES = {pair: re.compile("[%s]" % re.escape(pair))
               for pair in ("()", "{}", "<>")}


def match_close(text, open_pos, opener, closer):
    """Index of the `closer` balancing text[open_pos] == opener, or -1."""
    depth = 0
    for m in BRACKET_RES[opener + closer].finditer(text, open_pos):
        if m.group() == opener:
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


def parse_head_function(head):
    """(qual, name, open, close, annotations) for a function head."""
    if re.search(r"=\s*$", head):
        return None
    anns = {ANNOTATIONS[m] for m in PQ_MACRO_RE.findall(head)
            if m in ANNOTATIONS}
    for m in CAND_RE.finditer(head):
        name = m.group("name")
        if name in KEYWORDS or name.startswith("PQ_"):
            continue
        if "operator" in head[max(0, m.start() - 12):m.start()]:
            return ("", "operator?", m.start(), len(head) - 1, anns)
        open_pos = head.index("(", m.end() - 1)
        close = match_close(head, open_pos, "(", ")")
        if close < 0:
            continue
        tail = head[close + 1:]
        if not TAIL_RE.match(tail):
            continue
        qual = re.sub(r"\s+", "", m.group("qual") or "")
        if qual.endswith("::"):
            qual = qual[:-2]
        return (qual, name, open_pos, close, anns)
    return None


PARSE_STOP_RE = re.compile(r"[(){};]")
USING_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+)$")


def parse_file(rel, stripped, line_starts):
    """Parse one stripped file into functions, annotations, and types."""
    def at(off):
        return line_of(line_starts, off)

    funcs = []
    decl_anns = {}  # qname -> set of annotations (declarations only)
    members = {}    # class -> {member name: type string}
    aliases = {}    # class-or-"" -> {alias: type string}
    scope = []      # (kind, name)

    def cur_class():
        return scope[-1][1] if scope and scope[-1][0] == "class" else None

    i, n = 0, len(stripped)
    head_start = 0
    paren_depth = 0
    while i < n:
        # Only these characters move the parser; jump between them.
        m = PARSE_STOP_RE.search(stripped, i)
        if m is None:
            break
        i = m.start()
        c = stripped[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == ";" and paren_depth == 0:
            head = stripped[head_start:i]
            um = USING_RE.search(head.strip())
            sig = parse_head_function(head) if "(" in head else None
            if um:
                aliases.setdefault(cur_class() or "", {})[
                    um.group(1)] = um.group(2).strip()
            elif sig is not None:
                qual, name, _o, _c, anns = sig
                if anns:
                    cls = qual.split("::")[-1] if qual else cur_class()
                    qname = "%s::%s" % (cls, name) if cls else name
                    decl_anns.setdefault(qname, set()).update(anns)
            elif cur_class():
                dm = DECL_RE.match(head.strip())
                if dm and dm.group(1) not in ("return", "delete",
                                              "typedef", "friend"):
                    members.setdefault(cur_class(), {})[
                        dm.group(2)] = dm.group(1)
            head_start = i + 1
        elif c == "{" and paren_depth == 0:
            head = stripped[head_start:i]
            nsm = NAMESPACE_HEAD_RE.search(head)
            cls_name = head_class_name(head)
            sig = None if (nsm or cls_name) else parse_head_function(head)
            if nsm:
                scope.append(("namespace", nsm.group(1) or ""))
            elif cls_name:
                scope.append(("class", cls_name))
                members.setdefault(cls_name, {})
            elif sig is not None:
                qual, name, open_pos, close_pos, anns = sig
                end = match_close(stripped, i, "{", "}")
                if end < 0:
                    end = n - 1
                body = stripped[i + 1:end]
                cls = qual.split("::")[-1] if qual else cur_class()
                qname = "%s::%s" % (cls, name) if cls else name
                ret = head[:CAND_RE.search(head).start()] \
                    if CAND_RE.search(head) else head
                if name != "operator?":
                    # A ctor's member-initializer list runs with its body.
                    refs = set(IDENT_RE.findall(head[close_pos + 1:]))
                    funcs.append(Func(
                        name=name, cls=cls, qname=qname, rel=rel,
                        line=at(head_start + _first_code(head)),
                        anns=anns, ret=ret.strip(),
                        params=head[open_pos + 1:close_pos],
                        body=body, body_line0=at(i + 1),
                        calls=extract_calls(body, i + 1, at),
                        refs=refs | set(IDENT_RE.findall(body))))
                i = end + 1
                head_start = i
                continue
            else:
                scope.append(("other", ""))
            head_start = i + 1
        elif c == "}":
            if scope:
                scope.pop()
            head_start = i + 1
        i += 1
    return funcs, decl_anns, members, aliases


def _first_code(head):
    """Offset of the head's first token, skipping preprocessor lines."""
    m = re.search(r"^[ \t]*([^\s#])", head, re.M)
    return m.start(1) if m else 0


SPACE_RE = re.compile(r"\s+")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
CHAIN_RE = re.compile(
    r"((?:(?:[A-Za-z_]\w*|\))(?:\[[^][]{0,80}\])?\s*(?:\.|->)\s*)+)$")


def _chain_floor(body, end):
    """A position no CHAIN_RE match ending at `end` can start before.

    A chain holds only identifier characters, whitespace, `.`, `->`,
    `)` and `[...]` subscripts of at most 80 bracket-free characters, so
    any other character with no `[` in the 80 before it bounds the
    chain. Searching from here finds the same leftmost match as
    searching the whole prefix, without rescanning it on every call."""
    i = end
    while i > 0:
        i -= 1
        c = body[i]
        if c.isalnum() or c.isspace() or c in "_.->)[]":
            continue
        if "[" not in body[max(0, i - 80):i]:
            return i + 1
    return 0


def extract_calls(body, body_off, at):
    calls = []
    for m in CAND_RE.finditer(body):
        name = m.group("name")
        if name in KEYWORDS or name.startswith("PQ_"):
            continue
        qual = m.group("qual")
        qual = SPACE_RE.sub("", qual) if qual else ""
        start = m.start()
        prev = start
        while prev > 0 and body[prev - 1].isspace():
            prev -= 1
        last = body[prev - 1] if prev else ""
        chain = None
        # A receiver chain ends in `.` or `->` before the name.
        cm = CHAIN_RE.search(body, _chain_floor(body, start), start) \
            if last in (".", ">") else None
        if cm is not None:
            # Receiver tokens, outermost first; a ')' link (chained call
            # returns) makes the receiver type unknowable here.
            if ")" in cm.group(1):
                chain = []
            else:
                chain = WORD_RE.findall(cm.group(1))
        if chain is None and not qual:
            # `Type name(args)` is a declaration, not a call: the token
            # before the name is a bare identifier/'>' with no operator.
            if last and (last == ">" or last.isalnum() or last == "_"):
                if _ends_in_identifier(body, prev):
                    continue
                if last == ">":
                    continue
        cls = qual.split("::")[-2] if qual.endswith("::") else (
            qual.split("::")[-1] if qual else None)
        if cls in ("std", "net", "persist", "shard", "distrib", "pequod",
                   "compare", ""):
            cls = None
        calls.append(Call(name, cls, chain, start, at(body_off + start)))
    return calls


def _ends_in_identifier(body, end):
    """Whether body[:end] ends in an identifier that is not a keyword."""
    i = end
    while i > 0 and (body[i - 1].isalnum() or body[i - 1] == "_"):
        i -= 1
    # The identifier starts at the first ASCII letter or '_' of the run.
    while i < end and not (body[i] == "_" or ("a" <= body[i].lower() <= "z"
                                              and body[i].isascii())):
        i += 1
    return i < end and body[i:end] not in KEYWORDS


# ---- program / call graph ---------------------------------------------------

SMART_PTR_RE = re.compile(
    r"^(?:std\s*::\s*)?(?:unique_ptr|shared_ptr)\s*<\s*(.+?)\s*>?\s*$")
INDEXABLE_RE = re.compile(
    r"^(?:std\s*::\s*)?(?:vector|deque|array)\s*<\s*(.+?)\s*(?:,.*)?>?\s*$")


class Program:
    def __init__(self):
        self.funcs = []
        self.by_name = {}
        self.anns = {}         # qname -> set
        self.members = {}      # class -> {member: type string}
        self.aliases = {}      # class-or-"" -> {alias: type string}
        self.classes = set()
        self.file_allows = {}  # rel -> {line: set(rules)}
        self.token_found = []  # token-rule findings
        self.root_refs = set()  # identifiers the TUs outside the root name
        self._callers = None   # reverse call graph, built on first use

    def add_root_file(self, path):
        """A TU outside the root only seeds reachability: no rule runs
        over it, and every identifier it names is a root reference."""
        with open(path, encoding="utf-8", errors="replace") as f:
            self.root_refs.update(IDENT_RE.findall(strip_code(f.read())[0]))

    def add_file(self, path, root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            stripped, comments = strip_code(f.read())
        line_starts = [0] + [m.end() for m in re.finditer("\n", stripped)]
        funcs, decl_anns, members, aliases = \
            parse_file(rel, stripped, line_starts)
        self.token_found.extend(token_findings(rel, stripped, line_starts))
        self.file_allows[rel] = allow_sets(comments.split("\n"))
        self.funcs.extend(funcs)
        for f in funcs:
            self.by_name.setdefault(f.name, []).append(f)
            if f.cls:
                self.classes.add(f.cls)
            if f.anns:
                self.anns.setdefault(f.qname, set()).update(f.anns)
        for qname, anns in decl_anns.items():
            self.anns.setdefault(qname, set()).update(anns)
        for cls, mem in members.items():
            self.classes.add(cls)
            self.members.setdefault(cls, {}).update(mem)
        for cls, al in aliases.items():
            self.aliases.setdefault(cls, {}).update(al)

    def finish(self):
        for f in self.funcs:
            f.anns = set(f.anns) | self.anns.get(f.qname, set())

    def ann(self, f, tag):
        return tag in f.anns

    def class_of_type(self, tstr, ctx_class, depth=0):
        """Map a declared type string to a repo class name, or None."""
        if not tstr or depth > 4:
            return None
        t = re.sub(r"\b(?:const|mutable|volatile)\b", " ", tstr)
        t = t.strip(" *&\t\n")
        sp = SMART_PTR_RE.match(t)
        if sp:
            return self.class_of_type(sp.group(1), ctx_class, depth + 1)
        for scope in (ctx_class or "", ""):
            alias = self.aliases.get(scope, {}).get(t)
            if alias:
                return self.class_of_type(alias, ctx_class, depth + 1)
        base = t.split("<")[0].strip()
        name = base.split("::")[-1].strip()
        return name if name in self.classes else None

    def element_class(self, tstr, ctx_class):
        """Element type of an indexable container, through []."""
        t = re.sub(r"\b(?:const|mutable|volatile)\b", " ",
                   tstr or "").strip(" *&\t\n")
        for scope in (ctx_class or "", ""):
            alias = self.aliases.get(scope, {}).get(t)
            if alias:
                t = alias.strip()
        m = INDEXABLE_RE.match(t)
        if m:
            return self.class_of_type(m.group(1), ctx_class)
        return self.class_of_type(t, ctx_class)

    def chain_class(self, caller, chain):
        """Receiver class of an obj.member->method() chain.

        Returns the class name; "" when the receiver's declared type is
        known but is not a repo class (a std:: container, say) — its
        methods are definitively not ours; None when the receiver could
        not be typed at all."""
        if not chain:
            return None
        first = chain[0]
        if first == "this":
            cur = caller.cls
        else:
            tstr = caller.local_types().get(first)
            if tstr is None and caller.cls:
                tstr = self.members.get(caller.cls, {}).get(first)
            if tstr is None:
                return None
            cur = self.element_class(tstr, caller.cls) or ""
        for tok in chain[1:]:
            if cur == "":
                return ""
            tstr = self.members.get(cur, {}).get(tok)
            if tstr is None:
                return None
            cur = self.element_class(tstr, cur) or ""
        return cur

    def resolve(self, caller, call):
        """Candidate definitions for a call site.

        Typed where possible; deliberately empty (not all-candidates)
        when a method receiver is ambiguous, so one shared method name
        cannot weld unrelated subsystems into every closure. The rules
        compensate with annotated-name fallbacks for their own small
        vocabularies (flush/journal/release/owner)."""
        cands = self.by_name.get(call.name, [])
        if not cands:
            return []
        if call.cls:
            return [f for f in cands if f.cls == call.cls]
        if call.chain is not None:
            cls = self.chain_class(caller, call.chain)
            if cls:
                return [f for f in cands if f.cls == cls]
            if cls == "":
                return []  # receiver is typed and foreign (std:: etc.)
            classes = {f.cls for f in cands if f.cls}
            if len(classes) == 1:
                return [f for f in cands if f.cls]
            return []
        if caller.cls:
            same = [f for f in cands if f.cls == caller.cls]
            if same:
                return same
        free = [f for f in cands if f.cls is None]
        if free:
            return free
        classes = {f.cls for f in cands if f.cls}
        if len(classes) == 1:
            return cands
        return []

    def callees(self, f):
        out = []
        for c in f.calls:
            out.extend(self.resolve(f, c))
        return out

    def reverse_calls(self):
        """callee -> its callers, resolved once and cached."""
        if self._callers is None:
            self._callers = {}
            for f in self.funcs:
                for g in self.callees(f):
                    self._callers.setdefault(g, []).append(f)
        return self._callers


def transitive_reachers(program, targets):
    """Set of funcs that can reach (or are) one of `targets`."""
    callers = program.reverse_calls()
    reach = set(targets)
    stack = list(reach)
    while stack:
        for f in callers.get(stack.pop(), ()):
            if f not in reach:
                reach.add(f)
                stack.append(f)
    return reach


# ---- call-graph rules -------------------------------------------------------

def rule_owner_confinement(program):
    """Paths from client contexts into owner-required functions."""
    roots = [f for f in program.funcs if program.ann(f, "client_context")]
    findings = []
    seen_edges = set()
    for root in roots:
        stack = [(root, (root.qname,))]
        visited = {root.qname}
        while stack:
            f, path = stack.pop()
            for call in f.calls:
                for g in program.resolve(f, call):
                    if "requires_owner" in g.anns:
                        edge = (f.qname, call.line, g.qname)
                        if edge in seen_edges:
                            continue
                        seen_edges.add(edge)
                        findings.append((
                            f.rel, call.line, "owner-confinement",
                            "client-context path %s reaches "
                            "owner-required %s without a mailbox or "
                            "quiescent boundary; post a frame instead "
                            "or annotate the hand-off"
                            % (" -> ".join(path + (g.qname,)), g.qname)))
                        continue
                    if ("worker_context" in g.anns
                            or "quiescent_context" in g.anns):
                        continue  # sanctioned ownership boundary
                    if g.qname not in visited:
                        visited.add(g.qname)
                        stack.append((g, path + (g.qname,)))
    return findings


def in_dirs(f, dirs):
    parts = f.rel.split("/")
    return len(parts) > 1 and parts[0] in dirs


def rule_flush_before_ack(program):
    flushers = {f for f in program.funcs if "flushes_wal" in f.anns}
    flush_names = {q for q, a in program.anns.items() if "flushes_wal" in a}
    flush_reach = transitive_reachers(program, flushers)
    journal_targets = {f for f in program.funcs
                       if f.name in JOURNAL_NAMES}
    journal_reach = transitive_reachers(program, journal_targets)

    def is_flush_event(f, call):
        if call.name in {q.split("::")[-1] for q in flush_names} \
                and not program.resolve(f, call):
            return True
        return any(g in flush_reach for g in program.resolve(f, call))

    def is_journal_event(f, call):
        if call.name in JOURNAL_NAMES:
            return True
        return any(g in journal_reach for g in program.resolve(f, call))

    # A releaser is self-flushing when its own body flushes after its
    # last WAL append; its call sites then carry no obligation.
    self_flushing = set()
    releasers = {f for f in program.funcs if "releases_ack" in f.anns}
    releaser_names = {q for q, a in program.anns.items()
                      if "releases_ack" in a}
    findings = []
    for r in releasers:
        last_flush = max((c.pos for c in r.calls if is_flush_event(r, c)),
                        default=None)
        last_journal = max((c.pos for c in r.calls
                            if is_journal_event(r, c)), default=None)
        if last_flush is not None:
            if last_journal is not None and last_journal > last_flush:
                findings.append((
                    r.rel, r.line, "flush-before-ack",
                    "%s journals to the WAL after its last flush; the "
                    "ack it releases can name an undurable record"
                    % r.qname))
            else:
                self_flushing.add(r.qname)

    for f in program.funcs:
        if not in_dirs(f, ACK_DIRS) or "releases_ack" in f.anns:
            continue
        flushed = False
        for call in f.calls:
            if is_flush_event(f, call):
                flushed = True
                continue
            resolved = program.resolve(f, call)
            hits_releaser = any("releases_ack" in g.anns for g in resolved)
            if not hits_releaser and call.cls is None and not resolved:
                hits_releaser = any(
                    q.split("::")[-1] == call.name for q in releaser_names)
            if hits_releaser:
                target = next((g.qname for g in resolved
                               if "releases_ack" in g.anns), call.name)
                if target in self_flushing:
                    continue
                if not flushed:
                    findings.append((
                        f.rel, call.line, "flush-before-ack",
                        "%s releases an ack via %s with no dominating "
                        "WAL flush on this path; call flush() (or a "
                        "function that flushes) first" % (f.qname, target)))
    return findings


def rule_rename_sync(program):
    findings = []
    for f in program.funcs:
        if not in_dirs(f, (RENAME_DIR,)):
            continue
        synced = False
        for call in f.calls:
            if call.name in SYNC_NAMES:
                synced = True
            elif call.name == "rename_file" and not synced:
                findings.append((
                    f.rel, call.line, "rename-sync",
                    "%s renames a file with no preceding fsync/sync_dir "
                    "in this function; a crash can publish a name whose "
                    "bytes were never written" % f.qname))
    return findings


def rule_noalloc(program):
    entries = [f for f in program.funcs if "noalloc" in f.anns]
    findings = []
    reported = set()
    for entry in entries:
        stack = [(entry, entry.qname)]
        visited = {entry.qname}
        while stack:
            f, root = stack.pop()
            for m in NEW_RE.finditer(f.body):
                key = (f.qname, "new", m.start())
                if key in reported:
                    continue
                reported.add(key)
                findings.append((
                    f.rel, _body_line(f, m.start()), "no-alloc",
                    "operator new in the PQ_NOALLOC closure of %s "
                    "(via %s); pool it or mark the cold path PQ_COLDPATH"
                    % (root, f.qname)))
            for m in STD_STRING_CTOR_RE.finditer(f.body):
                key = (f.qname, "string", m.start())
                if key in reported:
                    continue
                reported.add(key)
                findings.append((
                    f.rel, _body_line(f, m.start()), "no-alloc",
                    "std::string construction in the PQ_NOALLOC closure "
                    "of %s (via %s); slice with Str or build into a "
                    "KeyBuf" % (root, f.qname)))
            allows = program.file_allows.get(f.rel, {})
            for call in f.calls:
                resolved = program.resolve(f, call)
                # A call site carrying allow(no-alloc) is a sanctioned
                # escape: report it (so the suppression registers as
                # used) and do not descend into the callee — the callee
                # may legitimately allocate for other, colder callers.
                if "no-alloc" in allows.get(call.line, ()) \
                        or "no-alloc" in allows.get(call.line - 1, ()):
                    if not resolved and call.name not in ALLOC_CALLS \
                            and call.name not in GROWTH_CALLS:
                        continue  # a call the rule would ignore anyway
                    key = (f.qname, "site", call.pos)
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append((
                        f.rel, call.line, "no-alloc",
                        "call to '%s' inside the PQ_NOALLOC closure of "
                        "%s (exempted at this site)" % (call.name, root)))
                    continue
                if resolved:
                    for g in resolved:
                        if "coldpath" in g.anns:
                            continue
                        if g.qname not in visited:
                            visited.add(g.qname)
                            stack.append((g, root))
                    continue
                if call.name in ALLOC_CALLS or (
                        call.chain is not None
                        and call.name in GROWTH_CALLS):
                    key = (f.qname, call.name, call.pos)
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append((
                        f.rel, call.line, "no-alloc",
                        "'%s' may allocate inside the PQ_NOALLOC closure "
                        "of %s (via %s); use pooled/preallocated storage "
                        "or mark the enclosing cold path PQ_COLDPATH"
                        % (call.name, root, f.qname)))
    return findings


def _body_line(f, pos):
    return f.body_line0 + f.body.count("\n", 0, pos)


LOCAL_OWNER_RE = re.compile(
    r"\b(KeyBuf|std::string)\s+([a-z_]\w*)\s*(?:;|\(|\{|=)")


def rule_str_escape(program):
    findings = []
    for f in program.funcs:
        locals_ = {}
        for m in LOCAL_OWNER_RE.finditer(f.body):
            locals_[m.group(2)] = m.group(1)
        if not locals_:
            continue
        returns_str = bool(re.search(r"(^|\s)Str\s*$", f.ret))
        for name, kind in locals_.items():
            if returns_str:
                for m in re.finditer(
                        r"\breturn\s+(?:Str\s*\(\s*)?%s\b"
                        r"(?:\s*\.\s*(view|substr|prefix|component|data"
                        r"|c_str|str)\s*\()?" % re.escape(name), f.body):
                    if m.group(1) == "str":
                        continue  # .str() copies; the copy is safe
                    findings.append((
                        f.rel, _body_line(f, m.start()), "str-escape",
                        "%s returns a Str slicing local %s '%s'; the "
                        "slice dangles when the frame dies -- return an "
                        "owned copy or take caller-owned storage"
                        % (f.qname, kind, name)))
            for m in re.finditer(
                    r"(\*\s*\w+|\w+_|\w+\s*->\s*\w+)\s*=\s*"
                    r"(?:Str\s*\(\s*)?%s\s*"
                    r"(?:\.\s*(?:view|data|c_str)\s*\(|\)|;)"
                    % re.escape(name), f.body):
                lhs = m.group(1)
                if "." not in m.group(0) and "Str" not in m.group(0):
                    continue
                findings.append((
                    f.rel, _body_line(f, m.start()), "str-escape",
                    "%s stores a Str view of local %s '%s' through "
                    "'%s', which outlives the local's frame"
                    % (f.qname, kind, name, lhs.strip())))
    return findings


def rule_unreachable(program):
    """Functions under the root that no root reaches.

    Resolution is by name alone: Program.resolve() under-approximates on
    purpose, which here would make live code look dead. A call or any
    other mention of an identifier reaches every definition of that
    name (all overrides, all overloads, function pointers), and naming
    a class, or an alias of it, reaches its constructors, destructor
    and the allocator methods a std:: container calls through a
    template argument."""
    mains = [f for f in program.funcs if f.name == "main" and f.cls is None]
    if not mains and not program.root_refs:
        return []  # a library with no entry point: nothing to measure
    aliased = {a: IDENT_RE.findall(t.split("<")[0])[-1]
               for scope in program.aliases.values()
               for a, t in scope.items() if IDENT_RE.search(t)}

    def targets(name):
        out = program.by_name.get(name, [])
        if name in program.classes:
            out = out + program.by_name.get("~" + name, []) + [
                g for m in ALLOCATOR_METHODS
                for g in program.by_name.get(m, []) if g.cls == name]
        if name in aliased and aliased[name] != name:
            out = out + targets(aliased[name])
        return out

    reached = set(mains)
    stack = list(mains)

    def visit(names):
        for name in names:
            for g in targets(name):
                if g not in reached:
                    reached.add(g)
                    stack.append(g)

    visit(program.root_refs)
    while stack:
        visit(stack.pop().refs)
    return [(f.rel, f.line, "unreachable",
             "%s has no caller on any path from a bench, test or main "
             "root; delete it or give it its job" % f.qname)
            for f in program.funcs if f not in reached]


# ---- driver -----------------------------------------------------------------

def collect_files(root):
    out = []
    for dirpath, _d, names in os.walk(root):
        for name in sorted(names):
            if name.endswith((".hh", ".h", ".cc", ".cpp")):
                out.append(os.path.join(dirpath, name))
    return out


def read_compdb(compdb_path, root, files):
    """(TUs under root, of them the unanalyzed ones, TUs outside root)."""
    with open(compdb_path, encoding="utf-8") as f:
        entries = json.load(f)
    analyzed = {os.path.abspath(p) for p in files}
    inside, outside = [], []
    root_abs = os.path.abspath(root)
    for e in entries:
        src = os.path.abspath(os.path.join(e.get("directory", "."),
                                           e["file"]))
        (inside if src.startswith(root_abs + os.sep) else outside).append(src)
    return len(inside), [t for t in inside if t not in analyzed], outside


def bench_files(root):
    """The perfbench/ sources next to the root. perfbench is its own CMake
    project, absent from the compdb, but what it calls is reached all the
    same, so its files seed reachability like a TU outside the root."""
    bench = os.path.join(os.path.dirname(os.path.abspath(root)), "perfbench")
    if not os.path.isdir(bench):
        return []
    return [os.path.join(bench, name) for name in sorted(os.listdir(bench))
            if name.endswith((".cc", ".hh"))]


def suppress(found, file_allows):
    """Report dicts for `found`, plus one stale-suppression per allow()
    rule that suppressed nothing or names no rule."""
    violations = []
    used = set()  # (rel, allow line, rule)
    for rel, lineno, rule, message in found:
        allows = file_allows.get(rel, {})
        sup_line = next((ln for ln in (lineno, lineno - 1)
                         if rule in allows.get(ln, ())), None)
        if sup_line is not None:
            used.add((rel, sup_line, rule))
        violations.append({
            "file": rel, "line": lineno, "rule": rule, "message": message,
            "suppressed": sup_line is not None,
        })
    for rel, allows in sorted(file_allows.items()):
        for lineno, rules in sorted(allows.items()):
            for rule in sorted(rules):
                if (rel, lineno, rule) in used:
                    continue
                why = ("suppresses nothing; delete the dead exemption"
                       if rule in RULES else
                       "names no rule; fix the spelling or delete it")
                violations.append({
                    "file": rel, "line": lineno,
                    "rule": "stale-suppression",
                    "message": "allow(%s) %s" % (rule, why),
                    "suppressed": False,
                })
    violations.sort(key=lambda v: (v["file"], v["line"], v["rule"]))
    return violations


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True,
                    help="analysis root (e.g. src, or a fixture dir)")
    ap.add_argument("--compdb", metavar="FILE",
                    help="compile_commands.json: cross-checks TU coverage; "
                         "TUs outside the root are the unreachable roots")
    ap.add_argument("--json", metavar="FILE",
                    help="write the machine-readable report here")
    args = ap.parse_args(argv)

    if not os.path.isdir(args.root):
        print("pqcheck: not a directory: %s" % args.root, file=sys.stderr)
        return 2

    files = collect_files(args.root)
    tus, outside = None, []
    if args.compdb:
        if not os.path.isfile(args.compdb):
            print("pqcheck: no such compdb: %s" % args.compdb,
                  file=sys.stderr)
            return 2
        tus, missing, outside = read_compdb(args.compdb, args.root, files)
        if missing:
            for m in missing:
                print("pqcheck: TU compiled but not analyzed: %s" % m,
                      file=sys.stderr)
            return 2

    program = Program()
    for path in files:
        program.add_file(path, args.root)
    for path in outside + bench_files(args.root):
        program.add_root_file(path)
    program.finish()

    found = list(program.token_found)
    for rule in (rule_owner_confinement, rule_flush_before_ack,
                 rule_rename_sync, rule_noalloc, rule_str_escape,
                 rule_unreachable):
        found.extend(rule(program))
    violations = suppress(found, program.file_allows)
    active = [v for v in violations if not v["suppressed"]]
    suppressed = [v for v in violations if v["suppressed"]]

    if args.json:
        report = {
            "tool": "pqcheck",
            "root": args.root,
            "rules": list(RULES),
            "functions": len(program.funcs),
            "tus_checked": tus,
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
    print("pqcheck: %d violation(s), %d suppression(s), %d function(s) "
          "across %s%s"
          % (len(active), len(suppressed), len(program.funcs), args.root,
             "" if tus is None else " (%d TUs cross-checked)" % tus))
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
