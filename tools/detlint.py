#!/usr/bin/env python3
"""detlint: AST-grade determinism static analysis for the Harmony tree.

tools/lint.py enforces the determinism contract with line-regexes; this pass
works on a structural representation instead: each translation unit named by
the compile database (compile_commands.json, via find_compile_commands from
tools/lint.py) plus every header in the deterministic directories is lexed
into a C++ token stream, declarations / records / loops are parsed out of it,
and per-TU facts are assembled through the project include closure so that a
range-for in a .cpp file over a member declared in a header three includes
away still resolves to the member's container type. (The analyzer carries its
own lexer+parser rather than shelling out to `clang -Xclang -ast-dump=json`
so the gate also runs in gcc-only containers; the facts it extracts —
declared types, loop structure, member init state — are the AST slice the
rules need.)

Rule families (all scoped to DETERMINISTIC_DIRS):

  unordered-iteration   A range-for or iterator walk over a std::unordered_map
                        / std::unordered_set whose body escapes values
                        (accumulates into outer state, appends, traces, emits,
                        returns) leaks hash-table order into results. Route
                        the loop through common::sorted_view / sorted_keys
                        (src/common/sorted_view.h), switch the container to
                        common::ordered_map, or justify the site with
                        `// detlint: sorted-iteration(<why>)`. Bodies that
                        only mutate the current element in place are
                        order-insensitive and pass.
  pointer-order         Ordering keyed on pointer values is address-order,
                        i.e. allocator/ASLR order: std::set/std::map keyed on
                        a raw pointer without a custom comparator, relational
                        comparisons between pointer-typed comparator
                        parameters, std::less<T*>, and explicit std::hash
                        over a pointer type. Hash-membership on pointers
                        (unordered_set<T*> used only for contains()) is fine —
                        iteration over it is caught by unordered-iteration.
                        Escape: `// detlint: pointer-order(<why>)`.
  uninit-member         A scalar (arithmetic/pointer) data member of a record
                        declared in a deterministic dir with no NSDMI and no
                        initialization in some constructor is read-of-
                        indeterminate waiting to happen — the classic source
                        of run-to-run drift that ASan/UBSan only catch on the
                        path that executes. NSDMI or every-ctor mem-init is
                        required. Escape: `// detlint: uninit-member(<why>)`.
  unseeded-random       rand()/srand(), std::random_device, an unseeded
                        std::mt19937, or branching on std::hash<std::string>
                        (implementation-defined across libstdc++/libc++)
                        inside deterministic code. Randomness flows through
                        common::Rng with an explicit seed (the seeded exp::
                        generators). Escape: `// detlint: seeded-random(<why>)`.

Escape comments carry a mandatory reason: `// detlint: <name>(<reason>)` on
the offending line or alone on the line above. tools/lint.py's
detlint-escape rule validates the reason is non-empty and the name is known.

When $GITHUB_STEP_SUMMARY is set, a per-rule finding-count table is
appended to the job summary, mirroring tools/lint.py.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Shared with tools/lint.py, which owns them: the directories whose code
# must be bit-reproducible, the escape-comment names (lint's detlint-escape
# hygiene rule checks them too) and the compile-db probe.
from lint import (  # noqa: E402
    DETERMINISTIC_DIRS,
    DETLINT_ESCAPE_NAMES as ESCAPE_NAMES,
    find_compile_commands,
)

SOURCE_EXTS = (".h", ".cpp")

RULE_NAMES = ("unordered-iteration", "pointer-order", "uninit-member",
              "unseeded-random")

# One escape name per rule family, in the same order.
ESCAPE_TO_RULE = dict(zip(ESCAPE_NAMES, RULE_NAMES))
ESCAPE_RE = re.compile(r"detlint:\s*([A-Za-z0-9_-]+)\s*\(([^)]*)\)")

UNORDERED_HEADS = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
ORDERED_ASSOC_HEADS = {"map", "set", "multimap", "multiset"}
OTHER_CONTAINER_HEADS = {"vector", "deque", "list", "forward_list", "array",
                         "span", "string", "basic_string", "string_view",
                         "bitset", "valarray", "initializer_list", "optional",
                         "variant", "pair", "tuple", "queue", "stack",
                         "priority_queue"} | ORDERED_ASSOC_HEADS
SCALAR_TYPES = {"bool", "char", "wchar_t", "char8_t", "char16_t", "char32_t",
                "short", "int", "long", "signed", "unsigned", "float",
                "double", "size_t", "ptrdiff_t", "intptr_t", "uintptr_t",
                "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t",
                "uint16_t", "uint32_t", "uint64_t", "intmax_t", "uintmax_t",
                "byte"}
TYPE_QUALIFIERS = {"const", "constexpr", "constinit", "volatile", "mutable",
                   "inline", "static", "extern", "typename", "struct",
                   "class", "enum", "register", "thread_local", "explicit",
                   "virtual", "friend", "using", "typedef", "signed",
                   "unsigned", "noexcept", "final", "override"}
# Calls that never leak iteration order by themselves.
PURE_CALLS = {"min", "max", "abs", "clamp", "move", "forward", "get",
              "to_string", "fabs", "sqrt", "floor", "ceil", "round", "isnan",
              "isinf", "swap_remove"}
# Read-only lookups: calling them on an outer container inside the loop body
# does not make the body order-sensitive on its own.
READONLY_METHODS = {"contains", "count", "find", "at", "size", "empty",
                    "cbegin", "cend", "lower_bound", "upper_bound", "get",
                    "value", "has_value", "front", "back", "data", "first",
                    "second", "str", "c_str", "length", "load"}
# Range factories that already impose a canonical order.
SORTED_FACTORIES = {"sorted_view", "sorted_keys", "sorted_items"}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM = re.compile(r"(?:0[xXbB][0-9a-fA-F']+|[0-9][0-9a-fA-F'.eEpPxXuUlLfF+-]*)")
_PUNCTS = ("<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=",
           "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
           "^=", "++", "--", ".*")

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
              ">>="}


class Tok:
    __slots__ = ("kind", "v", "line")

    def __init__(self, kind, v, line):
        self.kind = kind   # 'id' | 'num' | 'str' | 'punct' | 'pp'
        self.v = v
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{self.kind}:{self.v}@{self.line}"


def lex(text: str):
    """Tokenizes C++ source.

    Returns (tokens, includes, escapes, comment_only_lines) where includes is
    [(path, line)] for quoted project includes, escapes maps line ->
    {escape-name}, and comment_only_lines is the set of lines holding nothing
    but a comment (their escapes also cover the next line).
    """
    toks: list[Tok] = []
    includes: list[tuple[str, int]] = []
    escapes: dict[int, set[str]] = {}
    comment_only: set[int] = set()
    line_has_code: dict[int, bool] = {}

    def note_escape(comment: str, line: int):
        for m in ESCAPE_RE.finditer(comment):
            if m.group(1) in ESCAPE_NAMES:
                escapes.setdefault(line, set()).add(m.group(1))

    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            if j < 0:
                j = n
            note_escape(text[i:j], line)
            if not line_has_code.get(line):
                comment_only.add(line)
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            block = text[i : j + 2]
            note_escape(block, line)
            if not line_has_code.get(line) and "\n" not in block:
                comment_only.add(line)
            line += block.count("\n")
            i = j + 2
            continue
        if c == "#" and not line_has_code.get(line):
            # Preprocessor directive: consume to end of line (with
            # continuations), record quoted #include targets.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    k = n
                if text[j:k].rstrip().endswith("\\"):
                    line += 1
                    j = k + 1
                else:
                    break
            directive = text[i : k if k >= 0 else n]
            m = re.match(r'#\s*include\s+"([^"]+)"', directive)
            if m:
                includes.append((m.group(1), line))
            note_escape(directive, line)
            line += 0
            i = k
            continue
        if c == '"':
            if toks and toks[-1].kind == "id" and toks[-1].v == "R":
                # Raw string literal R"delim( ... )delim".
                m = re.match(r'R"([^ ()\\\t\n]*)\(', text[i - 1 :])
                if m:
                    delim = m.group(1)
                    end = text.find(")" + delim + '"', i)
                    if end < 0:
                        end = n
                    seg = text[i : end + len(delim) + 2]
                    line_has_code[line] = True
                    toks[-1] = Tok("str", "<rawstr>", line)
                    line += seg.count("\n")
                    i = end + len(delim) + 2
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            line_has_code[line] = True
            toks.append(Tok("str", "<str>", line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            line_has_code[line] = True
            toks.append(Tok("str", "<chr>", line))
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM.match(text, i)
            line_has_code[line] = True
            toks.append(Tok("num", m.group(0), line))
            i = m.end()
            continue
        m = _WORD.match(text, i)
        if m:
            line_has_code[line] = True
            toks.append(Tok("id", m.group(0), line))
            i = m.end()
            continue
        if text.startswith("[[", i):
            # C++ attribute: skip to the matching ]].
            j = text.find("]]", i + 2)
            if j >= 0:
                line += text.count("\n", i, j)
                i = j + 2
                continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                line_has_code[line] = True
                toks.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            line_has_code[line] = True
            toks.append(Tok("punct", c, line))
            i += 1
    return toks, includes, escapes, comment_only


# --- token-stream helpers ----------------------------------------------------

OPEN = {"(": ")", "[": "]", "{": "}"}
CLOSE = {")": "(", "]": "[", "}": "{"}


def match_forward(toks, i):
    """Index of the token closing the bracket opened at i."""
    depth = 0
    opener = toks[i].v
    closer = OPEN[opener]
    while i < len(toks):
        v = toks[i].v
        if v == opener:
            depth += 1
        elif v == closer:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def skip_template(toks, i):
    """With toks[i].v == '<', returns index just past the matching '>'.

    Treats '>>' as two closes. Returns i+1 (i.e. treats '<' as less-than) if
    no plausible close is found within a window.
    """
    depth = 0
    j = i
    while j < len(toks) and j < i + 400:
        v = toks[j].v
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif v in (";", "{", "}") or v in ASSIGN_OPS:
            break  # statement ended: it was a comparison after all
        j += 1
    return i + 1


def chain_root(toks, i):
    """Root identifier of the postfix chain ending at token i (inclusive).

    Walks back over  id  .  ->  ::  (...)  [...]  *  to find the first
    identifier of expressions like  state.tasks_[k].second  →  'state'.
    """
    j = i
    root = None
    while j >= 0:
        v = toks[j].v
        if toks[j].kind == "id":
            root = toks[j].v
            if j > 0 and toks[j - 1].v in (".", "->", "::"):
                j -= 2
                continue
            break
        if v in (")", "]"):
            depth = 0
            while j >= 0:
                if toks[j].v in (")", "]"):
                    depth += 1
                elif toks[j].v in ("(", "["):
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            j -= 1
            continue
        if v in ("*", "&"):
            j -= 1
            continue
        break
    return root


def last_chain_id(toks):
    """Last identifier of a postfix chain, e.g. pr.job_plan → 'job_plan'."""
    j = len(toks) - 1
    while j >= 0:
        if toks[j].kind == "id":
            return toks[j].v
        if toks[j].v in (")", "]"):
            depth = 0
            while j >= 0:
                if toks[j].v in (")", "]"):
                    depth += 1
                elif toks[j].v in ("(", "["):
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            j -= 1
            continue
        if v_ignorable(toks[j].v):
            j -= 1
            continue
        return None
    return None


def v_ignorable(v):
    return v in ("*", "&", "const", ">")


# --- per-file parsing --------------------------------------------------------

def container_kind(head: str):
    if head in UNORDERED_HEADS:
        return "unordered"
    if head in OTHER_CONTAINER_HEADS:
        return "other"
    return None


def parse_file(path: str):
    """Extracts determinism facts from one C++ file. Pure; JSON-serializable."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    toks, includes, escapes, comment_only = lex(text)

    facts = {
        "includes": [p for p, _ in includes],
        "decls": [],        # [name, kind('unordered'|'other'), line]
        "aliases": [],      # [name, head-token]
        "auto_inits": [],   # [name, init-terminal, line]
        "range_fors": [],   # [line, terminal, is_call, sorted_ok, escapes]
        "iter_fors": [],    # [line, receiver, escapes]
        "records": [],      # [qualname, line, members, ctors]
        "oo_ctor_inits": [],  # [record, [init names], delegating]
        "ptr_order": [],    # [line, message]
        "unseeded": [],     # [line, message]
        "escapes": {str(l): sorted(s) for l, s in escapes.items()},
        "comment_only": sorted(comment_only),
    }

    n = len(toks)

    def tv(i):
        return toks[i].v if 0 <= i < n else ""

    # -- declarations, aliases, simple pattern rules --------------------------
    i = 0
    record_stack = []  # (qualname, body_open_depth) for rule-3 member scan
    depth = 0
    while i < n:
        t = toks[i]
        v = t.v
        if v == "{":
            depth += 1
        elif v == "}":
            depth -= 1
            while record_stack and record_stack[-1][1] > depth:
                record_stack.pop()

        if t.kind != "id":
            i += 1
            continue

        # using NAME = <type>;   /  typedef <type> NAME;
        if v == "using" and tv(i + 2) == "=":
            head = alias_head(toks, i + 3)
            if head:
                facts["aliases"].append([tv(i + 1), head])
            i += 3
            continue
        if v == "typedef":
            j = i + 1
            while j < n and tv(j) != ";":
                j += 1
            if j - 1 > i and toks[j - 1].kind == "id":
                head = alias_head(toks, i + 1)
                if head:
                    facts["aliases"].append([tv(j - 1), head])
            i = j
            continue

        # struct/class NAME ... { : record parse (rule 3)
        if v in ("struct", "class") and toks_is_record_intro(toks, i):
            qual = "::".join([r[0] for r in record_stack] + [tv(i + 1)])
            body = find_record_body(toks, i)
            if body is not None:
                rec = parse_record(toks, body[0], body[1], tv(i + 1), qual)
                facts["records"].append(rec)
                record_stack.append((tv(i + 1), depth + 1))
        if v == "enum":
            # skip enum bodies: enumerators are not member variables
            j = i + 1
            while j < n and tv(j) not in ("{", ";"):
                j += 1
            if tv(j) == "{":
                i = match_forward(toks, j)
                continue

        # container declarations / returns: [std::]head<...> [&*]* name
        kind = container_kind(v)
        if kind and tv(i + 1) == "<":
            j = skip_template(toks, i + 1)
            while tv(j) in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "id" and toks[j].v not in TYPE_QUALIFIERS:
                facts["decls"].append([toks[j].v, kind, toks[j].line])
            # pointer-keyed ordered associative container (rule 2)
            if v in ("set", "map", "multiset", "multimap") and tv(i - 1) == "::" \
                    and tv(i - 2) == "std":
                args = template_args(toks, i + 1)
                if args and arg_is_pointer(args[0]) and len(args) < (3 if "map" in v else 2):
                    facts["ptr_order"].append(
                        [t.line, f"std::{v} keyed on a raw pointer orders by address; "
                                 "key on a stable id or supply a comparator"])
        # aliased-type declarations:  JobMap jobs_;
        if toks[i].kind == "id" and tv(i + 1) not in ("<", "(", "::") \
                and toks[i + 1 if i + 1 < n else i].kind == "id" \
                and tv(i + 2) in (";", "=", "{", ","):
            facts["decls"].append([tv(i + 1), "alias:" + v, toks[i].line])

        # auto it = EXPR;  /  auto& m = EXPR;
        if v == "auto":
            j = i + 1
            while tv(j) in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "id" and tv(j + 1) == "=":
                k = j + 2
                stmt = []
                while k < n and tv(k) != ";":
                    stmt.append(toks[k])
                    k += 1
                term = last_chain_id(stmt) if stmt else None
                if term:
                    facts["auto_inits"].append([tv(j), term, toks[j].line])

        # out-of-line constructor:  Name::Name( ... ) : inits {
        if tv(i + 1) == "::" and tv(i + 2) == v and tv(i + 3) == "(":
            close = match_forward(toks, i + 3)
            inits, delegating = parse_ctor_inits(toks, close + 1, v)
            if inits is not None:
                facts["oo_ctor_inits"].append([v, sorted(inits), delegating])

        # rule 2: std::hash over a pointer type / std::less<T*>
        if v in ("hash", "less", "greater") and tv(i - 1) == "::" and tv(i - 2) == "std" \
                and tv(i + 1) == "<":
            args = template_args(toks, i + 1)
            if args and arg_is_pointer(args[0]):
                facts["ptr_order"].append(
                    [t.line, f"std::{v} over a pointer type keys on object addresses"])

        # rule 4 patterns
        if v in ("rand", "srand") and tv(i + 1) == "(" and tv(i - 1) not in (".", "->", "::"):
            facts["unseeded"].append(
                [t.line, f"{v}() is banned; use common::Rng with an explicit seed"])
        if v == "random_device" and tv(i - 1) == "::" and tv(i - 2) == "std":
            facts["unseeded"].append(
                [t.line, "std::random_device is nondeterministic by design; "
                         "use a fixed seed"])
        if v in ("mt19937", "mt19937_64") and toks[i + 1 if i + 1 < n else i].kind == "id" \
                and tv(i + 2) in (";", ","):
            # The declared name rides along: a member engine seeded in every
            # constructor init list is sanctioned (common::Rng's facade).
            facts["unseeded"].append(
                [t.line, f"unseeded std::{v}; construct with an explicit seed",
                 tv(i + 1)])
        if v == "hash" and tv(i - 1) == "::" and tv(i - 2) == "std" and tv(i + 1) == "<" \
                and tv(i + 2) == "std" and tv(i + 4) == "string":
            j = skip_template(toks, i + 1)
            if tv(j) == "(" or (tv(j) == "{" and tv(j + 1) == "}" and tv(j + 2) == "("):
                facts["unseeded"].append(
                    [t.line, "branching on std::hash<std::string> is implementation-"
                             "defined; derive decisions from explicit keys"])

        # rule 2: relational comparison of pointer-typed lambda parameters
        if v == "[" :  # pragma: no cover - kind check below keeps this dead
            pass
        i += 1

    scan_pointer_comparators(toks, facts)
    scan_for_loops(toks, facts)
    return facts


def alias_head(toks, i):
    """Head type token of an alias target starting at i ('unordered_map',
    'vector', 'uint32_t', ...), or None."""
    j = i
    seen = None
    while j < len(toks) and toks[j].v not in (";", "<"):
        if toks[j].kind == "id" and toks[j].v not in ("std", "const") \
                and toks[j].v != "::":
            seen = toks[j].v
        j += 1
    return seen


def toks_is_record_intro(toks, i):
    """True when struct/class at i introduces a definition (not a fwd decl,
    variable of elaborated type, or template parameter)."""
    if i + 1 >= len(toks) or toks[i + 1].kind != "id":
        return False
    j = i + 2
    while j < len(toks) and toks[j].v in ("final",):
        j += 1
    if j < len(toks) and toks[j].v == ":":  # base clause
        while j < len(toks) and toks[j].v not in ("{", ";"):
            j += 1
    return j < len(toks) and toks[j].v == "{"


def find_record_body(toks, i):
    j = i + 2
    while j < len(toks) and toks[j].v != "{":
        if toks[j].v == ";":
            return None
        j += 1
    if j >= len(toks):
        return None
    return (j, match_forward(toks, j))


def template_args(toks, i):
    """Top-level template argument token lists for '<' at i."""
    args, cur, depth, j = [], [], 0, i
    while j < len(toks):
        v = toks[j].v
        if v == "<":
            depth += 1
            if depth > 1:
                cur.append(toks[j])
        elif v in (">", ">>"):
            depth -= 2 if v == ">>" else 1
            if depth <= 0:
                if cur:
                    args.append(cur)
                return args
            cur.append(toks[j])
        elif v == "," and depth == 1:
            args.append(cur)
            cur = []
        elif v in (";", "{"):
            return None  # was a comparison, not a template
        elif depth >= 1:
            cur.append(toks[j])
        j += 1
    return None


def arg_is_pointer(arg_toks):
    return bool(arg_toks) and arg_toks[-1].v == "*"


def parse_ctor_inits(toks, i, record_name):
    """Parses a mem-initializer list starting at token i (just past the param
    close paren). Returns (init-name set, delegating) or (None, False) when
    this is a declaration / deleted / defaulted ctor."""
    j = i
    while tv_of(toks, j) in ("noexcept", "override", "const"):
        if tv_of(toks, j) == "noexcept" and tv_of(toks, j + 1) == "(":
            j = match_forward(toks, j + 1) + 1
        else:
            j += 1
    if tv_of(toks, j) == "=":  # = default / = delete
        return None, False
    inits: set[str] = set()
    delegating = False
    if tv_of(toks, j) == ":":
        j += 1
        while j < len(toks) and toks[j].v != "{":
            if toks[j].kind == "id" and tv_of(toks, j + 1) in ("(", "{"):
                name = toks[j].v
                if name == record_name:
                    delegating = True
                else:
                    inits.add(name)
                j = match_forward(toks, j + 1) + 1
                continue
            if toks[j].kind == "id" and tv_of(toks, j + 1) == "<":
                j = skip_template(toks, j + 1)  # templated base
                continue
            j += 1
    if tv_of(toks, j) != "{":
        return None, False  # declaration only; definition lives elsewhere
    return inits, delegating


def tv_of(toks, i):
    return toks[i].v if 0 <= i < len(toks) else ""


def parse_record(toks, open_i, close_i, name, qualname):
    """Member/ctor scan of a record body (rule 3)."""
    members = []  # [name, type_head, is_pointer, has_init, line]
    ctors = []    # [[init names], delegating]
    i = open_i + 1
    while i < close_i:
        t = toks[i]
        v = t.v
        if v in ("public", "private", "protected") and tv_of(toks, i + 1) == ":":
            i += 2
            continue
        if v == ";":
            i += 1
            continue
        # nested record: handled by the outer scan; skip its body here
        if v in ("struct", "class") and toks_is_record_intro(toks, i):
            body = find_record_body(toks, i)
            i = body[1] + 1 if body else i + 1
            continue
        if v == "enum":
            j = i + 1
            while j < close_i and toks[j].v not in ("{", ";"):
                j += 1
            i = (match_forward(toks, j) if toks[j].v == "{" else j) + 1
            continue
        # constructor (possibly behind explicit/inline/constexpr qualifiers)
        j = i
        while tv_of(toks, j) in ("explicit", "inline", "constexpr"):
            j += 1
        if tv_of(toks, j) == name and tv_of(toks, j + 1) == "(":
            i = j
            v = name
        if v == name and tv_of(toks, i + 1) == "(":
            close = match_forward(toks, i + 1)
            inits, delegating = parse_ctor_inits(toks, close + 1, name)
            if inits is not None:
                ctors.append([sorted(inits), delegating])
                # skip the ctor body
                j = close + 1
                while j < close_i and toks[j].v != "{":
                    j += 1
                i = match_forward(toks, j) + 1 if j < close_i else close + 1
                continue
            i = close + 1
            continue
        # any other statement: collect to ';' skipping balanced braces;
        # classify as member variable when it has no parameter list.
        stmt, i = collect_member_stmt(toks, i, close_i)
        if stmt:
            member = classify_member(stmt)
            if member:
                members.append(member)
    return [qualname, toks[open_i].line, members, ctors]


def collect_member_stmt(toks, i, limit):
    stmt = []
    while i < limit:
        v = toks[i].v
        if v == ";":
            return stmt, i + 1
        if v == "{":
            close = match_forward(toks, i)
            # function body (a '(' appeared earlier) ends the statement; an
            # NSDMI brace-init is part of it.
            if any(s.v == "(" for s in stmt) and not (stmt and stmt[-1].v in ("=", ",")):
                return None, close + 1
            stmt.append(Tok("punct", "{...}", toks[i].line))
            i = close + 1
            continue
        if v == "(":
            close = match_forward(toks, i)
            stmt.append(Tok("punct", "(", toks[i].line))
            stmt.append(Tok("punct", ")", toks[close].line))
            i = close + 1
            continue
        if v == "[":
            i = match_forward(toks, i) + 1
            stmt.append(Tok("punct", "[]", toks[i - 1].line))
            continue
        if v == "<" and stmt and stmt[-1].kind == "id":
            j = skip_template(toks, i)
            if j > i + 1:
                stmt.append(Tok("punct", "<>", toks[i].line))
                i = j
                continue
        stmt.append(toks[i])
        i += 1
    return stmt, i


def classify_member(stmt):
    """[name, type_head, is_pointer, has_init, line] for a scalar-looking data
    member, else None."""
    vals = [s.v for s in stmt]
    if not stmt or stmt[0].kind != "id" and stmt[0].v not in ("~",):
        return None
    if vals[0] in ("using", "typedef", "friend", "template", "static",
                   "static_assert", "operator", "~", "virtual", "explicit"):
        return None
    if "operator" in vals:
        return None
    # Drop trailing ALL_CAPS(...) annotation macros (GUARDED_BY etc).
    while len(vals) >= 3 and vals[-1] == ")" and vals[-2] == "(" \
            and re.fullmatch(r"[A-Z][A-Z0-9_]*", vals[-3] or ""):
        stmt = stmt[:-3]
        vals = vals[:-3]
    if not stmt:
        return None
    # Find declarator: last id not part of the initializer.
    init_at = None
    for k, v in enumerate(vals):
        if v in ("=", "{...}"):
            init_at = k
            break
    head_part = stmt[: init_at if init_at is not None else len(stmt)]
    hp_vals = [s.v for s in head_part]
    if "(" in hp_vals:  # function declaration / member with paren-init
        # paren right after a name that follows a type = ctor-style init
        if init_at is None and hp_vals and hp_vals[-1] == ")":
            # e.g. `int x(3);` is rare in members; treat as initialized
            return None
        return None
    if ":" in hp_vals[1:]:  # bitfield — always explicit width, skip
        return None
    # declarator name = last identifier
    name_idx = None
    for k in range(len(head_part) - 1, -1, -1):
        if head_part[k].kind == "id" and head_part[k].v not in TYPE_QUALIFIERS:
            name_idx = k
            break
    if name_idx is None or name_idx == 0:
        return None
    type_toks = head_part[:name_idx]
    t_vals = [s.v for s in type_toks]
    if "&" in t_vals or "<>" in t_vals:
        return None  # references / templated types are out of scope
    is_pointer = "*" in t_vals
    head = None
    for s in type_toks:
        if s.kind == "id" and s.v not in TYPE_QUALIFIERS and s.v != "std" \
                and s.v != "::":
            head = s.v
    if head is None:
        return None
    has_init = init_at is not None
    return [stmt[name_idx].v, head, is_pointer, has_init, stmt[name_idx].line]


# --- loop analysis (rule 1) --------------------------------------------------

def scan_for_loops(toks, facts):
    n = len(toks)
    for i in range(n):
        if toks[i].kind != "id" or toks[i].v != "for" or tv_of(toks, i + 1) != "(":
            continue
        open_i = i + 1
        close_i = match_forward(toks, open_i)
        head = toks[open_i + 1 : close_i]
        body_start = close_i + 1
        if body_start >= n:
            continue
        if toks[body_start].v == "{":
            body_end = match_forward(toks, body_start)
            body = toks[body_start + 1 : body_end]
        else:
            j = body_start
            while j < n and toks[j].v != ";":
                if toks[j].v in OPEN:
                    j = match_forward(toks, j)
                j += 1
            body = toks[body_start:j]
        colon = find_range_colon(head)
        if colon is not None:
            decl, expr = head[:colon], head[colon + 1 :]
            loop_vars = range_loop_vars(decl)
            terminal, is_call = expr_terminal(expr)
            if terminal is None:
                continue
            sorted_ok = is_call and terminal in SORTED_FACTORIES
            facts["range_fors"].append(
                [toks[i].line, terminal, is_call, sorted_ok,
                 body_escapes(body, loop_vars)])
        else:
            # iterator walk:  for (auto it = X.begin(); ...)
            recv, var = iter_for_receiver(head)
            if recv:
                facts["iter_fors"].append(
                    [toks[i].line, recv, body_escapes(body, {var} if var else set())])


def find_range_colon(head):
    depth = 0
    for k, t in enumerate(head):
        v = t.v
        if v in OPEN:
            depth += 1
        elif v in CLOSE:
            depth -= 1
        elif v == ";":
            return None  # classic for
        elif v == ":" and depth == 0:
            return k
    return None


def range_loop_vars(decl):
    vals = [t.v for t in decl]
    if "[" in vals:  # structured binding
        lo = vals.index("[")
        hi = vals.index("]") if "]" in vals else len(vals)
        return {t.v for t in decl[lo + 1 : hi] if t.kind == "id"}
    for k in range(len(decl) - 1, -1, -1):
        if decl[k].kind == "id" and decl[k].v not in TYPE_QUALIFIERS:
            return {decl[k].v}
    return set()


def expr_terminal(expr):
    """(terminal-name, is_call) for a range expression."""
    t = list(expr)
    while t and t[0].v in ("*", "&"):
        t = t[1:]
    while len(t) >= 2 and t[0].v == "(" and match_forward(t, 0) == len(t) - 1:
        t = t[1:-1]
    if not t:
        return None, False
    if t[-1].v == ")":
        depth = 0
        k = len(t) - 1
        while k >= 0:
            if t[k].v == ")":
                depth += 1
            elif t[k].v == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        callee = last_chain_id(t[:k])
        return callee, True
    return last_chain_id(t), False


def iter_for_receiver(head):
    """('tasks_', 'it') for  auto it = tasks_.begin(); ...  heads."""
    var = None
    for k, t in enumerate(head):
        if t.kind == "id" and tv_of(head, k + 1) == "=" and var is None:
            var = t.v
        if t.kind == "id" and t.v in ("begin", "cbegin") and tv_of(head, k + 1) == "(" \
                and k >= 2 and head[k - 1].v in (".", "->") and head[k - 2].kind == "id":
            return head[k - 2].v, var
    return None, None


def body_escapes(body, loop_vars):
    """True when the loop body leaks iteration order: calls with effects
    outside the current element, writes whose target is not the current
    element or a body-local, streaming, or returning."""
    locals_: set[str] = set(loop_vars)
    n = len(body)
    stmt_start = True
    k = 0
    while k < n:
        t = body[k]
        v = t.v
        if v in (";", "{", "}"):
            stmt_start = True
            k += 1
            continue
        if t.kind == "id" and v in ("return", "throw", "co_return", "co_yield"):
            return True
        if v in ("<<", ">>"):
            return True
        # body-local declaration:  [const] type name =/{ ...
        if stmt_start and t.kind == "id":
            j = k
            while j < n and body[j].kind == "id" and \
                    (body[j].v in TYPE_QUALIFIERS or body[j].v in SCALAR_TYPES
                     or body[j].v == "auto" or body[j].v == "std"
                     or (j + 1 < n and body[j + 1].kind == "id")):
                if j + 1 < n and body[j + 1].v == "::":
                    j += 2
                    continue
                j += 1
            if j < n and body[j].kind == "id" and j > k and \
                    tv_of(body, j + 1) in ("=", "{", ";", ":"):
                locals_.add(body[j].v)
                k = j + 1
                stmt_start = False
                continue
        stmt_start = False
        # calls
        if t.kind == "id" and tv_of(body, k + 1) == "(" and \
                (body[k - 1].v != "::" if k > 0 else True):
            callee = v
            if callee in PURE_CALLS or callee in ("if", "while", "switch", "for",
                                                  "sizeof", "assert", "decltype",
                                                  "alignof"):
                k += 1
                continue
            if k > 0 and body[k - 1].v in (".", "->"):
                root = chain_root(body, k)
                if root in locals_ or callee in READONLY_METHODS:
                    k += 1
                    continue
                return True
            if callee in READONLY_METHODS:
                k += 1
                continue
            return True
        # assignments / increments
        if v in ASSIGN_OPS or v in ("++", "--"):
            if v in ("++", "--") and k + 1 < n and body[k + 1].kind == "id":
                root = chain_root(body, k + 1 + chain_extent(body, k + 1))
            else:
                root = chain_root(body, k - 1)
            if root is not None and root not in locals_:
                return True
        k += 1
    return False


def chain_extent(body, k):
    j = k
    while j + 1 < len(body) and body[j + 1].v in (".", "->", "::", "["):
        if body[j + 1].v == "[":
            j = match_forward(body, j + 1)
        else:
            j += 2
    return j - k


def scan_pointer_comparators(toks, facts):
    """Lambda comparators that order by raw pointer value (rule 2)."""
    n = len(toks)
    for i in range(n - 1):
        if toks[i].v != "[" or tv_of(toks, i + 1) not in ("]", "&", "=") and \
                toks[i + 1].kind != "id":
            continue
        close = match_forward(toks, i)
        if tv_of(toks, close + 1) != "(":
            continue
        pclose = match_forward(toks, close + 1)
        params = toks[close + 2 : pclose]
        ptr_params = pointer_param_names(params)
        if len(ptr_params) < 2:
            continue
        j = pclose + 1
        while j < n and toks[j].v not in ("{", ";"):
            j += 1
        if j >= n or toks[j].v != "{":
            continue
        bend = match_forward(toks, j)
        body = toks[j + 1 : bend]
        for k in range(1, len(body) - 1):
            if body[k].v in ("<", ">", "<=", ">=") and \
                    body[k - 1].kind == "id" and body[k + 1].kind == "id" and \
                    body[k - 1].v in ptr_params and body[k + 1].v in ptr_params:
                facts["ptr_order"].append(
                    [body[k].line,
                     "comparator orders by raw pointer value (address order); "
                     "compare a stable id instead"])
                break


def pointer_param_names(params):
    names, cur = set(), []
    groups = []
    depth = 0
    for t in params:
        if t.v in OPEN or t.v == "<":
            depth += 1
        elif t.v in CLOSE or t.v == ">":
            depth -= 1
        if t.v == "," and depth == 0:
            groups.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        groups.append(cur)
    for g in groups:
        has_star = any(t.v == "*" for t in g)
        if has_star and g and g[-1].kind == "id":
            names.add(g[-1].v)
    return names


# --- assembly & evaluation ---------------------------------------------------

class Findings:
    def __init__(self):
        self.items: list[str] = []
        self.by_rule = collections.Counter({r: 0 for r in RULE_NAMES})
        self._seen = set()

    def add(self, rel, line, rule, message):
        key = (rel, line, rule, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.items.append(f"{rel}:{line}: [{rule}] {message}")
        self.by_rule[rule] += 1


def escape_covers(facts, line, name):
    esc = facts["escapes"]
    comment_only = set(facts["comment_only"])
    if name in esc.get(str(line), ()):
        return True
    prev = line - 1
    return prev in comment_only and name in esc.get(str(prev), ())


def det_files(root):
    out = []
    for d in DETERMINISTIC_DIRS:
        base = os.path.join(root, d)
        for dirpath, _dirs, files in os.walk(base):
            for f in sorted(files):
                if f.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, f))
    return sorted(out)


def resolve_include(root, inc):
    cand = os.path.join(root, "src", inc)
    return cand if os.path.isfile(cand) else None


def include_closure(root, path, all_facts):
    seen, queue = set(), [path]
    while queue:
        p = queue.pop()
        if p in seen or p not in all_facts:
            continue
        seen.add(p)
        for inc in all_facts[p]["includes"]:
            r = resolve_include(root, inc)
            if r and r not in seen:
                queue.append(r)
    return seen


def build_env(root, path, all_facts):
    """name -> set of container kinds, merged over the include closure, with
    same-file declarations taking precedence."""
    closure = include_closure(root, path, all_facts)
    alias_kind = {}
    for p in closure:
        for name, head in all_facts[p]["aliases"]:
            k = container_kind(head)
            if k:
                alias_kind[name] = k
    per_file: dict[str, dict[str, set]] = {}
    for p in closure:
        env = per_file.setdefault(p, {})
        for name, kind, _line in all_facts[p]["decls"]:
            if kind.startswith("alias:"):
                kind = alias_kind.get(kind[len("alias:"):])
                if kind is None:
                    continue
            env.setdefault(name, set()).add(kind)
    merged: dict[str, set] = {}
    for p in closure:
        for name, kinds in per_file[p].items():
            merged.setdefault(name, set()).update(kinds)
    # auto-inits: one propagation round
    for p in closure:
        for name, term, _line in all_facts[p]["auto_inits"]:
            kinds = merged.get(term)
            if kinds:
                merged.setdefault(name, set()).update(kinds)
                per_file[p].setdefault(name, set()).update(kinds)
    return merged, per_file.get(path, {}), alias_kind


def name_is_unordered(name, merged, local):
    kinds = local.get(name) or merged.get(name) or set()
    return kinds == {"unordered"}


def evaluate(root, roots, all_facts, findings):
    """Applies all four rules over the parsed facts."""
    global_alias = {}
    for facts in all_facts.values():
        for name, head in facts["aliases"]:
            global_alias[name] = head
    # rule 3 evidence: out-of-line ctor init lists anywhere in the closure set
    oo_inits: dict[str, list] = collections.defaultdict(list)
    ctor_inited: set[str] = set()
    for facts in all_facts.values():
        for rec, inits, delegating in facts["oo_ctor_inits"]:
            oo_inits[rec].append((set(inits), delegating))
            ctor_inited.update(inits)
        for _q, _line, _members, ctors in facts["records"]:
            for inits, _delegating in ctors:
                ctor_inited.update(inits)

    for path in roots:
        facts = all_facts[path]
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        merged, local, _aliases = build_env(root, path, all_facts)

        for line, terminal, is_call, sorted_ok, escapes in facts["range_fors"]:
            if sorted_ok or not escapes:
                continue
            if not name_is_unordered(terminal, merged, local):
                continue
            if escape_covers(facts, line, "sorted-iteration"):
                continue
            findings.add(rel, line, "unordered-iteration",
                         f"range-for over unordered container '{terminal}' escapes "
                         "values in hash order; iterate common::sorted_view, switch "
                         "to common::ordered_map, or mark the loop "
                         "`// detlint: sorted-iteration(<why>)`")
        for line, recv, escapes in facts["iter_fors"]:
            if not escapes or not name_is_unordered(recv, merged, local):
                continue
            if escape_covers(facts, line, "sorted-iteration"):
                continue
            findings.add(rel, line, "unordered-iteration",
                         f"iterator walk over unordered container '{recv}' escapes "
                         "values in hash order; collect keys via common::sorted_keys "
                         "or mark the loop `// detlint: sorted-iteration(<why>)`")

        for line, msg in facts["ptr_order"]:
            if escape_covers(facts, line, "pointer-order"):
                continue
            findings.add(rel, line, "pointer-order",
                         msg + " (or mark the line `// detlint: pointer-order(<why>)`)")

        for line, msg, *rest in facts["unseeded"]:
            if rest and rest[0] in ctor_inited:
                continue  # engine member seeded in a constructor init list
            if escape_covers(facts, line, "seeded-random"):
                continue
            findings.add(rel, line, "unseeded-random",
                         msg + " (or mark the line `// detlint: seeded-random(<why>)`)")

        for qualname, _rline, members, ctors in facts["records"]:
            bare = qualname.rsplit("::", 1)[-1]
            all_ctors = [(set(i), d) for i, d in ctors] + oo_inits.get(bare, [])
            for mname, head, is_ptr, has_init, mline in members:
                if has_init:
                    continue
                scalar = is_ptr or head in SCALAR_TYPES \
                    or global_alias.get(head) in SCALAR_TYPES
                if not scalar:
                    continue
                covered = bool(all_ctors) and all(
                    delegating or mname in inits for inits, delegating in all_ctors)
                if covered:
                    continue
                if escape_covers(facts, mline, "uninit-member"):
                    continue
                why = "no constructor initializes it" if not all_ctors else \
                    "a constructor's init list omits it"
                findings.add(rel, mline, "uninit-member",
                             f"scalar member '{qualname}::{mname}' has no default "
                             f"initializer and {why}; add an NSDMI (`= 0`) or "
                             "initialize it in every constructor (or mark the line "
                             "`// detlint: uninit-member(<why>)`)")


def gather_files(root, build_dir):
    """Analysis roots (all deterministic-dir sources) plus the project headers
    they include. The compile database contributes TU spellings when present;
    the glob walk guarantees headers and compile-db-less fixture trees work."""
    roots = det_files(root)
    cc = find_compile_commands(build_dir) if root == REPO else None
    if cc:
        try:
            with open(cc, encoding="utf-8") as f:
                for entry in json.load(f):
                    p = os.path.abspath(entry["file"])
                    rel = os.path.relpath(p, root).replace(os.sep, "/")
                    if rel.startswith(DETERMINISTIC_DIRS) and p not in roots \
                            and os.path.isfile(p):
                        roots.append(p)
        except (OSError, ValueError, KeyError):
            pass
    roots = sorted(set(roots))
    # transitive project includes (for type environments only)
    all_files = set(roots)
    queue = list(roots)
    inc_re = re.compile(r'#\s*include\s+"([^"]+)"')
    while queue:
        p = queue.pop()
        try:
            with open(p, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for inc in inc_re.findall(text):
            r = resolve_include(root, inc)
            if r and r not in all_files:
                all_files.add(r)
                queue.append(r)
    return roots, sorted(all_files)


def write_github_summary(findings, file_count):
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = ["### Detlint", "",
             f"Determinism analysis over {file_count} files.", "",
             "| rule | findings |", "| --- | ---: |"]
    for rule in RULE_NAMES:
        lines.append(f"| `{rule}` | {findings.by_rule[rule]} |")
    lines.append(f"| **total** | **{len(findings.items)}** |")
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO,
                        help="tree to analyze (default: this checkout; tests "
                             "point this at fixture trees)")
    parser.add_argument("--build-dir",
                        help="build tree holding compile_commands.json")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"detlint: error: --root {root} is not a directory")
        return 2

    roots, all_files = gather_files(root, args.build_dir)
    if not roots:
        print(f"detlint: no sources under {root} deterministic dirs")
        return 0
    all_facts = {p: parse_file(p) for p in all_files}

    findings = Findings()
    evaluate(root, roots, all_facts, findings)

    print(f"detlint: {len(roots)} analysis roots, {len(all_files)} files parsed: "
          f"{len(findings.items)} finding(s)")
    for item in sorted(findings.items):
        print(f"  {item}")
    print("detlint: rule counts: " +
          " ".join(f"{rule}={findings.by_rule[rule]}" for rule in RULE_NAMES))
    write_github_summary(findings, len(all_files))
    if findings.items:
        print("detlint: FAILED")
        return 1
    print("detlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
