#!/usr/bin/env python3
"""Whole-program hot-path analyzer for the EXPLORA C++ sources.

Two passes over src/ (DESIGN.md SS11):

Part A - realtime-safety lint. A heuristic extractor finds every
function definition (free functions, out-of-line and inline methods,
constructors, templates), builds a cross-TU call graph by simple-name
resolution with qualified-suffix and same-namespace filtering, and seeds
ALLOCATES / LOCKS / BLOCKS / THROWS facts at lexical sinks (operator
new / malloc, growing container ops, std:: lock types / .lock(), waits and
sleeps, stream and file I/O, throw). Facts propagate transitively up
the call graph. Functions annotated with the markers from
src/common/analysis_annotations.hpp declare contracts:

  EXPLORA_REALTIME     may reach no sink at all
  EXPLORA_NONBLOCKING  may allocate/throw but never lock or block

Annotated callees act as propagation barriers (modular checking): a
REALTIME callee contributes nothing, a NONBLOCKING callee contributes
may-ALLOCATE/THROW. A violation prints the full offending call chain.
A deliberate sink or call edge is waived on its line (or a comment line
directly above) with `// hotpath-ok: <reason>`; the reason is mandatory
and a reasonless marker is itself a finding.

Part B - module layering. The `#include "module/..."` graph under src/
is checked against the declared module DAG below; back-edges and
undeclared modules are findings. tools/, bench/ and tests/ are exempt
(they sit above every module by design).

Modes: --part realtime|layering|all, --json PATH (machine-readable
report), --self-test (embedded corpora), --prove-detection (copies src/
to a temp tree, injects a realtime and a layering violation, and proves
both analyses catch them while the clean copy stays clean),
--fixture-test DIR (extraction regression against DIR/expected.json).

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import sys
import tempfile

import lintlib
from lintlib import line_of, strip_comments_and_strings

# --------------------------------------------------------------------------
# Part B configuration: the declared layering DAG. Maps each module under
# src/ to the set of modules it may include (its own module is always
# allowed). This is a per-module allow-set, strictly stronger than a linear
# order: e.g. xai may not include netsim even though both sit above common.
# netsim's domain types deliberately sit beneath ml (agents size their
# heads off the RAN action space); see DESIGN.md SS11.
MODULES: dict[str, set[str]] = {
    "common": set(),
    "netsim": {"common"},
    "ml": {"common", "netsim"},
    "xai": {"common", "ml"},
    "oran": {"common", "netsim", "ml"},
    "explora": {"common", "netsim", "ml", "xai", "oran"},
    "harness": {"common", "netsim", "ml", "xai", "oran", "explora"},
}

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# --------------------------------------------------------------------------
# Part A configuration: facts, tiers and sink tables.

ALLOCATES, LOCKS, BLOCKS, THROWS = "ALLOCATES", "LOCKS", "BLOCKS", "THROWS"
SPINS = "SPINS"

#: Facts an annotated function must not reach. SPINS (an atomic retry
#: loop whose exit condition another thread must establish) is banned on
#: both tiers: a spin is a block with worse cache behavior.
FORBIDDEN = {
    "realtime": {ALLOCATES, LOCKS, BLOCKS, THROWS, SPINS},
    "nonblocking": {LOCKS, BLOCKS, SPINS},
}

#: What calling an annotated function contributes to the caller's facts:
#: the annotation is trusted as a checked contract (modular analysis), so
#: only the facts the annotation still permits leak through.
BARRIER = {
    "realtime": set(),
    "nonblocking": {ALLOCATES, THROWS},
}

#: (fact, rule, pattern) - scanned over each function body (comments,
#: strings, preprocessor lines and contract-macro invocations blanked).
SINKS: list[tuple[str, str, re.Pattern[str]]] = [
    (ALLOCATES, "alloc-new", re.compile(r"\bnew\b")),
    (ALLOCATES, "alloc-malloc",
     re.compile(r"\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\(")),
    (ALLOCATES, "alloc-call",
     re.compile(r"\bstd\s*::\s*(?:make_unique|make_shared|to_string|format)\b")),
    (ALLOCATES, "alloc-grow",
     re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|push_front"
                r"|emplace_front|emplace|insert|resize|reserve|assign"
                r"|append)\s*\(")),
    (ALLOCATES, "alloc-container-decl",
     re.compile(r"\bstd\s*::\s*(?:vector|string|deque|list|map|set"
                r"|unordered_map|unordered_set|basic_string)\s*<[^;{}]*>"
                r"\s+\w+\s*[({=]")),
    (LOCKS, "lock-acquire",
     re.compile(r"(?:\.|->)\s*(?:lock|try_lock|lock_shared"
                r"|try_lock_shared)\s*\(")),
    (LOCKS, "lock-raii",
     re.compile(r"\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock"
                r"|shared_lock)\b")),
    (BLOCKS, "block-wait",
     re.compile(r"(?:\.|->)\s*(?:wait|wait_for|wait_until)\s*\(")),
    (BLOCKS, "block-sleep",
     re.compile(r"\bstd\s*::\s*this_thread\b|\bsleep(?:_for|_until)\s*\(")),
    (BLOCKS, "block-io",
     re.compile(r"\bstd\s*::\s*(?:cout|cerr|clog|cin|ofstream|ifstream"
                r"|fstream|getline|osyncstream)\b"
                r"|\b(?:fopen|fclose|fprintf|printf|fputs|puts|fwrite"
                r"|fread|fgets|fflush|system|getchar)\s*\(")),
    (THROWS, "throw", re.compile(r"\bthrow\b")),
    # Atomic spin loops: a `while (...)` whose condition retries a CAS or
    # a try_* operation is waiting on ANOTHER thread to make progress -
    # unbounded occupancy on a hot path. `for (;;)` CAS claim loops are
    # deliberately not flagged: a lock-free retry that loses only when a
    # peer succeeds is system-wide progress, not waiting. Loops that spin
    # by design (bounded monotone folds) carry reasoned `// hotpath-ok:`
    # waivers.
    (SPINS, "spin-cas-retry",
     re.compile(r"while\s*\([^;{}]*?\bcompare_exchange_(?:weak|strong)\b")),
    (SPINS, "spin-try-retry",
     re.compile(r"while\s*\(\s*![^;{}]*?\btry_(?:push|pop|steal|take|lock)"
                r"\w*\s*\(")),
]

#: Contract macros compile out below their check level; their failure
#: paths (formatting, abort) are not hot-path code, so invocations are
#: blanked before sink/call scanning.
CONTRACT_MACRO = re.compile(
    r"\bEXPLORA_(?:EXPECTS|ENSURES|ASSERT|AUDIT|INVARIANT)\w*\s*\(")

#: Identifiers that look like calls/definitions but are language keywords.
KEYWORDS = frozenset("""
    if for while switch catch return sizeof alignof alignas decltype
    static_assert noexcept new delete throw case default do else goto
    operator template typename using namespace class struct enum union
    public private protected constexpr consteval constinit static inline
    extern typedef co_await co_yield co_return requires concept this
    true false nullptr int void bool double float char auto unsigned
    signed long short const volatile mutable friend virtual explicit
    final override defined assert static_cast dynamic_cast const_cast
    reinterpret_cast
""".split())

FUNC_NAME = re.compile(
    r"(?<![:\w~])(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
CALL = re.compile(r"(?<![:\w~])(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)"
                  r"\s*(?:<[^<>();{}]*>)?\s*\(")

#: Member-call names that are overwhelmingly std container/atomic methods
#: in this codebase (`x.size()`, `flag_.load()`, `counter_->add()`): the
#: type-blind resolver would union them with unrelated project methods of
#: the same name, so member calls on these names are treated as opaque.
#: Project hot-path entry points use distinctive names (schedule_tti,
#: begin_tti, observe_batch, forward_batch) and keep resolving.
MEMBER_IGNORE = frozenset("""
    load store exchange compare_exchange_weak compare_exchange_strong
    fetch_add fetch_sub fetch_or fetch_and size empty begin end cbegin
    cend rbegin rend data clear front back at count min max add get reset
    value length capacity swap find contains c_str substr first second
""".split())
WORD = re.compile(r"[A-Za-z_]\w*")
SCOPE_NS = re.compile(r"\bnamespace\s+([\w:]+)\s*$")
SCOPE_NS_ANON = re.compile(r"\bnamespace\s*$")
SCOPE_CLS = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{}()]*$")
ENUM_TAIL = re.compile(r"\benum\b[^;{}]*$")

#: Waiver marker: the reason after the colon is mandatory.
HOTPATH_OK = re.compile(r"//\s*hotpath-ok:\s*(\S.*)?")
HOTPATH_MARK = re.compile(r"//\s*hotpath-ok\b")

ANNOTATIONS = (("realtime", re.compile(r"\bEXPLORA_REALTIME\b")),
               ("nonblocking", re.compile(r"\bEXPLORA_NONBLOCKING\b")))


# --------------------------------------------------------------------------
# Lexical helpers.

def blank_directives(code: str) -> str:
    """Blanks preprocessor lines (plus backslash continuations) so macro
    definitions and conditional-compilation markers never look like code.
    Both branches of #if/#else blocks stay visible - deliberate: facts
    must hold for every build configuration."""
    lines = code.split("\n")
    in_directive = False
    for i, line in enumerate(lines):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            lines[i] = " " * len(line)
        else:
            in_directive = False
    return "\n".join(lines)


def match_paren(code: str, i: int, open_ch: str, close_ch: str) -> int:
    """Index of the bracket matching code[i] (== open_ch), or -1."""
    depth = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def blank_contract_macros(code: str) -> str:
    """Blanks every EXPLORA_EXPECTS/ENSURES/ASSERT/AUDIT(...) span."""
    out = list(code)
    for m in CONTRACT_MACRO.finditer(code):
        close = match_paren(code, m.end() - 1, "(", ")")
        if close == -1:
            continue
        for i in range(m.start(), close + 1):
            if out[i] != "\n":
                out[i] = " "
    return "".join(out)


def skip_ws(code: str, i: int) -> int:
    n = len(code)
    while i < n and code[i] in " \t\n\r":
        i += 1
    return i


def scope_spans(code: str) -> list[tuple[int, int, str]]:
    """(open, close, name) for every named namespace/class/struct brace
    pair; anonymous namespaces get name ""."""
    spans: list[tuple[int, int, str]] = []
    stack: list[tuple[int, str | None]] = []
    last_boundary = -1
    for i, c in enumerate(code):
        if c == "{":
            seg = code[last_boundary + 1:i]
            name: str | None = None
            m = SCOPE_NS.search(seg)
            if m:
                name = m.group(1)
            elif SCOPE_NS_ANON.search(seg):
                name = ""
            else:
                m = SCOPE_CLS.search(seg)
                if m and not ENUM_TAIL.search(seg):
                    name = m.group(1)
            stack.append((i, name))
            last_boundary = i
        elif c == "}":
            if stack:
                open_i, name = stack.pop()
                if name is not None:
                    spans.append((open_i, i, name))
            last_boundary = i
        elif c == ";":
            last_boundary = i
    return spans


def enclosing_scope(spans: list[tuple[int, int, str]], pos: int) -> list[str]:
    return [name for open_i, close_i, name in sorted(spans)
            if open_i < pos < close_i and name]


# --------------------------------------------------------------------------
# Function-definition extraction.

def scan_ctor_init(code: str, i: int) -> tuple[str, int] | None:
    """Parses a constructor initializer list starting after the ':';
    returns ("def", body_open) on success."""
    n = len(code)
    while True:
        i = skip_ws(code, i)
        m = re.match(r"~?[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*", code[i:])
        if not m:
            return None
        i += m.end()
        i = skip_ws(code, i)
        if i < n and code[i] == "<":  # templated base initializer
            depth = 0
            while i < n:
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
            i = skip_ws(code, i)
        if i >= n or code[i] not in "({":
            return None
        close = match_paren(code, i, code[i], ")" if code[i] == "(" else "}")
        if close == -1:
            return None
        i = skip_ws(code, close + 1)
        if code.startswith("...", i):
            i = skip_ws(code, i + 3)
        if i < n and code[i] == ",":
            i += 1
            continue
        if i < n and code[i] == "{":
            return ("def", i)
        return None


TAIL_TOKENS = frozenset(
    ["const", "noexcept", "override", "final", "mutable", "volatile",
     "throw", "try"])


def scan_tail(code: str, i: int) -> tuple[str, int] | None:
    """Classifies what follows a candidate's parameter list: ("def",
    body_open) for a definition, ("decl", pos) for a declaration, None
    for neither (expression context)."""
    n = len(code)
    while True:
        i = skip_ws(code, i)
        if i >= n:
            return None
        c = code[i]
        if c == "{":
            return ("def", i)
        if c in ";,)":
            return ("decl", i)
        if c == "=":  # = default / = delete / = 0
            return ("decl", i)
        if code.startswith("[[", i):
            j = code.find("]]", i)
            if j == -1:
                return None
            i = j + 2
            continue
        if code.startswith("->", i):
            depth = 0
            while i < n:
                c = code[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif depth == 0 and c in "{;":
                    break
                i += 1
            continue
        if c == ":" and not code.startswith("::", i):
            return scan_ctor_init(code, i + 1)
        m = WORD.match(code, i)
        if m:
            if m.group(0) not in TAIL_TOKENS:
                return None
            i = m.end()
            i = skip_ws(code, i)
            if i < n and code[i] == "(":
                close = match_paren(code, i, "(", ")")
                if close == -1:
                    return None
                i = close + 1
            continue
        if c == "&":
            i += 1
            continue
        return None


class Func:
    """One extracted function definition."""

    __slots__ = ("qname", "simple", "rel", "line", "annotation",
                 "body_span", "sinks", "calls", "facts", "resolved")

    def __init__(self, qname: str, rel: str, line: int,
                 annotation: str | None, body_span: tuple[int, int]):
        self.qname = qname
        self.simple = qname.rsplit("::", 1)[-1]
        self.rel = rel
        self.line = line
        self.annotation = annotation
        self.body_span = body_span
        self.sinks: list[tuple[str, str, int, str]] = []  # fact,rule,line,snip
        self.calls: list[tuple[str, str, int]] = []  # simple, chain, line
        self.facts: set[str] = set()
        self.resolved: list[tuple[list["Func"], int]] = []


def hotpath_waived(raw_lines: list[str], lineno: int) -> str | None:
    """Reason text when `lineno` carries (or sits under a comment run
    carrying) a reasoned hotpath-ok marker, else None."""
    def reason(ln: int) -> str | None:
        if 1 <= ln <= len(raw_lines):
            m = HOTPATH_OK.search(raw_lines[ln - 1])
            if m and m.group(1):
                return m.group(1).strip()
        return None

    r = reason(lineno)
    if r:
        return r
    ln = lineno - 1
    while ln >= 1 and raw_lines[ln - 1].lstrip().startswith("//"):
        r = reason(ln)
        if r:
            return r
        ln -= 1
    return None


def parse_file(rel: str, raw: str) -> tuple[list[Func], list, list]:
    """Extracts definitions, sinks, calls and waiver records from one
    translation unit. Returns (funcs, waivers, waiver_findings)."""
    raw_lines = raw.splitlines()
    code = blank_contract_macros(
        blank_directives(strip_comments_and_strings(raw)))
    spans = scope_spans(code)

    waivers = []
    waiver_findings = []
    for ln, line in enumerate(raw_lines, start=1):
        if HOTPATH_MARK.search(line):
            m = HOTPATH_OK.search(line)
            if m and m.group(1):
                waivers.append((rel, ln, m.group(1).strip()))
            else:
                waiver_findings.append(
                    (rel, ln, "waiver-missing-reason",
                     "hotpath-ok marker without a reason"))

    funcs: list[Func] = []
    last_body_end = -1
    for m in FUNC_NAME.finditer(code):
        if m.start() < last_body_end:
            continue  # nested inside an accepted body (local struct etc.)
        name = re.sub(r"\s+", "", m.group(1))
        simple = name.rsplit("::", 1)[-1]
        if simple in KEYWORDS or simple.lstrip("~") in KEYWORDS:
            continue
        p = m.start() - 1
        while p >= 0 and code[p] in " \t\n\r":
            p -= 1
        if p >= 0 and (code[p] == "." or
                       (code[p] == ">" and p >= 1 and code[p - 1] == "-")):
            continue  # member access: a call, not a definition
        open_paren = code.index("(", m.end(1))
        close_paren = match_paren(code, open_paren, "(", ")")
        if close_paren == -1:
            continue
        tail = scan_tail(code, close_paren + 1)
        if not tail or tail[0] != "def":
            continue
        body_open = tail[1]
        body_close = match_paren(code, body_open, "{", "}")
        if body_close == -1:
            continue
        seg_start = max(code.rfind(";", 0, m.start()),
                        code.rfind("{", 0, m.start()),
                        code.rfind("}", 0, m.start()))
        seg = code[seg_start + 1:m.start()]
        annotation = None
        for tier, pattern in ANNOTATIONS:
            if pattern.search(seg):
                annotation = tier
                break
        scope = enclosing_scope(spans, m.start())
        qname = "::".join(scope + [name])
        func = Func(qname, rel, line_of(code, m.start()), annotation,
                    (body_open, body_close))
        funcs.append(func)
        last_body_end = body_close

    for func in funcs:
        body_open, body_close = func.body_span
        body = code[body_open + 1:body_close]

        for fact, rule, pattern in SINKS:
            for sm in pattern.finditer(body):
                lineno = line_of(code, body_open + 1 + sm.start())
                if hotpath_waived(raw_lines, lineno):
                    continue
                snippet = sm.group(0).strip()
                func.sinks.append((fact, rule, lineno, snippet))

        for cm in CALL.finditer(body):
            chain = re.sub(r"\s+", "", cm.group(1))
            simple = chain.rsplit("::", 1)[-1]
            if simple in KEYWORDS or simple.lstrip("~") in KEYWORDS:
                continue
            if chain.startswith("std::"):
                continue
            p = cm.start() - 1
            while p >= 0 and body[p] in " \t\n\r":
                p -= 1
            is_member = p >= 0 and (
                body[p] == "." or
                (body[p] == ">" and p >= 1 and body[p - 1] == "-"))
            if is_member and simple in MEMBER_IGNORE:
                continue
            lineno = line_of(code, body_open + 1 + cm.start())
            if hotpath_waived(raw_lines, lineno):
                continue
            func.calls.append((simple, chain, lineno))

    return funcs, waivers, waiver_findings


# --------------------------------------------------------------------------
# Call resolution and fact propagation.

def resolve_call(chain: str, caller: Func, name_map: dict[str, list[Func]]
                 ) -> list[Func]:
    """Definition candidates for one call site: simple-name lookup,
    narrowed by qualified suffix (plain and constructor form), then by
    longest shared scope with the caller. The surviving set is a
    conservative union - any candidate's facts count."""
    simple = chain.rsplit("::", 1)[-1]
    cands = name_map.get(simple, [])
    if not cands:
        return []
    if "::" in chain:
        by_suffix = [f for f in cands
                     if f.qname == chain or f.qname.endswith("::" + chain)
                     or f.qname.endswith("::" + chain + "::" + simple)
                     or f.qname == chain + "::" + simple]
        if by_suffix:
            cands = by_suffix
    if len(cands) > 1:
        caller_parts = caller.qname.split("::")

        def shared(f: Func) -> int:
            parts = f.qname.split("::")
            n = 0
            while (n < len(parts) - 1 and n < len(caller_parts) - 1
                   and parts[n] == caller_parts[n]):
                n += 1
            return n

        best = max(shared(f) for f in cands)
        cands = [f for f in cands if shared(f) == best]
    return cands


def propagate(funcs: list[Func]) -> None:
    """Seeds each function's facts from its sinks and iterates the
    call-graph transfer to a fixed point. Annotated callees contribute
    only their BARRIER set (their own contract is checked separately)."""
    name_map: dict[str, list[Func]] = {}
    for f in funcs:
        name_map.setdefault(f.simple, []).append(f)
    for f in funcs:
        f.facts = {fact for fact, _, _, _ in f.sinks}
        f.resolved = [(resolve_call(chain, f, name_map), lineno)
                      for _, chain, lineno in f.calls]
    changed = True
    while changed:
        changed = False
        for f in funcs:
            new = set(f.facts)
            for cands, _ in f.resolved:
                for c in cands:
                    new |= (BARRIER[c.annotation] if c.annotation
                            else c.facts)
            if new != f.facts:
                f.facts = new
                changed = True


def find_chain(root: Func, fact: str) -> str:
    """Shortest offending call chain from an annotated root to a sink
    (or to a NONBLOCKING barrier) carrying `fact`, rendered for the
    finding message."""
    queue: list[tuple[Func, list[Func]]] = [(root, [root])]
    seen = {id(root)}
    while queue:
        f, path = queue.pop(0)
        for sink_fact, rule, lineno, snippet in f.sinks:
            if sink_fact == fact:
                names = " -> ".join(p.qname for p in path)
                return (f"{names} reaches {fact} "
                        f"[{rule}] '{snippet}' at {f.rel}:{lineno}")
        for cands, lineno in f.resolved:
            for c in cands:
                if c.annotation:
                    if fact in BARRIER[c.annotation]:
                        names = " -> ".join(p.qname for p in path)
                        return (f"{names} -> {c.qname} "
                                f"(NONBLOCKING callee may {fact}) "
                                f"at {f.rel}:{lineno}")
                elif fact in c.facts and id(c) not in seen:
                    seen.add(id(c))
                    queue.append((c, path + [c]))
    return f"{root.qname} reaches {fact} (chain reconstruction failed)"


def analyze_realtime(files: dict[str, str]) -> tuple[list[Func], list, list]:
    """Runs Part A over {relpath: raw text}. Returns (funcs, findings,
    waivers); findings are (rel, line, rule, snippet) tuples."""
    funcs: list[Func] = []
    waivers: list[tuple[str, int, str]] = []
    findings: list[tuple[str, int, str, str]] = []
    for rel in sorted(files):
        f, w, wf = parse_file(rel, files[rel])
        funcs.extend(f)
        waivers.extend(w)
        findings.extend(wf)
    propagate(funcs)
    for f in funcs:
        if not f.annotation:
            continue
        for fact in sorted(f.facts & FORBIDDEN[f.annotation]):
            rule = f"{f.annotation}-{fact.lower()}"
            findings.append((f.rel, f.line, rule, find_chain(f, fact)))
    findings.sort(key=lambda t: (t[0], t[1], t[2]))
    return funcs, findings, waivers


# --------------------------------------------------------------------------
# Part B: layering.

def dag_acyclic(modules: dict[str, set[str]]) -> bool:
    """Kahn's algorithm over the declared allow-sets."""
    deps = {m: set(d) & set(modules) for m, d in modules.items()}
    done: set[str] = set()
    while True:
        ready = {m for m, d in deps.items() if m not in done and d <= done}
        if not ready:
            return len(done) == len(deps)
        done |= ready


def check_layering(files: dict[str, str],
                   modules: dict[str, set[str]] = MODULES
                   ) -> tuple[list, list]:
    """Checks each src/<module>/ file's quoted includes against the
    declared DAG. Returns (findings, edges) where edges is the observed
    module-dependency list for the JSON report."""
    findings: list[tuple[str, int, str, str]] = []
    edges: set[tuple[str, str]] = set()
    for rel in sorted(files):
        parts = pathlib.PurePosixPath(rel).parts
        if len(parts) < 3 or parts[0] != "src":
            continue
        module = parts[1]
        if module not in modules:
            findings.append(
                (rel, 1, "layer-unknown-module",
                 f"module '{module}' is not declared in the layering DAG"))
            continue
        allowed = modules[module] | {module}
        for lineno, line in enumerate(files[rel].splitlines(), start=1):
            m = INCLUDE.match(line)
            if not m:
                continue
            target = m.group(1).split("/")[0]
            if target not in modules:
                continue  # project-relative non-module include
            if target != module:
                edges.add((module, target))
            if target not in allowed:
                findings.append(
                    (rel, lineno, "layer-back-edge",
                     f'#include "{m.group(1)}": {module} may not depend '
                     f"on {target} (allowed: "
                     f"{', '.join(sorted(allowed - {module})) or 'none'})"))
    return findings, sorted(edges)


# --------------------------------------------------------------------------
# Drivers.

def read_sources(root: pathlib.Path) -> dict[str, str]:
    files = lintlib.collect_sources(root, scan_dirs=("src",))
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in files}


def write_json_report(path: pathlib.Path, funcs: list[Func],
                      rt_findings: list, waivers: list,
                      layer_findings: list, edges: list) -> None:
    report = {
        "realtime": {
            "functions": len(funcs),
            "annotated": [
                {"qname": f.qname, "file": f.rel, "line": f.line,
                 "tier": f.annotation, "facts": sorted(f.facts)}
                for f in funcs if f.annotation],
            "violations": [
                {"file": rel, "line": line, "rule": rule, "detail": snippet}
                for rel, line, rule, snippet in rt_findings],
            "waivers": [
                {"file": rel, "line": line, "reason": reason}
                for rel, line, reason in waivers],
        },
        "layering": {
            "modules": {m: sorted(d) for m, d in sorted(MODULES.items())},
            "observed_edges": [list(e) for e in edges],
            "violations": [
                {"file": rel, "line": line, "rule": rule, "detail": snippet}
                for rel, line, rule, snippet in layer_findings],
        },
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_lint(root: pathlib.Path, part: str,
             json_path: pathlib.Path | None) -> int:
    files = read_sources(root)
    if not files:
        return lintlib.no_sources_error("lint_hotpath", root)
    if not dag_acyclic(MODULES):
        print("lint_hotpath: declared layering DAG is cyclic",
              file=sys.stderr)
        return 2
    funcs: list[Func] = []
    rt_findings: list = []
    waivers: list = []
    layer_findings: list = []
    edges: list = []
    if part in ("realtime", "all"):
        funcs, rt_findings, waivers = analyze_realtime(files)
    if part in ("layering", "all"):
        layer_findings, edges = check_layering(files)
    if json_path is not None:
        write_json_report(json_path, funcs, rt_findings, waivers,
                          layer_findings, edges)
    return lintlib.report_findings(
        "lint_hotpath", rt_findings + layer_findings, len(files),
        ["waive a steady-state-safe sink or call with: "
         "// hotpath-ok: <reason>  (reason mandatory)",
         "layering back-edges have no waiver: move the dependency or "
         "change the declared DAG in tools/lint_hotpath.py"])


# --------------------------------------------------------------------------
# Self-test corpora.

BAD_REALTIME = {"src/app/bad.cpp": """
namespace app {
void* grab() { return malloc(32); }
bool deep() { return grab() != nullptr; }
EXPLORA_REALTIME int hot_chain() { return deep() ? 1 : 0; }
EXPLORA_REALTIME int hot_direct() { int* p = new int(3); return *p; }
EXPLORA_NONBLOCKING void stage() {
  std::lock_guard<std::mutex> lock(mu_);
}
EXPLORA_REALTIME void hot_io() { printf("x"); }
EXPLORA_REALTIME void hot_throw(int v) { if (v < 0) throw v; }
EXPLORA_REALTIME void hot_spin(Queue& q, Item item) {
  while (!q.try_push(item)) {
  }
}
EXPLORA_REALTIME void reasonless(std::vector<int>& out) {
  out.push_back(1);  // hotpath-ok:
}
}
"""}

GOOD_REALTIME = {"src/app/good.cpp": """
namespace app {
int helper(int v) { return v + 1; }
EXPLORA_REALTIME int hot(int v) { return helper(v); }
EXPLORA_REALTIME void hot_waived(std::vector<int>& out) {
  // hotpath-ok: scratch keeps capacity across iterations
  out.push_back(1);
}
EXPLORA_NONBLOCKING std::vector<int> staging(std::size_t n) {
  std::vector<int> rows(n);
  rows.resize(n * 2);
  return rows;
}
EXPLORA_REALTIME double helper_rt(double x) { return x * 2.0; }
EXPLORA_REALTIME double fast(double x) { return helper_rt(x); }
EXPLORA_NONBLOCKING void raise_max(Cell& cell, long seen) {
  long cur = cell.load();
  // hotpath-ok: bounded monotone CAS - every retry means another writer
  // already raised the value past us
  while (!cell.compare_exchange_weak(cur, seen)) {
    if (cur >= seen) return;
  }
}
struct Widget {
  EXPLORA_REALTIME int method(int v) const { return free_fn(v); }
};
int free_fn(int v) { return v - 1; }
}
"""}

BAD_LAYERING = {
    "src/netsim/bad.cpp":
        '#include "xai/shap.hpp"\n#include "common/a.hpp"\n',
    "src/zeta/odd.cpp": '#include "common/a.hpp"\n',
}

GOOD_LAYERING = {
    "src/xai/ok.cpp": ('#include "ml/nn.hpp"\n#include "common/a.hpp"\n'
                       '#include "xai/other.hpp"\n#include <vector>\n'),
    "src/common/ok.hpp": '#include "common/base.hpp"\n',
}


def self_test() -> int:
    _, bad_rt, _ = analyze_realtime(BAD_REALTIME)
    good_funcs, good_rt, good_waivers = analyze_realtime(GOOD_REALTIME)
    bad_layer, _ = check_layering(BAD_LAYERING)
    good_layer, _ = check_layering(GOOD_LAYERING)

    bad_rules = sorted(rule for _, _, rule, _ in bad_rt)
    ok = bad_rules == ["nonblocking-locks", "realtime-allocates",
                       "realtime-allocates", "realtime-allocates",
                       "realtime-blocks", "realtime-spins",
                       "realtime-throws", "waiver-missing-reason"]
    # The two-hop chain must be spelled out in the finding text.
    chain = [s for _, _, r, s in bad_rt
             if r == "realtime-allocates" and "hot_chain" in s]
    ok = ok and len(chain) == 1 and "deep" in chain[0] \
        and "grab" in chain[0] and "malloc" in chain[0]
    by_name = {f.qname: f for f in good_funcs}
    ok = ok and by_name["app::Widget::method"].annotation == "realtime"
    ok = ok and by_name["app::staging"].facts == {ALLOCATES}
    ok = ok and not good_rt
    ok = ok and len(good_waivers) == 2
    ok = ok and sorted(r for _, _, r, _ in bad_layer) == [
        "layer-back-edge", "layer-unknown-module"]
    ok = ok and not good_layer
    ok = ok and dag_acyclic(MODULES)
    ok = ok and not dag_acyclic({"a": {"b"}, "b": {"a"}})
    return lintlib.self_test_verdict(
        ok, bad_rt + bad_layer, good_rt + good_layer)


# --------------------------------------------------------------------------
# Injected-violation detection proof.

INJECTED = """\
// Injected by lint_hotpath.py --prove-detection: must trip BOTH parts.
#include "common/analysis_annotations.hpp"
#include "xai/shap.hpp"

namespace explora::netsim {

EXPLORA_REALTIME int injected_hot(int v) {
  int* leak = new int(v);
  return *leak;
}

}  // namespace explora::netsim
"""


def prove_detection(root: pathlib.Path) -> int:
    """Copies src/ to a temp tree, checks the clean copy is clean, then
    injects a realtime and a layering violation and requires both to be
    caught. Exit 0 only if detection is proven."""
    with tempfile.TemporaryDirectory() as td:
        tmp = pathlib.Path(td)
        shutil.copytree(root / "src", tmp / "src")
        clean = read_sources(tmp)
        _, rt0, _ = analyze_realtime(clean)
        layer0, _ = check_layering(clean)
        if rt0 or layer0:
            print("prove-detection: FAILED - tree not clean before "
                  "injection:")
            for rel, line, rule, snip in rt0 + layer0:
                print(f"  {rel}:{line}: [{rule}] {snip}")
            return 1
        (tmp / "src/netsim/injected_violation.cpp").write_text(
            INJECTED, encoding="utf-8")
        injected = read_sources(tmp)
        _, rt1, _ = analyze_realtime(injected)
        layer1, _ = check_layering(injected)
        rt_hit = [s for _, _, r, s in rt1
                  if r == "realtime-allocates" and "injected_hot" in s]
        layer_hit = [s for rel, _, r, s in layer1
                     if r == "layer-back-edge"
                     and "injected_violation" in rel]
        if rt_hit and layer_hit:
            print("prove-detection: ok - injected realtime violation "
                  "and layering back-edge both caught:")
            print(f"  {rt_hit[0]}")
            print(f"  {layer_hit[0]}")
            return 0
        print("prove-detection: FAILED")
        print(f"  realtime hits: {rt_hit}")
        print(f"  layering hits: {layer_hit}")
        return 1


# --------------------------------------------------------------------------
# Fixture regression (tests/lint_fixtures).

def fixture_test(fixture_dir: pathlib.Path) -> int:
    """Compares extraction over DIR/*.cpp|hpp against DIR/expected.json:
    per-function fact sets must match exactly and every expected call
    edge must resolve."""
    expected = json.loads(
        (fixture_dir / "expected.json").read_text(encoding="utf-8"))
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(fixture_dir.iterdir())
             if p.suffix in lintlib.EXTENSIONS}
    funcs, _, _ = analyze_realtime(files)
    by_name = {f.qname: f for f in funcs}
    errors = []
    for qname, want_facts in expected.get("facts", {}).items():
        f = by_name.get(qname)
        if f is None:
            errors.append(f"function not extracted: {qname}")
        elif sorted(f.facts) != sorted(want_facts):
            errors.append(f"{qname}: facts {sorted(f.facts)} != "
                          f"expected {sorted(want_facts)}")
    for caller, callee in expected.get("edges", []):
        f = by_name.get(caller)
        if f is None:
            errors.append(f"edge source not extracted: {caller}")
            continue
        targets = {c.qname for cands, _ in f.resolved for c in cands}
        if callee not in targets:
            errors.append(f"edge {caller} -> {callee} not resolved "
                          f"(resolved: {sorted(targets)})")
    for qname, tier in expected.get("annotations", {}).items():
        f = by_name.get(qname)
        if f is None:
            errors.append(f"function not extracted: {qname}")
        elif f.annotation != tier:
            errors.append(f"{qname}: annotation {f.annotation!r} != "
                          f"expected {tier!r}")
    if errors:
        print(f"fixture-test FAILED ({len(errors)} mismatch(es)):")
        for e in errors:
            print(f"  {e}")
        return 1
    n = (len(expected.get("facts", {})) + len(expected.get("edges", []))
         + len(expected.get("annotations", {})))
    print(f"fixture-test ok ({len(funcs)} functions, {n} assertions)")
    return 0


def main() -> int:
    parser = lintlib.standard_parser(__doc__)
    parser.add_argument("--part", choices=["realtime", "layering", "all"],
                        default="all", help="which analysis to run")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        metavar="PATH", help="write a JSON report")
    parser.add_argument("--prove-detection", action="store_true",
                        help="inject violations into a copy of src/ and "
                             "require both parts to catch them")
    parser.add_argument("--fixture-test", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="extraction regression against DIR/expected.json")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.fixture_test is not None:
        return fixture_test(args.fixture_test.resolve())
    if args.prove_detection:
        return prove_detection(args.root.resolve())
    return run_lint(args.root.resolve(), args.part, args.json)


if __name__ == "__main__":
    sys.exit(main())
