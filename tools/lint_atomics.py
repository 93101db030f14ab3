#!/usr/bin/env python3
"""Cross-TU atomics discipline lint for the EXPLORA C++ sources.

Atomic machinery (DESIGN.md SS14) is kept small by policy: every use of
std::atomic / compiler atomic intrinsics must live in an explicitly
allowlisted file, and every atomic operation must spell
out its memory_order. On top of those local rules, the lint builds a
cross-translation-unit table of atomic variables (declarations in
headers, operations in any allowlisted TU, keyed by variable name) and
checks ordering PAIRING per variable:

  atomic-outside-allowlist  atomic machinery in a file not on the list
  atomic-implicit-order     an op relying on the seq_cst default
  atomic-relaxed-publish    a relaxed store to a variable that is read
                            with acquire somewhere - the acquire reader
                            documents a publication protocol the store
                            does not honor
  atomic-unpaired-release   release stores with no acquire-side reader
                            anywhere: the release fence orders nothing
  atomic-relaxed-unreasoned a variable used only with relaxed ordering
                            must say WHY relaxed is sound, via a marker
                            on its declaration
  atomics-marker-unknown    a marker category outside the vocabulary

The reasoning marker grammar is

  // atomics-ok: <category> (<free-text reason>)

on the declaration line or the comment run directly above it; the same
marker on an operation line waives the pairing rules at that single site
(e.g. pre-publication-init for a relaxed store in a constructor).
Categories are a closed vocabulary (see VOCABULARY) so reasons stay
comparable across the tree.

The per-name variable table is deliberately type-blind: distinct
variables sharing a name are merged conservatively (any acquire reader
anywhere makes every relaxed store to that name suspect). That is the
point - cross-TU pairing cannot be checked per-file, and names of
atomics in this codebase are unique or deliberately aligned.

Modes: --json PATH (machine-readable report), --self-test (embedded
corpora), --prove-detection (copies src/ to a temp tree, injects a
relaxed-publish ordering bug and an unapproved atomic, and proves both
are caught while the clean copy stays clean), --fixture-test DIR
(regression against DIR/expected.json).

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
# Policy tables.

#: Files allowed to contain atomic machinery, with the reason each earns
#: its slot. Everything else under src/ must use the abstractions these
#: files export (counters, scopes) instead of raw atomics.
ALLOWLIST: dict[str, str] = {
    "src/common/contracts.hpp":
        "single-writer scope guard + contract-handler gate",
    "src/common/log.cpp": "log-level gate flag",
    "src/common/parallel.cpp": "work-claim ticket for the chunked pool",
    "src/common/telemetry.hpp":
        "relaxed counter/gauge/histogram/span folds",
    "src/common/telemetry.cpp": "histogram bucket folds",
    "src/ml/gemm.cpp": "SIMD backend dispatch slot",
    "src/xai/shap.hpp": "model-eval tally",
    "src/xai/shap.cpp": "model-eval tally",
}

#: Closed set of reasoning-marker categories. Adding a category here is a
#: review decision, not a local edit.
VOCABULARY = frozenset([
    "commutative-counter",   # order-free add fold; readers tolerate lag
    "monotone-cas",          # raise/lower-only CAS fold; retry is bounded
    "gate-flag",             # on/off toggle that publishes no data
    "pre-publication-init",  # store before any reader thread can exist
    "approx-snapshot",       # racy read of a best-effort statistic
    "dispatch-slot",         # any racing reader sees a valid value
    "claim-ticket",          # slot claim; a separate release publishes
    "owner-handoff",         # ownership transfer documented at the site
    "bounded-retry",         # retry count bounded by concurrent writers
])

#: Any atomic machinery at all - the allowlist gate.
ATOMIC_TOKEN = re.compile(
    r"\bstd\s*::\s*atomic(?:_(?:flag|ref|thread_fence|signal_fence))?\b"
    r"|\b__atomic_\w+|\b__sync_\w+")

#: Member operations whose memory_order argument we audit. clear() and
#: test_and_set() are omitted: `.clear(` is overwhelmingly a container op.
OP = re.compile(
    r"(?:\.|->)\s*(load|store|exchange"
    r"|compare_exchange_weak|compare_exchange_strong"
    r"|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor)\s*\(")

#: Ops that are unambiguously atomic regardless of receiver type; for
#: load/store/exchange the receiver must resolve to a known atomic
#: variable (keeps `cfg.load(path)`-style methods out of scope).
UNAMBIGUOUS_OPS = frozenset([
    "compare_exchange_weak", "compare_exchange_strong",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
])

ORDER_TOKEN = re.compile(
    r"\bmemory_order(?:_|\s*::\s*)"
    r"(relaxed|consume|acquire|release|acq_rel|seq_cst)\b")

#: Identifiers that forward a memory_order parameter (wrappers taking an
#: `order` argument): explicit by construction.
FORWARDED_ORDER = re.compile(r"\b(?:order|success|failure|mo)\b")

#: Declaration heads: the atomic template whose variable name follows the
#: closing angle bracket (possibly through `[]>`, `&`, `*` for
#: unique_ptr-of-array and reference parameters).
DECL_TOKEN = re.compile(
    r"\bstd\s*::\s*atomic\s*<")

ATOMICS_OK = re.compile(r"//\s*atomics-ok:\s*([\w-]+)(?:\s*\(([^)]*)\))?")

LOAD_ACQ = frozenset(["acquire", "acq_rel", "seq_cst", "consume"])
STORE_REL = frozenset(["release", "acq_rel", "seq_cst"])


# --------------------------------------------------------------------------
# Lexical helpers.

def match_bracket(code: str, i: int, open_ch: str, close_ch: str) -> int:
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


def marker_at(raw_lines: list[str], lineno: int) -> str | None:
    """Category of an atomics-ok marker on `lineno` or in the comment run
    directly above it, else None."""
    def category(ln: int) -> str | None:
        if 1 <= ln <= len(raw_lines):
            m = ATOMICS_OK.search(raw_lines[ln - 1])
            if m:
                return m.group(1)
        return None

    cat = category(lineno)
    if cat:
        return cat
    ln = lineno - 1
    while ln >= 1 and raw_lines[ln - 1].lstrip().startswith("//"):
        cat = category(ln)
        if cat:
            return cat
        ln -= 1
    return None


def receiver_before(code: str, dot: int) -> str | None:
    """Identifier of the object an op is invoked on, scanning back from
    the `.`/`->` at `dot` through whitespace and one `[...]` index. A
    `)` receiver (call expression) returns None."""
    j = dot - 1
    if code[dot] == ">":  # the `>` of `->`
        j = dot - 2
    while j >= 0 and code[j] in " \t\n\r":
        j -= 1
    if j >= 0 and code[j] == "]":
        depth = 0
        while j >= 0:
            if code[j] == "]":
                depth += 1
            elif code[j] == "[":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
        while j >= 0 and code[j] in " \t\n\r":
            j -= 1
    if j >= 0 and code[j] == ")":
        return None
    end = j + 1
    while j >= 0 and (code[j].isalnum() or code[j] == "_"):
        j -= 1
    name = code[j + 1:end]
    return name or None


def classify_order(op: str, args: str) -> tuple[str | None, str | None]:
    """(store_order, load_order) for one op given its argument text.
    Orders are the lexical memory_order suffixes, "forwarded" for a
    forwarded order parameter, or None when the op relies on the
    default. CAS success order governs both sides of the RMW."""
    orders = ORDER_TOKEN.findall(args)
    explicit: str | None
    if orders:
        explicit = orders[0]
    elif FORWARDED_ORDER.search(args):
        explicit = "forwarded"
    else:
        explicit = None
    if op == "load":
        return (None, explicit)
    if op == "store":
        return (explicit, None)
    return (explicit, explicit)  # exchange / CAS / fetch_* are RMWs


# --------------------------------------------------------------------------
# Data model.

class Var:
    """One atomic variable name, merged across every allowlisted TU."""

    __slots__ = ("name", "decls", "ops")

    def __init__(self, name: str):
        self.name = name
        self.decls: list[tuple[str, int, str | None]] = []  # rel, line, marker
        # rel, line, op, store_order, load_order, site_marker
        self.ops: list[tuple[str, int, str, str | None, str | None,
                             str | None]] = []

    def orders(self) -> set[str]:
        out: set[str] = set()
        for _, _, _, s, l, _ in self.ops:
            if s is not None:
                out.add(s)
            if l is not None:
                out.add(l)
        return out

    def has_acquire_reader(self) -> bool:
        return any(l in LOAD_ACQ for _, _, _, _, l, _ in self.ops if l)

    def has_release_writer(self) -> bool:
        return any(s in STORE_REL for _, _, _, s, _, _ in self.ops if s)


# --------------------------------------------------------------------------
# Analysis.

def scan_decls(rel: str, code: str, raw_lines: list[str],
               variables: dict[str, Var]) -> None:
    """Registers every atomic variable declared in one allowlisted file:
    `std::atomic<T> name`, atomics behind
    `unique_ptr<...[]>`, and reference parameters."""
    for m in DECL_TOKEN.finditer(code):
        open_angle = code.index("<", m.start())
        close = match_bracket(code, open_angle, "<", ">")
        if close == -1:
            continue
        i = close + 1
        n = len(code)
        while i < n and code[i] in " \t\n\r[]>&*":
            i += 1
        name_m = re.match(r"[A-Za-z_]\w*", code[i:])
        if not name_m:
            continue
        name = name_m.group(0)
        j = i + name_m.end()
        while j < n and code[j] in " \t\n\r":
            j += 1
        # `name(` is a function declarator, not a variable.
        if j < n and code[j] == "(":
            continue
        if j < n and code[j] not in "{=;,)[":
            continue
        lineno = line_of(code, i)
        var = variables.setdefault(name, Var(name))
        var.decls.append((rel, lineno, marker_at(raw_lines, lineno)))


def scan_ops(rel: str, code: str, raw_lines: list[str],
             variables: dict[str, Var],
             findings: list[tuple[str, int, str, str]]) -> None:
    """Records every audited atomic op in one allowlisted file and flags
    implicit-order uses on the spot."""
    for m in OP.finditer(code):
        op = m.group(1)
        dot = m.start()
        if code[dot] == "-":
            dot += 1  # receiver_before wants the `>` of `->`
        receiver = receiver_before(code, dot)
        known = receiver is not None and receiver in variables
        if not known and op not in UNAMBIGUOUS_OPS and receiver is not None:
            continue  # some non-atomic `.load(path)`-style method
        open_paren = code.index("(", m.end(1))
        close = match_bracket(code, open_paren, "(", ")")
        args = code[open_paren + 1:close] if close != -1 else ""
        store_order, load_order = classify_order(op, args)
        lineno = line_of(code, m.start())
        if store_order is None and load_order is None:
            findings.append(
                (rel, lineno, "atomic-implicit-order",
                 f".{op}(...) relies on the seq_cst default; spell out "
                 f"the memory_order"))
            continue
        if known:
            assert receiver is not None
            variables[receiver].ops.append(
                (rel, lineno, op, store_order, load_order,
                 marker_at(raw_lines, lineno)))


def analyze(files: dict[str, str], allowlist: dict[str, str]
            ) -> tuple[dict[str, Var], list[tuple[str, int, str, str]],
                       list[tuple[str, int, str, str | None]]]:
    """Runs the whole lint over {relpath: raw text}. Returns
    (variables, findings, markers)."""
    findings: list[tuple[str, int, str, str]] = []
    markers: list[tuple[str, int, str, str | None]] = []
    stripped: dict[str, str] = {}
    lines: dict[str, list[str]] = {}
    for rel in sorted(files):
        raw = files[rel]
        lines[rel] = raw.splitlines()
        stripped[rel] = strip_comments_and_strings(raw)
        for ln, line in enumerate(lines[rel], start=1):
            mm = ATOMICS_OK.search(line)
            if mm:
                markers.append((rel, ln, mm.group(1), mm.group(2)))
                if mm.group(1) not in VOCABULARY:
                    findings.append(
                        (rel, ln, "atomics-marker-unknown",
                         f"category '{mm.group(1)}' is not in the "
                         f"vocabulary (see tools/lint_atomics.py)"))
        if rel not in allowlist:
            for mm in ATOMIC_TOKEN.finditer(stripped[rel]):
                findings.append(
                    (rel, line_of(stripped[rel], mm.start()),
                     "atomic-outside-allowlist",
                     f"'{mm.group(0)}' - atomics are confined to the "
                     f"allowlist in tools/lint_atomics.py; use the "
                     f"exported abstractions instead"))

    variables: dict[str, Var] = {}
    for rel in sorted(files):
        if rel in allowlist:
            scan_decls(rel, stripped[rel], lines[rel], variables)
    for rel in sorted(files):
        if rel in allowlist:
            scan_ops(rel, stripped[rel], lines[rel], variables, findings)

    for name in sorted(variables):
        var = variables[name]
        if not var.ops:
            continue
        acquire_read = var.has_acquire_reader()
        release_written = var.has_release_writer()
        if acquire_read:
            for rel, lineno, op, s, _, site in var.ops:
                if s == "relaxed" and site is None:
                    findings.append(
                        (rel, lineno, "atomic-relaxed-publish",
                         f"relaxed {op} to '{name}', which is acquire-"
                         f"read elsewhere; publish with release or mark "
                         f"the site with // atomics-ok: <category> (...)"))
        elif release_written:
            for rel, lineno, op, s, _, site in var.ops:
                if s in STORE_REL and site is None:
                    findings.append(
                        (rel, lineno, "atomic-unpaired-release",
                         f"release {op} to '{name}' but no acquire-side "
                         f"reader exists anywhere; the release orders "
                         f"nothing"))
        concrete = {o for o in var.orders() if o != "forwarded"}
        if concrete and concrete <= {"relaxed"}:
            for rel, lineno, marker in var.decls:
                if marker is None:
                    findings.append(
                        (rel, lineno, "atomic-relaxed-unreasoned",
                         f"'{name}' is used only with relaxed ordering; "
                         f"say why that is sound with // atomics-ok: "
                         f"<category> (<reason>) on the declaration"))
    findings.sort(key=lambda t: (t[0], t[1], t[2]))
    return variables, findings, markers


# --------------------------------------------------------------------------
# Drivers.

def read_sources(root: pathlib.Path) -> dict[str, str]:
    files = lintlib.collect_sources(root, scan_dirs=("src",))
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in files}


def write_json_report(path: pathlib.Path, files: dict[str, str],
                      variables: dict[str, Var], findings: list,
                      markers: list) -> None:
    report = {
        "files": len(files),
        "allowlist": dict(sorted(ALLOWLIST.items())),
        "vocabulary": sorted(VOCABULARY),
        "variables": [
            {"name": v.name,
             "decls": [{"file": rel, "line": line, "marker": marker}
                       for rel, line, marker in v.decls],
             "orders": sorted(v.orders()),
             "acquire_read": v.has_acquire_reader(),
             "release_written": v.has_release_writer(),
             "ops": len(v.ops)}
            for _, v in sorted(variables.items()) if v.ops or v.decls],
        "markers": [
            {"file": rel, "line": line, "category": cat, "reason": reason}
            for rel, line, cat, reason in markers],
        "findings": [
            {"file": rel, "line": line, "rule": rule, "detail": detail}
            for rel, line, rule, detail in findings],
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_lint(root: pathlib.Path, json_path: pathlib.Path | None) -> int:
    files = read_sources(root)
    if not files:
        return lintlib.no_sources_error("lint_atomics", root)
    variables, findings, markers = analyze(files, ALLOWLIST)
    if json_path is not None:
        write_json_report(json_path, files, variables, findings, markers)
    return lintlib.report_findings(
        "lint_atomics", findings, len(files),
        ["reason a deliberate site or declaration with: "
         "// atomics-ok: <category> (<reason>)",
         "categories are a closed vocabulary; extending it is an edit to "
         "tools/lint_atomics.py reviewed like any policy change",
         "atomic-outside-allowlist has no marker: move the code or earn "
         "an allowlist slot"])


# --------------------------------------------------------------------------
# Self-test corpora.

#: The production allowlist plus two fixture slots that hold the self-test
#: corpora and the detection proof's injected code.
FIXTURE_ALLOWLIST: dict[str, str] = {
    **ALLOWLIST,
    "src/common/fixture.hpp": "lint self-test fixture",
    "src/common/fixture.cpp": "lint self-test fixture",
}

BAD_ATOMICS = {
    "src/common/fixture.hpp": """
namespace explora::common {
class BadDeque {
  // atomics-ok: totally-novel-category (not in the vocabulary)
  std::atomic<long> top_{0};
  std::atomic<long> bottom_{0};
  std::atomic<int> epoch_{0};
  std::atomic<int> gate_{0};
 public:
  long top() const { return top_.load(std::memory_order_acquire); }
  void bump_top(long v) { top_.store(v, std::memory_order_relaxed); }
  void close_gate() { gate_.store(1, std::memory_order_release); }
  int gate() const { return gate_.load(std::memory_order_relaxed); }
  void tick() { epoch_.fetch_add(1, std::memory_order_relaxed); }
  int peek_epoch() const { return epoch_.load(); }
};
}
""",
    "src/netsim/bad.cpp": """
namespace explora::netsim {
std::atomic<int> rogue{0};
}
""",
}

GOOD_ATOMICS = {
    "src/common/fixture.hpp": """
namespace explora::common {
class GoodDeque {
  std::atomic<long> top_{0};
  // atomics-ok: commutative-counter (steal tally; order-free add fold)
  std::atomic<long> steals_{0};
 public:
  long top() const { return top_.load(std::memory_order_acquire); }
  void publish_top(long v) { top_.store(v, std::memory_order_release); }
  bool claim_top(long& expected, long v) {
    return top_.compare_exchange_strong(expected, v,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }
  void init_top(long v) {
    // atomics-ok: pre-publication-init (ctor only; no reader yet)
    top_.store(v, std::memory_order_relaxed);
  }
  void count_steal() { steals_.fetch_add(1, std::memory_order_relaxed); }
  long steals() const { return steals_.load(std::memory_order_relaxed); }
};
}
""",
    "src/common/fixture.cpp": """
namespace explora::common {
void forward_store(std::atomic<long>& cell, long v,
                   std::memory_order order) {
  cell.store(v, order);
}
long peek(GoodDeque& d) { return d.top(); }
}
""",
    "src/netsim/clean.cpp":
        "namespace explora::netsim {\nint plain() { return 1; }\n}\n",
}


def self_test() -> int:
    _, bad, _ = analyze(BAD_ATOMICS, FIXTURE_ALLOWLIST)
    good_vars, good, _ = analyze(GOOD_ATOMICS, FIXTURE_ALLOWLIST)

    bad_rules = sorted(rule for _, _, rule, _ in bad)
    ok = bad_rules == ["atomic-implicit-order", "atomic-outside-allowlist",
                       "atomic-relaxed-publish", "atomic-relaxed-unreasoned",
                       "atomic-unpaired-release", "atomics-marker-unknown"]
    by_rule = {rule: (rel, line) for rel, line, rule, _ in bad}
    ok = ok and by_rule.get("atomic-outside-allowlist", ("",))[0] == \
        "src/netsim/bad.cpp"
    ok = ok and by_rule.get("atomic-relaxed-publish", ("",))[0] == \
        "src/common/fixture.hpp"
    ok = ok and not good
    top = good_vars.get("top_")
    ok = ok and top is not None and top.has_acquire_reader() \
        and top.has_release_writer()
    cell = good_vars.get("cell")
    ok = ok and cell is not None and cell.orders() == {"forwarded"}
    return lintlib.self_test_verdict(ok, bad, good)


# --------------------------------------------------------------------------
# Injected-violation detection proof.

INJECTED_ORDER_BUG_HPP = """\
// Injected by lint_atomics.py --prove-detection: a relaxed store that is
// acquire-read from another TU - the classic broken publication.
namespace explora::common {
struct InjectedFlag {
  std::atomic<int> injected_ready_{0};
  void publish() { injected_ready_.store(1, std::memory_order_relaxed); }
};
}
"""

INJECTED_ORDER_BUG_CPP = """\
namespace explora::common {
int injected_consume(InjectedFlag& f) {
  return f.injected_ready_.load(std::memory_order_acquire);
}
}
"""

INJECTED_ROGUE = """\
// Injected by lint_atomics.py --prove-detection: atomic machinery in a
// module that has no allowlist slot.
namespace explora::netsim {
std::atomic<int> injected_rogue{0};
}
"""


def prove_detection(root: pathlib.Path) -> int:
    """Copies src/ to a temp tree, checks the clean copy is clean, then
    injects a cross-TU relaxed-publish ordering bug and an unapproved
    atomic and requires both to be caught."""
    with tempfile.TemporaryDirectory() as td:
        tmp = pathlib.Path(td)
        shutil.copytree(root / "src", tmp / "src")
        _, clean, _ = analyze(read_sources(tmp), FIXTURE_ALLOWLIST)
        if clean:
            print("prove-detection: FAILED - tree not clean before "
                  "injection:")
            for rel, line, rule, detail in clean:
                print(f"  {rel}:{line}: [{rule}] {detail}")
            return 1
        (tmp / "src/common/fixture.hpp").write_text(
            INJECTED_ORDER_BUG_HPP, encoding="utf-8")
        (tmp / "src/common/fixture.cpp").write_text(
            INJECTED_ORDER_BUG_CPP, encoding="utf-8")
        (tmp / "src/netsim/injected_atomics.cpp").write_text(
            INJECTED_ROGUE, encoding="utf-8")
        _, found, _ = analyze(read_sources(tmp), FIXTURE_ALLOWLIST)
        order_hit = [d for _, _, r, d in found
                     if r == "atomic-relaxed-publish"
                     and "injected_ready_" in d]
        rogue_hit = [d for rel, _, r, d in found
                     if r == "atomic-outside-allowlist"
                     and "injected_atomics" in rel]
        if order_hit and rogue_hit:
            print("prove-detection: ok - injected relaxed-publish order "
                  "bug and unapproved atomic both caught:")
            print(f"  {order_hit[0]}")
            print(f"  src/netsim/injected_atomics.cpp: {rogue_hit[0]}")
            return 0
        print("prove-detection: FAILED")
        print(f"  order-bug hits: {order_hit}")
        print(f"  rogue-atomic hits: {rogue_hit}")
        return 1


# --------------------------------------------------------------------------
# Fixture regression (tests/lint_fixtures/atomics).

def fixture_test(fixture_dir: pathlib.Path) -> int:
    """Compares analysis over DIR/*.cpp|hpp against DIR/expected.json.
    Files whose names start with `outside_` are treated as off-allowlist;
    everything else is allowlisted."""
    expected = json.loads(
        (fixture_dir / "expected.json").read_text(encoding="utf-8"))
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(fixture_dir.iterdir())
             if p.suffix in lintlib.EXTENSIONS}
    allowlist = {name: "fixture" for name in files
                 if not name.startswith("outside_")}
    variables, findings, _ = analyze(files, allowlist)
    errors = []
    got_rules = sorted(rule for _, _, rule, _ in findings)
    want_rules = sorted(expected.get("findings", []))
    if got_rules != want_rules:
        errors.append(f"findings {got_rules} != expected {want_rules}")
    for name, want in expected.get("variables", {}).items():
        var = variables.get(name)
        if var is None:
            errors.append(f"variable not tracked: {name}")
            continue
        if sorted(var.orders()) != sorted(want.get("orders", [])):
            errors.append(f"{name}: orders {sorted(var.orders())} != "
                          f"expected {sorted(want['orders'])}")
        decl_markers = sorted({m for _, _, m in var.decls if m})
        if decl_markers != sorted(want.get("markers", [])):
            errors.append(f"{name}: decl markers {decl_markers} != "
                          f"expected {sorted(want.get('markers', []))}")
    if errors:
        print(f"fixture-test FAILED ({len(errors)} mismatch(es)):")
        for e in errors:
            print(f"  {e}")
        return 1
    n = len(expected.get("variables", {})) + len(
        expected.get("findings", []))
    print(f"fixture-test ok ({len(variables)} variables, "
          f"{n} assertions)")
    return 0


def main() -> int:
    parser = lintlib.standard_parser(__doc__)
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        metavar="PATH", help="write a JSON report")
    parser.add_argument("--prove-detection", action="store_true",
                        help="inject an ordering bug and an unapproved "
                             "atomic into a copy of src/ and require both "
                             "to be caught")
    parser.add_argument("--fixture-test", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="regression against DIR/expected.json")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.fixture_test is not None:
        return fixture_test(args.fixture_test.resolve())
    if args.prove_detection:
        return prove_detection(args.root.resolve())
    return run_lint(args.root.resolve(), args.json)


if __name__ == "__main__":
    sys.exit(main())
