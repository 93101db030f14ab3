#!/usr/bin/env python3
"""Concurrency-coverage lint for the EXPLORA C++ sources.

The concurrency model (DESIGN.md §9) routes every lock through the
annotated types in common/thread_annotations.hpp, so clang's
thread-safety analysis sees the capability annotations on every guarded
member. That guarantee dies silently the moment someone declares a plain
std::mutex, so this lint enforces the funnel:

  raw-mutex          std::mutex / shared_mutex / recursive_* / timed_* /
                     lock_guard / unique_lock / scoped_lock / shared_lock /
                     condition_variable(_any) anywhere outside the wrapper
                     layer itself (common/thread_annotations.hpp, which is
                     exempt by path)
  unguarded-mutable  in a file that owns a Mutex/SharedMutex, a `mutable`
                     member that is neither the guard itself nor annotated
                     EXPLORA_GUARDED_BY - mutable members of lock-owning
                     classes are exactly the state const methods mutate
                     concurrently, so each needs a guard or an explicit
                     `// not-shared: <reason>` waiver

A finding on a line carrying `// conc-ok: <rule> (<reason>)` is
suppressed (`// not-shared: <reason>` for unguarded-mutable); the marker
documents why the construct is safe at that site.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import re
import sys

import lintlib
from lintlib import line_of, statement_span, strip_comments_and_strings

# The annotation layer wraps the raw primitives; it is the one place
# std:: synchronisation types may appear (its declarations still carry
# conc-ok markers as documentation).
RAW_MUTEX_EXEMPT = {"src/common/thread_annotations.hpp"}

RAW_MUTEX = re.compile(
    r"\bstd::(?:recursive_timed_mutex|recursive_mutex|shared_timed_mutex"
    r"|shared_mutex|timed_mutex|mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable_any|condition_variable)\b"
)

# A Mutex/SharedMutex variable or member declaration: the annotated type,
# an identifier, then an initialiser or terminator. Type references
# (`Mutex&`), the RAII wrappers (`MutexLock`, `WriterMutexLock`)
# and constructor declarations (`Mutex(...)`) do not match.
MUTEX_DECL = re.compile(
    r"\b(?:common::)?(?:SharedMutex|Mutex)\s+(\w+)\s*[;({=]"
)

MUTABLE = re.compile(r"\bmutable\b(?!\s*(?:\{|noexcept|->))")  # skip lambdas

GUARDED = re.compile(r"\bEXPLORA_GUARDED_BY\s*\(")
MUTEX_TYPE = re.compile(r"\b(?:common::)?(?:SharedMutex|Mutex)\b")

CONC_OK = lintlib.marker_pattern("conc-ok")
NOT_SHARED = re.compile(r"//\s*not-shared:\s*\S")


def conc_allowed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    return lintlib.marker_allows(raw_lines, lineno, CONC_OK, rule)


def not_shared_waived(raw_lines: list[str], first: int, last: int) -> bool:
    for lineno in range(first, last + 1):
        line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
        if NOT_SHARED.search(line):
            return True
    return False


def lint_text(raw: str, code: str, raw_mutex_exempt: bool = False):
    """All findings for one stripped source `code` (raw kept for the
    suppression markers, which live in comments)."""
    raw_lines = raw.splitlines()
    findings = []

    if not raw_mutex_exempt:
        for match in RAW_MUTEX.finditer(code):
            lineno = line_of(code, match.start())
            if not conc_allowed(raw_lines, lineno, "raw-mutex"):
                findings.append((lineno, "raw-mutex", match.group(0)))

    if MUTEX_DECL.search(code):
        for match in MUTABLE.finditer(code):
            lineno = line_of(code, match.start())
            statement, last_line = statement_span(code, match.start())
            if MUTEX_TYPE.search(statement):
                continue  # the guard itself
            if GUARDED.search(statement):
                continue
            if not_shared_waived(raw_lines, lineno, last_line):
                continue
            findings.append(
                (lineno, "unguarded-mutable", statement.split("\n")[0].strip()[:60])
            )

    return findings


def self_test() -> int:
    raw_bad = """
    std::mutex m;
    std::lock_guard<std::mutex> lock(m);
    std::shared_mutex rw;
    std::unique_lock<std::mutex> u(m);
    std::scoped_lock both(a, b);
    std::condition_variable cv;
    std::condition_variable_any cva;
    """
    raw_good = """
    std::mutex native_;  // conc-ok: raw-mutex (the wrapper itself)
    common::Mutex guarded_;
    // a comment naming std::lock_guard is fine
    const char* doc = "std::mutex is banned outside the wrapper";
    """
    mutable_bad = """
    Mutex mu_;
    mutable int cache_ = 0;
    mutable double scratch_[8];
    """
    mutable_good = """
    Mutex mu_;
    mutable common::SharedMutex rw_;
    mutable int hits_ EXPLORA_GUARDED_BY(mu_) = 0;
    mutable long spilled_
        EXPLORA_GUARDED_BY(mu_) = 0;
    mutable int misses_ = 0;  // not-shared: (owner-thread only, see ctor)
    auto f = [count]() mutable { return count + 1; };
    """
    mutable_no_mutex = """
    MutexLock lock(mu_);
    mutable int memo_ = 0;
    """

    def run(raw: str, exempt: bool = False):
        return lint_text(raw, strip_comments_and_strings(raw), exempt)

    raw_bad_findings = run(raw_bad)
    mutable_bad_findings = run(mutable_bad)
    bad = raw_bad_findings + mutable_bad_findings
    good = (run(raw_good) + run(mutable_good) + run(mutable_no_mutex)
            + run(raw_bad, exempt=True))

    ok = {rule for _, rule, _ in raw_bad_findings} == {"raw-mutex"}
    ok = ok and len(raw_bad_findings) >= 7
    ok = ok and ({rule for _, rule, _ in mutable_bad_findings}
                 == {"unguarded-mutable"})
    ok = ok and len(mutable_bad_findings) == 2
    ok = ok and not good
    return lintlib.self_test_verdict(ok, bad, good)


def main() -> int:
    args = lintlib.standard_parser(__doc__).parse_args()
    if args.self_test:
        return self_test()

    root = args.root.resolve()
    files = lintlib.collect_sources(root)
    if not files:
        return lintlib.no_sources_error("lint_concurrency", root)

    findings = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(raw)
        for lineno, rule, snippet in lint_text(
                raw, code, raw_mutex_exempt=rel in RAW_MUTEX_EXEMPT):
            findings.append((rel, lineno, rule, snippet))

    return lintlib.report_findings(
        "lint_concurrency", findings, len(files),
        ["suppress a safe site with: // conc-ok: <rule> (<why it is safe>)",
         "waive a non-shared mutable with: // not-shared: <reason>"])


if __name__ == "__main__":
    sys.exit(main())
