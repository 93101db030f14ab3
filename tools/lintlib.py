"""Shared plumbing for the EXPLORA source lints.

lint_determinism.py (tools/) is built on this module: the file set it
walks, the way it blanks comments and string literals, its line-level
suppression markers with the `// <marker>: <rule> (<reason>)` grammar,
and its `path:line: [rule] snippet` finding format, which editors and CI
parse. The lint itself keeps only its rule tables and scanning logic.

Nothing here is specific to one lint: a new analysis script should need
only `collect_sources`, `strip_comments_and_strings`, `marker_pattern`
plus `marker_allows`, and the `report_findings`/`self_test_verdict`
drivers to look and behave exactly like lint_determinism.py.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

#: Directories scanned by default, relative to the repository root. Tests
#: are exercised by their own harness; generated build trees are skipped.
SCAN_DIRS = ("src", "tools")

#: C++ source extensions the lints care about.
EXTENSIONS = {".hpp", ".cpp", ".h", ".cc"}


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving line
    breaks so findings keep their line numbers.

    Suppression markers live inside comments, so callers keep the raw
    text around for marker lookups and scan only the stripped copy.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(" " * (min(j, n - 1) + 1 - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(code: str, offset: int) -> int:
    """1-based line number of `offset` in `code`."""
    return code.count("\n", 0, offset) + 1


def collect_sources(root: pathlib.Path) -> list[pathlib.Path]:
    """All lint-relevant sources under `root`, sorted for stable output."""
    return sorted(
        path
        for scan_dir in SCAN_DIRS
        for path in (root / scan_dir).rglob("*")
        if path.suffix in EXTENSIONS
    )


def marker_pattern(name: str) -> re.Pattern[str]:
    """Compiled suppression-marker pattern for `// <name>: <rule>`.

    The rule group is optional: a bare `// name:` marker suppresses any
    rule on that line, a named one suppresses only that rule. Reasons in
    trailing parentheses are free text and not captured.
    """
    return re.compile(rf"//\s*{re.escape(name)}:\s*([\w-]+)?")


def marker_allows(
    raw_lines: list[str], lineno: int, pattern: re.Pattern[str], rule: str
) -> bool:
    """True when the raw line carries a marker suppressing `rule`."""
    line = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
    m = pattern.search(line)
    return bool(m) and (m.group(1) is None or m.group(1) == rule)


def standard_parser(doc: str | None) -> argparse.ArgumentParser:
    """The argparse front end every lint shares (--root, --self-test)."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--root", type=pathlib.Path, default=pathlib.Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint's own positive/negative samples")
    return parser


def report_findings(
    lint_name: str,
    findings: list[tuple[str, int, str, str]],
    file_count: int,
    suppress_hints: list[str],
) -> int:
    """Prints `(relpath, line, rule, snippet)` findings in the shared
    format plus the summary/hint footer; returns the lint exit code."""
    for rel, lineno, rule, snippet in findings:
        print(f"{rel}:{lineno}: [{rule}] {snippet}")
    if findings:
        print(f"\n{lint_name}: {len(findings)} finding(s) "
              f"across {file_count} files")
        for hint in suppress_hints:
            print(hint)
        return 1
    print(f"{lint_name}: clean ({file_count} files)")
    return 0


def no_sources_error(lint_name: str, root: pathlib.Path) -> int:
    print(f"{lint_name}: no sources under {root}", file=sys.stderr)
    return 2


def self_test_verdict(ok: bool, bad: list, good: list) -> int:
    """Prints the shared self-test report. `bad` holds the findings the
    negative samples produced (expected non-empty), `good` those from the
    positive samples (expected empty)."""
    if not ok:
        print("self-test FAILED")
        print("  bad findings:", sorted(bad))
        print("  good findings:", sorted(good))
        return 1
    print(f"self-test ok ({len(bad)} expected findings, 0 false positives)")
    return 0
