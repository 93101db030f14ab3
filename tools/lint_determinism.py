#!/usr/bin/env python3
"""Determinism lint for the EXPLORA C++ sources.

The repo's headline concurrency guarantee is bit-identical results at any
thread count (see DESIGN.md). That property survives only if the code never
consults ambient nondeterminism and never lets incidental ordering leak into
artifacts. This lint bans the constructs that historically break it:

  banned-random      std::rand/srand/std::random_device - all randomness must
                     flow through common::Rng seeded streams
  wall-clock         system_clock/high_resolution_clock/time(nullptr)/... -
                     wall-clock values must never seed or order computation
                     (steady_clock is allowed: it only measures durations)
  unordered-iter     iteration over std::unordered_{map,set} - ordering is
                     implementation-defined, so results must not depend on it
  macro-side-effect  ++/--/assignment inside EXPLORA_* contract conditions -
                     conditions are compiled out at EXPLORA_CHECK_LEVEL=off,
                     so they must be evaluation-count independent
  float-eq           ==/!= against a floating-point literal outside the
                     approved helpers (contracts::approx_equal)
  fault-rng          in the fault-injection path (impairments/reliable/chaos
                     sources) every Rng must be a named .fork("...") stream -
                     an ad-hoc Rng(seed) there would share or reseed the
                     simulation's streams and break chaos-run reproducibility
  telemetry-clock    in the telemetry path (telemetry/golden/trace_diff
                     sources) ANY chrono use is banned, steady_clock
                     included - snapshots must be bit-identical across runs,
                     so spans may only consume the registry's tick clock
  telemetry-unordered  unordered containers anywhere in the telemetry path -
                     snapshots serialise by iterating their containers, so
                     even declaring one risks ordering leaking into goldens
  simd-intrinsic     raw SIMD intrinsics (immintrin.h/arm_neon.h, _mm*/__m*,
                     NEON vector ops) outside the approved kernel files
                     (src/ml/gemm_<isa>.cpp, src/common/detmath_<isa>.cpp)
                     - ad-hoc vectorization is how
                     FMA/reassociation sneaks in and silently breaks the
                     byte-identity contract of DESIGN.md §10; new kernels
                     must live in an approved file and be covered by
                     tests/test_gemm.cpp or tests/test_detmath.cpp
  libm-transcendental  tanh, exp, log, sin, cos, sincos, log2, log10 and pow
                     from libm under src/, in any spelling (std::, ::, bare, the
                     f/l variants, __builtin_; a bare logf is the repo's
                     logger, common::logf) - the host libm's bits vary with
                     the libm version and the CPU's FMA support, and golden
                     traces pin them; every tanh, exp, log and sincos runs
                     the repo's math layer (common/detmath.hpp, whose own
                     files are exempt) or its lane-wise copies. The libm
                     log2, log10 and pow sites that remain (ROADMAP item 3)
                     carry det-ok markers
  concurrency-home   std::atomic*, the std:: mutex / lock / condition-variable
                     family and the __atomic_*/__sync_* builtins anywhere in
                     src/ outside CONCURRENCY_HOME (the pool, telemetry, the
                     log sink, the contract slots and the SIMD backend
                     slot) - shared state lives in one place, so a new lock
                     or atomic elsewhere is a design change, not a local
                     fix. No waiver: widening the list is a policy edit to
                     this lint (DESIGN.md §9)
  module-layering    a quoted `#include "module/..."` in src/<module>/ that
                     the declared module DAG (MODULES) does not allow, or a
                     src/ module the DAG does not declare. tools/, bench/
                     and tests/ sit above every module and are exempt. The
                     declared DAG is itself checked acyclic first. No
                     waiver: a new edge is a change to MODULES (DESIGN.md
                     §11)

A finding on a line carrying `// det-ok: <rule> (<reason>)` is suppressed
(concurrency-home and module-layering excepted); the marker documents why
the construct is safe at that site (e.g. an unordered iteration whose
results are sorted before use).

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import pathlib
import re
import sys

import lintlib
from lintlib import line_of, strip_comments_and_strings

RULES = {
    "banned-random": re.compile(
        r"\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b|\brandom_device\b"
    ),
    "wall-clock": re.compile(
        r"\bsystem_clock\b|\bhigh_resolution_clock\b"
        r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
        r"|\bgettimeofday\s*\(|\blocaltime\s*\(|\bgmtime\s*\("
    ),
    "float-eq": re.compile(
        r"(?:==|!=)\s*[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fFlL]?"
        r"|(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fFlL]?\s*(?:==|!=)"
    ),
}

DET_OK = lintlib.marker_pattern("det-ok")

# SIMD kernels live only in these files (runtime-dispatched by ml/gemm.cpp
# and common/detmath.cpp, compiled with -ffp-contract=off like every TU);
# intrinsics anywhere else are findings.
KERNEL_FILE = re.compile(
    r"(?:gemm|detmath)_(?:avx2|avx512|neon|sve|rvv)\.cpp$")
SIMD_INTRINSIC = re.compile(
    r"\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
    r"|\bimmintrin\.h\b|\barm_neon\.h\b|\bfloat64x\d_t\b"
    r"|\bv(?:ld1q|st1q|dupq|mulq|addq|fmaq)_f64\b"
)

# The host libm's transcendentals, in any spelling. A name qualified by
# anything but std:: (detmath::log, common::logf) is not libm's, and a bare
# logf is the repo's logger, so neither matches.
_LIBM_NAMES = r"(?:tanh|exp|log|sin|cos|sincos|log2|log10|pow)"
LIBM_TRANSCENDENTAL = re.compile(
    r"(?<![\w.>:])(?:std::|::)?(?:" + _LIBM_NAMES + r"l?"
    r"|(?!logf)" + _LIBM_NAMES + r"f)\s*\("
    r"|\bstd::" + _LIBM_NAMES + r"[fl]?\b"
    r"|\b__builtin_" + _LIBM_NAMES + r"[fl]?\b"
)
# The math layer itself defines detmath::log and friends.
MATH_HOME = "src/common/detmath"


# The only src/ files that may hold atomics, locks or condition variables.
CONCURRENCY_HOME = (
    "src/common/parallel.hpp", "src/common/parallel.cpp",
    "src/common/telemetry.hpp", "src/common/telemetry.cpp",
    "src/common/log.cpp", "src/common/contracts.hpp",
    "src/common/detmath.cpp",
)
CONCURRENCY_PRIMITIVE = re.compile(
    r"\bstd::(?:atomic\w*"
    r"|(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b"
    r"|\b__(?:atomic|sync)_\w+"
)

# The declared module layering: each module under src/ maps to the modules
# it may include (its own is always allowed). A per-module allow-set is
# stronger than a linear order: xai may not include netsim although both
# sit above common. netsim's domain types sit beneath ml because agents
# size their heads off the RAN action space (DESIGN.md §11).
MODULES: dict[str, set[str]] = {
    "common": set(),
    "netsim": {"common"},
    "ml": {"common", "netsim"},
    "xai": {"common", "ml"},
    "oran": {"common", "netsim", "ml"},
    "explora": {"common", "netsim", "ml", "xai", "oran"},
    "harness": {"common", "netsim", "ml", "xai", "oran", "explora"},
}
QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

CONTRACT_MACRO = re.compile(r"\bEXPLORA_(?:EXPECTS|ENSURES|ASSERT|AUDIT)(_MSG)?\s*\(")

SIDE_EFFECT = re.compile(
    r"\+\+|--"                                   # increment / decrement
    r"|(?<![=!<>+\-*/%&|^<>])=(?!=)"             # plain assignment
    r"|[+\-*/%&|^]=(?!=)"                        # compound assignment
    r"|<<=|>>="                                  # shift assignment
)

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")

# Files that make up the fault-injection path; Rng use there must be a named
# fork so chaos runs stay bit-reproducible and independent of other streams.
FAULT_PATH_FILE = re.compile(
    r"(?:impairments|reliable|chaos|serving|explain_service)[^/\\]*$")
FAULT_RNG = re.compile(r"\bRng\s*(?:\w+\s*)?[({]")
FORKED = re.compile(r"\.fork\s*\(")

# Files that make up the deterministic-telemetry path. Their snapshots are
# committed as goldens and must be bit-identical across runs and thread
# counts, so the whole path gets a stricter clock rule (no chrono at all,
# steady_clock included) and a declaration-level unordered-container ban.
TELEMETRY_PATH_FILE = re.compile(r"(?:telemetry|golden|trace_diff)[^/\\]*$")
TELEMETRY_RULES = {
    "telemetry-clock": re.compile(r"\bchrono\b|\bsteady_clock\b"),
    "telemetry-unordered": re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\b"
    ),
}


def declared_unordered_names(code: str) -> set[str]:
    """Names of variables/members declared with an unordered container type,
    matching template argument lists by bracket balance."""
    names = set()
    for match in UNORDERED_DECL.finditer(code):
        depth, j = 1, match.end()
        while j < len(code) and depth > 0:
            if code[j] == "<":
                depth += 1
            elif code[j] == ">":
                depth -= 1
            j += 1
        tail = code[j:]
        m = re.match(r"\s*&?\s*(\w+)\s*(?:;|=|\{|,|\))", tail)
        if m:
            names.add(m.group(1))
    return names


def contract_condition_spans(code: str):
    """Yields (offset, condition) for every EXPLORA_* macro invocation; for
    _MSG variants the condition is the first top-level argument only."""
    for match in CONTRACT_MACRO.finditer(code):
        depth, j = 1, match.end()
        start = match.end()
        end = None
        while j < len(code) and depth > 0:
            c = code[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "," and depth == 1 and end is None:
                end = j
            j += 1
        if end is None:
            end = j - 1
        yield start, code[start:end]


def allowed(raw_lines: list[str], lineno: int, rule: str) -> bool:
    return lintlib.marker_allows(raw_lines, lineno, DET_OK, rule)


def dag_acyclic(modules: dict[str, set[str]]) -> bool:
    """Kahn's algorithm over the declared allow-sets."""
    deps = {m: set(d) & set(modules) for m, d in modules.items()}
    done: set[str] = set()
    while True:
        ready = {m for m, d in deps.items() if m not in done and d <= done}
        if not ready:
            return len(done) == len(deps)
        done |= ready


def layering_findings(rel: str, raw: str):
    """module-layering findings for one file at repo-relative `rel`.
    Includes are read from the raw text: stripping blanks their quoted
    paths, and a commented-out #include does not start its line."""
    parts = pathlib.PurePosixPath(rel).parts
    if len(parts) < 3 or parts[0] != "src":
        return []
    module = parts[1]
    if module not in MODULES:
        return [(1, "module-layering",
                 f"module '{module}' is not declared in MODULES")]
    allowed = MODULES[module] | {module}
    findings = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = QUOTED_INCLUDE.match(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target in MODULES and target not in allowed:
            findings.append((lineno, "module-layering",
                             f"{module} may not include {m.group(1)}"))
    return findings


RANGE_FOR = re.compile(r"for\s*\(\s*[^;:()]*?:\s*([\w.\->]+)\s*\)")


def lint_text(raw: str, code: str, unordered_names: set[str],
              fault_path: bool = False, telemetry_path: bool = False,
              kernel_file: bool = False, src_file: bool = False,
              concurrency_home: bool = False, math_home: bool = False):
    """All findings for one stripped source `code` (raw kept for det-ok)."""
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()
    findings = []

    if src_file and not concurrency_home:
        for match in CONCURRENCY_PRIMITIVE.finditer(code):
            findings.append((line_of(code, match.start()), "concurrency-home",
                             match.group(0)))

    if src_file and not math_home:
        for match in LIBM_TRANSCENDENTAL.finditer(code):
            lineno = line_of(code, match.start())
            if not allowed(raw_lines, lineno, "libm-transcendental"):
                findings.append(
                    (lineno, "libm-transcendental", match.group(0).strip()))

    if not kernel_file:
        for match in SIMD_INTRINSIC.finditer(code):
            lineno = line_of(code, match.start())
            if not allowed(raw_lines, lineno, "simd-intrinsic"):
                findings.append(
                    (lineno, "simd-intrinsic", match.group(0).strip())
                )

    if telemetry_path:
        for rule, pattern in TELEMETRY_RULES.items():
            for match in pattern.finditer(code):
                lineno = line_of(code, match.start())
                if not allowed(raw_lines, lineno, rule):
                    findings.append((lineno, rule, match.group(0).strip()))

    if fault_path:
        for match in FAULT_RNG.finditer(code):
            lineno = line_of(code, match.start())
            line = code_lines[lineno - 1] if lineno - 1 < len(code_lines) else ""
            if FORKED.search(line):
                continue  # Rng(seed).fork("name") on the same line
            if not allowed(raw_lines, lineno, "fault-rng"):
                findings.append((lineno, "fault-rng", match.group(0).strip()))

    for rule, pattern in RULES.items():
        for match in pattern.finditer(code):
            lineno = line_of(code, match.start())
            if not allowed(raw_lines, lineno, rule):
                findings.append((lineno, rule, match.group(0).strip()))

    for offset, condition in contract_condition_spans(code):
        m = SIDE_EFFECT.search(condition)
        if m:
            lineno = line_of(code, offset + m.start())
            if not allowed(raw_lines, lineno, "macro-side-effect"):
                findings.append(
                    (lineno, "macro-side-effect", condition.strip()[:60])
                )

    for match in RANGE_FOR.finditer(code):
        target = match.group(1).split(".")[-1].split("->")[-1]
        if target in unordered_names:
            lineno = line_of(code, match.start())
            if not allowed(raw_lines, lineno, "unordered-iter"):
                findings.append((lineno, "unordered-iter", match.group(0)))

    return findings


def self_test() -> int:
    bad = """
    int x = std::rand();
    auto s = std::chrono::system_clock::now();
    auto t = time(nullptr);
    if (a == 1.0) {}
    if (0.5 != b) {}
    int y = std::rand();  // other-ok: another lint's marker
    EXPLORA_EXPECTS(++n < 5);
    EXPLORA_ASSERT(x = 3);
    EXPLORA_EXPECTS_MSG(total += 1, "grew to {}", total);
    std::unordered_map<int, int> table;
    for (const auto& kv : table) {}
    """
    good = """
    auto t0 = std::chrono::steady_clock::now();  // duration only
    if (a == 1.0) {}  // det-ok: float-eq (documented reason)
    if (b != 2.0) {}  // det-ok: float-eq (reason) other-ok: x
    EXPLORA_EXPECTS(n + 1 < 5);
    EXPLORA_EXPECTS(a <= b && c >= d && e != f);
    EXPLORA_EXPECTS_MSG(x < y, "x = {}, y = {}", x, y);
    std::unordered_map<int, int> table;
    for (const auto& kv : table) {}  // det-ok: unordered-iter (sorted below)
    const char* doc = "std::rand() is banned";  // string literal, not code
    // comment mentioning srand( and time(nullptr) is fine
    """
    fault_bad = """
    common::Rng rng(seed);
    auto draws = common::Rng{seed};
    """
    fault_good = """
    rng_(common::Rng(seed).fork("impairments")),
    common::Rng rng(seed);  // det-ok: fault-rng (seed derivation only)
    common::Rng& stream = parent;
    """
    telemetry_bad = """
    auto t0 = std::chrono::steady_clock::now();
    std::unordered_map<std::string, MetricSnapshot> metrics;
    """
    telemetry_good = """
    std::map<std::string, MetricSnapshot, std::less<>> metrics;
    registry.set_now(now_);
    // comment naming steady_clock is fine
    """
    simd_bad = """
    #include <immintrin.h>
    __m256d acc = _mm256_setzero_pd();
    acc = _mm256_fmadd_pd(a, b, acc);
    float64x2_t lanes = vld1q_f64(ptr);
    """
    simd_good = """
    // a comment naming _mm256_add_pd( is fine
    const char* doc = "__m512d lives in gemm_avx512.cpp";
    matrix.multiply_batch(x, y);
    """
    libm_bad = """
    double a = std::tanh(x);
    double b = tanh(x);
    double c = ::tanh(x);
    long double d = tanhl(x);
    double e = __builtin_tanh(x);
    using std::tanh;
    double f = std::exp(x);
    float g = expf(x);
    double h = ::exp(x);
    long double i = std::expl(x);
    double j = __builtin_exp(x);
    using std::exp;
    double k = std::exp(-mean);  // det-ok: libm-tanh (another rule's tag)
    double l = std::log(u1);
    double m = log(u1);
    long double n = ::logl(u1);
    double o = std::sin(angle);
    double p = cos(angle);
    sincos(angle, &s, &c);
    double q = std::log10(gain);
    double q2 = p * std::log2(p / mid);
    double r = std::pow(beta, t);
    double s2 = __builtin_log(u1);
    using std::cos;
    float t = sinf(angle);
    """
    libm_good = """
    // std::tanh( and std::exp( in a comment are fine
    const char* doc = "tanh(x) and exp(x) live in common/detmath";
    case Epilogue::kBiasTanh: apply_tanh(v); layer.tanh_grad(y);
    double d = rng.exponential(1.0); gemm::exp_array(x, y, n);
    double w = std::exp(-d);  // det-ok: libm-transcendental (ROADMAP item 3)
    double e = detmath::exp(x) + detmath::log(u1) + detmath::tanh(x);
    const detmath::SinCos sc = detmath::sincos(angle); sc.sin + sc.cos;
    detmath::log_array(u, y, n); detmath::log_sincos_array(u, a, l, s, c, n);
    common::logf(common::LogLevel::kInfo, "chaos", "{} runs", n);
    void logf(LogLevel level, std::string_view component);
    double q = std::log10(gain);  // det-ok: libm-transcendental (item 3)
    sum += p * std::log2(p);  // det-ok: libm-transcendental (item 3)
    sink.log(line); stream->cos(x); double sinh_x = sinh(x);
    """
    concurrency_bad = """
    std::atomic<std::uint64_t> evaluations_{0};
    std::mutex scratch_mutex_;
    const std::lock_guard<std::mutex> lock(scratch_mutex_);
    std::condition_variable_any cv; std::shared_lock<std::shared_mutex> r(m);
    __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED); __sync_synchronize();
    std::atomic_ref<int> ref(n);  // det-ok: concurrency-home (no waiver)
    """
    concurrency_good = """
    std::uint64_t evaluations_ = 0;  // std::atomic in a comment is fine
    const char* doc = "std::mutex lives in common/parallel";
    std::unique_ptr<Matrix> probes; std::lock(a, b); mutex_count += 1;
    """
    bad_code = strip_comments_and_strings(bad)
    bad_findings = lint_text(bad, bad_code, declared_unordered_names(bad_code))
    good_code = strip_comments_and_strings(good)
    good_findings = lint_text(good, good_code,
                              declared_unordered_names(good_code))
    fault_bad_code = strip_comments_and_strings(fault_bad)
    fault_bad_findings = lint_text(fault_bad, fault_bad_code, set(),
                                   fault_path=True)
    fault_good_code = strip_comments_and_strings(fault_good)
    fault_good_findings = lint_text(fault_good, fault_good_code, set(),
                                    fault_path=True)
    telemetry_bad_code = strip_comments_and_strings(telemetry_bad)
    telemetry_bad_findings = lint_text(telemetry_bad, telemetry_bad_code,
                                       set(), telemetry_path=True)
    telemetry_good_code = strip_comments_and_strings(telemetry_good)
    telemetry_good_findings = lint_text(telemetry_good, telemetry_good_code,
                                        set(), telemetry_path=True)
    libm_bad_code = strip_comments_and_strings(libm_bad)
    libm_bad_findings = lint_text(libm_bad, libm_bad_code, set(),
                                  src_file=True)
    libm_good_code = strip_comments_and_strings(libm_good)
    libm_good_findings = lint_text(libm_good, libm_good_code, set(),
                                   src_file=True)
    # Outside src/ (tools/) and in the math layer the rule does not apply.
    libm_tools_findings = lint_text(libm_bad, libm_bad_code, set())
    libm_home_findings = lint_text(libm_bad, libm_bad_code, set(),
                                   src_file=True, math_home=True)
    concurrency_bad_code = strip_comments_and_strings(concurrency_bad)
    concurrency_bad_findings = lint_text(concurrency_bad, concurrency_bad_code,
                                         set(), src_file=True)
    concurrency_good_code = strip_comments_and_strings(concurrency_good)
    concurrency_good_findings = lint_text(
        concurrency_good, concurrency_good_code, set(), src_file=True)
    # The same bad sample is allowed in a concurrency home and outside src/.
    concurrency_home_findings = lint_text(
        concurrency_bad, concurrency_bad_code, set(), src_file=True,
        concurrency_home=True)
    concurrency_tools_findings = lint_text(concurrency_bad,
                                           concurrency_bad_code, set())
    simd_bad_code = strip_comments_and_strings(simd_bad)
    simd_bad_findings = lint_text(simd_bad, simd_bad_code, set())
    simd_good_code = strip_comments_and_strings(simd_good)
    simd_good_findings = lint_text(simd_good, simd_good_code, set())
    # The same bad sample inside an approved kernel file is exempt.
    simd_kernel_findings = lint_text(simd_bad, simd_bad_code, set(),
                                     kernel_file=True)
    expect_rules = {
        "banned-random", "wall-clock", "float-eq",
        "macro-side-effect", "unordered-iter",
    }
    seen_rules = {rule for _, rule, _ in bad_findings}
    ok = expect_rules <= seen_rules and len(bad_findings) >= 8
    ok = ok and not good_findings
    ok = ok and {rule for _, rule, _ in fault_bad_findings} == {"fault-rng"}
    ok = ok and len(fault_bad_findings) == 2
    ok = ok and not fault_good_findings
    telemetry_rules = {rule for _, rule, _ in telemetry_bad_findings}
    ok = ok and telemetry_rules == {"telemetry-clock", "telemetry-unordered"}
    ok = ok and not telemetry_good_findings
    ok = ok and {rule for _, rule, _ in simd_bad_findings} == {"simd-intrinsic"}
    ok = ok and len(simd_bad_findings) >= 4
    ok = ok and not simd_good_findings
    ok = ok and not simd_kernel_findings
    libm_rules = {rule for _, rule, _ in libm_bad_findings}
    ok = ok and libm_rules == {"libm-transcendental"}
    ok = ok and len(libm_bad_findings) == 25
    ok = ok and not libm_good_findings
    ok = ok and not libm_tools_findings
    ok = ok and not libm_home_findings
    concurrency_snippets = [snippet for _, _, snippet in concurrency_bad_findings]
    ok = ok and {rule for _, rule, _ in concurrency_bad_findings} == {
        "concurrency-home"}
    ok = ok and concurrency_snippets == [
        "std::atomic", "std::mutex", "std::lock_guard", "std::mutex",
        "std::condition_variable_any", "std::shared_lock", "std::shared_mutex",
        "__atomic_fetch_add", "__sync_synchronize", "std::atomic_ref"]
    ok = ok and not concurrency_good_findings
    ok = ok and not concurrency_home_findings
    ok = ok and not concurrency_tools_findings
    layering_bad = {
        "src/netsim/bad.cpp": ('#include "xai/shap.hpp"\n'
                               '#include "common/a.hpp"\n'),
        "src/zeta/odd.cpp": '#include "common/a.hpp"\n',
    }
    layering_good = {
        "src/xai/ok.cpp": ('#include "ml/nn.hpp"\n#include "common/a.hpp"\n'
                           '#include "xai/other.hpp"\n#include <vector>\n'
                           '// #include "netsim/gnb.hpp"\n'),
        "src/common/ok.hpp": '#include "common/base.hpp"\n',
        "tools/cli.cpp": '#include "harness/experiment.hpp"\n',
    }
    layering_bad_findings = [f for rel, raw in layering_bad.items()
                             for f in layering_findings(rel, raw)]
    layering_good_findings = [f for rel, raw in layering_good.items()
                              for f in layering_findings(rel, raw)]
    ok = ok and [(line, rule) for line, rule, _ in layering_bad_findings] == [
        (1, "module-layering"), (1, "module-layering")]
    ok = ok and not layering_good_findings
    ok = ok and dag_acyclic(MODULES)
    ok = ok and not dag_acyclic({"a": {"b"}, "b": {"c"}, "c": {"a"}})
    bad_findings = (bad_findings + fault_bad_findings + telemetry_bad_findings
                    + simd_bad_findings + libm_bad_findings
                    + concurrency_bad_findings + layering_bad_findings)
    good_findings = (good_findings + fault_good_findings
                     + telemetry_good_findings + simd_good_findings
                     + libm_good_findings + concurrency_good_findings
                     + layering_good_findings)
    return lintlib.self_test_verdict(ok, bad_findings, good_findings)


def main() -> int:
    args = lintlib.standard_parser(__doc__).parse_args()
    if args.self_test:
        return self_test()

    root = args.root.resolve()
    files = lintlib.collect_sources(root)
    if not files:
        return lintlib.no_sources_error("lint_determinism", root)
    if not dag_acyclic(MODULES):
        print("lint_determinism: declared module DAG (MODULES) is cyclic",
              file=sys.stderr)
        return 2

    # Unordered container members are declared in headers and iterated in
    # .cpp files, so collect declaration names across the whole scan set.
    raws = {path: path.read_text(encoding="utf-8") for path in files}
    stripped = {path: strip_comments_and_strings(raw)
                for path, raw in raws.items()}
    unordered_names: set[str] = set()
    for code in stripped.values():
        unordered_names |= declared_unordered_names(code)

    findings = []
    for path in files:
        fault_path = bool(FAULT_PATH_FILE.search(path.name))
        telemetry_path = bool(TELEMETRY_PATH_FILE.search(path.name))
        kernel_file = bool(KERNEL_FILE.search(path.name))
        rel = path.relative_to(root).as_posix()
        src_file = rel.startswith("src/")
        for lineno, rule, snippet in lint_text(raws[path], stripped[path],
                                               unordered_names, fault_path,
                                               telemetry_path, kernel_file,
                                               src_file,
                                               rel in CONCURRENCY_HOME,
                                               rel.startswith(MATH_HOME)):
            findings.append((rel, lineno, rule, snippet))
        for lineno, rule, snippet in layering_findings(rel, raws[path]):
            findings.append((rel, lineno, rule, snippet))

    return lintlib.report_findings(
        "lint_determinism", findings, len(files),
        ["suppress a safe site with: // det-ok: <rule> (<why it is safe>)",
         "a new module edge is a change to MODULES in this lint"])


if __name__ == "__main__":
    sys.exit(main())
