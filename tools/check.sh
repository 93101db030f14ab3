#!/usr/bin/env bash
# Local pre-push correctness gate: builds and tests the repo under the full
# sanitizer matrix, runs the source lints via tools/lint.sh, and — when
# clang-tidy is installed — the clang-tidy pass. Mirrors
# .github/workflows/ci.yml so a clean run here means a green CI.
#
# Usage:
#   tools/check.sh              # default + asan + ubsan + tsan + lints
#   tools/check.sh --fast       # default preset + lints only
#   tools/check.sh asan ubsan   # explicit preset subset
#
# Each preset configures into its own build-<preset>/ tree (gitignored), so
# repeat runs are incremental.
set -u

cd "$(dirname "$0")/.."

PRESETS=(default asan ubsan tsan)
if [[ "${1:-}" == "--fast" ]]; then
  PRESETS=(default)
  shift
elif [[ $# -gt 0 ]]; then
  PRESETS=("$@")
fi

declare -a RESULTS=()
FAILED=0

run_step() {
  local label="$1"
  shift
  echo
  echo "==== ${label}: $* ===="
  if "$@"; then
    RESULTS+=("PASS  ${label}")
  else
    RESULTS+=("FAIL  ${label}")
    FAILED=1
  fi
}

for preset in "${PRESETS[@]}"; do
  run_step "configure:${preset}" cmake --preset "${preset}" -DEXPLORA_WERROR=ON
  run_step "build:${preset}" cmake --build --preset "${preset}" -j
  run_step "test:${preset}" ctest --preset "${preset}" -j "$(nproc)"
done

# lint.sh is the single entry point for every source lint (determinism,
# with the concurrency confinement and module layering rules).
run_step "lints" tools/lint.sh

if command -v run-clang-tidy >/dev/null 2>&1 && command -v clang-tidy >/dev/null 2>&1; then
  # The default preset's compile database drives the tidy pass; the checks
  # promoted to WarningsAsErrors in .clang-tidy make it a hard gate.
  run_step "lint:clang-tidy" run-clang-tidy -quiet -p build "src/.*\.cpp"
else
  echo
  echo "==== lint:clang-tidy skipped (clang-tidy not installed) ===="
  RESULTS+=("SKIP  lint:clang-tidy")
fi

echo
echo "==== summary ===="
printf '%s\n' "${RESULTS[@]}"
exit "${FAILED}"
