#!/usr/bin/env bash
# Single entry point for every source lint: the determinism lint, whose
# rules include concurrency confinement and module layering, with its
# self-test. check.sh and the CI `source-lints` job both call this script,
# so the set of lints is defined in exactly one place.
#
# Usage:
#   tools/lint.sh                 # self-tests + all lints over the tree
#   tools/lint.sh --no-self-test  # skip the lints' own self-tests
#
# Exit status is non-zero if any lint (or self-test) fails.
set -u

cd "$(dirname "$0")/.."

SELF_TEST=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-self-test) SELF_TEST=0; shift ;;
    *) echo "lint.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

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

if [[ "${SELF_TEST}" == 1 ]]; then
  run_step "self-test:determinism" python3 tools/lint_determinism.py --self-test
fi

run_step "lint:determinism" python3 tools/lint_determinism.py --root .

echo
echo "==== lint summary ===="
printf '%s\n' "${RESULTS[@]}"
exit "${FAILED}"
