#!/usr/bin/env bash
# Single entry point for every source lint: determinism (including the
# concurrency confinement rule) and the whole-program hot-path analyzer
# (realtime-safety call graph + module layering). check.sh and the CI
# `source-lints` job both call this script, so the set of lints is defined
# in exactly one place.
#
# Usage:
#   tools/lint.sh                 # self-tests + all lints over the tree
#   tools/lint.sh --no-self-test  # skip the lints' own self-tests
#   tools/lint.sh --json DIR      # also write hotpath_report.json into DIR
#
# Exit status is non-zero if any lint (or self-test) fails.
set -u

cd "$(dirname "$0")/.."

SELF_TEST=1
JSON_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-self-test) SELF_TEST=0; shift ;;
    --json) JSON_DIR="${2:?--json needs a directory}"; shift 2 ;;
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
  run_step "self-test:hotpath" python3 tools/lint_hotpath.py --self-test
  run_step "fixtures:hotpath" \
    python3 tools/lint_hotpath.py --fixture-test tests/lint_fixtures
fi

run_step "lint:determinism" python3 tools/lint_determinism.py --root .

HOTPATH_ARGS=(--part all --root .)
if [[ -n "${JSON_DIR}" ]]; then
  mkdir -p "${JSON_DIR}"
  HOTPATH_ARGS+=(--json "${JSON_DIR}/hotpath_report.json")
fi
run_step "lint:hotpath" python3 tools/lint_hotpath.py "${HOTPATH_ARGS[@]}"

echo
echo "==== lint summary ===="
printf '%s\n' "${RESULTS[@]}"
exit "${FAILED}"
