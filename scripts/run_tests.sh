#!/usr/bin/env bash
# Run the full test suite (unit + property + acceptance), then the
# benchmark's own tests, which look library functions up by name, then
# check the benchmark's result lines, then run every verify target.
set -uo pipefail
cd "$(dirname "$0")/.."
status=0
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -v "$@" \
    || status=$?
# perfbench puts src/ on the path itself and refuses a second copy there
python3 -m pytest perfbench -q || status=$?
# the benchmark's result lines at both trace levels, as its runs read them
python3 scripts/check_bench_output.py || status=$?
# the CLI's built-in verification targets, whose reports must not change
scripts/verify_all.sh || status=$?
exit "$status"
