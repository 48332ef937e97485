#!/usr/bin/env bash
# Run the full test suite (unit + property + acceptance), then the
# benchmark's own tests, which look library functions up by name, then
# check the benchmark's result lines, then run every verify target and
# the census scale check.
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
# the record surface's census at growing fields: pinned line counts, and
# the GF(2^12) census within ROADMAP item 5's time and memory
python3 scripts/census_scale.py || status=$?
exit "$status"
