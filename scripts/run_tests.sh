#!/usr/bin/env bash
# Run the full test suite (unit + property + acceptance), then the
# benchmark's own tests, which look library functions up by name.
set -uo pipefail
cd "$(dirname "$0")/.."
status=0
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m pytest -v "$@" \
    || status=$?
# perfbench puts src/ on the path itself and refuses a second copy there
python3 -m pytest perfbench -q || status=$?
exit "$status"
