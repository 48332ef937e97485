#!/usr/bin/env bash
# Run every built-in verification target of the CLI, as listed in
# quartic_lines.cli._VERIFY, so that a new target runs here too.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
targets=$(python3 -c 'from quartic_lines.cli import _VERIFY
print("\n".join(_VERIFY))')
status=0
for t in $targets; do
    echo "== verify $t =="
    python3 -m quartic_lines.cli verify "$t" || status=$?
done
exit "$status"
