#!/usr/bin/env bash
# Run every built-in verification target of the CLI.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
targets=(s5-60 family-x schur-degenerate fermat-degenerate z0
         hessian-universal example-6-4 config-table)
status=0
for t in "${targets[@]}"; do
    echo "== verify $t =="
    python3 -m quartic_lines.cli verify "$t" || status=$?
done
exit "$status"
