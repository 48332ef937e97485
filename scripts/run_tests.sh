#!/usr/bin/env bash
# Run the full test suite (unit + property + acceptance).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python3 -m pytest -v "$@"
