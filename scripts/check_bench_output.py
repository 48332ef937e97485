#!/usr/bin/env python3
"""Check the result lines of the benchmark's own runs.

    python3 scripts/check_bench_output.py

Runs `perfbench/run.py --seed 1 --seconds 0` for the `record` and `scan`
workloads at `--trace 0` and `--trace 1`, each in a fresh process with
PYTHONPATH unset (as `scripts/bench.py` does).  A run passes when it
exits 0, its last stdout line parses as strict JSON (NaN and Infinity are
refused), that line says `"correct": true`, and every metric that
BENCHMARK.json lists for the run is present with a numeric value: the
end-to-end metrics at trace 0, the per-layer ones at trace 1.  The
`# absent` lines of a traced run are printed.  Exits 1 if any run fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("record", "scan")


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def check(workload: str, trace: int, wanted: list) -> list:
    """The faults of one run's result line; empty when it passes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, env=env, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("# absent"):
            print(f"  {line}")
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse_constant)
    except ValueError as exc:
        return [f"last line is not a result ({exc}): {lines[-1][:200]}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {lines[-1][:200]}"]
    faults = [] if result.get("correct") is True else ["correct is not true"]
    metrics = result.get("metrics", {})
    for name in wanted:
        value = metrics.get(name, {}).get("value")
        if type(value) not in (int, float):
            faults.append(f"metric {name} missing or not a number")
    return faults


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {trace: [m["name"] for m in bench[key]]
              for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            faults = check(workload, trace, wanted[trace])
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not faults else 'FAILED'}")
            for fault in faults:
                print(f"  {fault}")
            status = status or int(bool(faults))
    return status


if __name__ == "__main__":
    sys.exit(main())
