"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 --seconds 45

Runs `run.py` once per seed, one run at a time, and prints per metric the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread:
the distance between the first and third quartile as a share of the
median.  `--json FILE` also writes every run's result there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="45")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "report": lines[:-1], "result": result})
        values = {k: round(v["value"], 4) if isinstance(v["value"], float)
                  else v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    names = runs[0]["result"]["metrics"]
    summary = {name: spread([r["result"]["metrics"][name]["value"]
                             for r in runs]) for name in names}
    if len(runs) > 1:
        for name, s in summary.items():
            print(f"{name}: median {s['median']:.4g} q1 {s['q1']:.4g} "
                  f"q3 {s['q3']:.4g} spread {s['spread']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
