#!/usr/bin/env python3
"""Paired benchmark of the working tree against an earlier revision.

    python3 scripts/bench.py --parent HEAD~1 --pairs 10 --workload scan \
        --out BENCH.json

Extracts REV with `git archive` into a temporary directory, byte-compiles
both trees with `compileall` (so no run compiles a module at import, even
under PYTHONDONTWRITEBYTECODE=1, and `setup_s` and `peak_rss_mb` measure
run-time set-up and memory only) and runs the
unchanged `perfbench/run.py --trace 0` of each side in a fresh process, for
the `run_seconds` of the working tree's BENCHMARK.json, pair by pair, with
seed i on both sides of pair i (1, 2, ...) and the side that goes first
alternating.  For every metric it prints each side's median and
quartiles and the number of pairs the working tree won (every metric is
lower-is-better).  For each end-to-end metric of BENCHMARK.json it also
prints the relative change of the medians next to that metric's bound,
and a verdict: `gain` when the working tree won at least nine tenths of
the pairs (ties count for neither) and its median is lower than the
parent's by more than the parent's own quartile spread; else
`unresolved` when that spread, relative to the parent's median, is
wider than the bound and not every run of the working tree beats every
run of the parent; else `worse` past the bound, or `within`.  It writes the same figures, the raw runs and the
per-workload `# report` figures to the JSON file named by `--out`.
It hashes the working tree's `src/` and `perfbench/` `.py` files before
the first pair and after each run, and exits non-zero naming the files
that changed, since a source edited mid-run makes the remaining runs
measure a different program.  It also times one run of the tier-1
suite (`python -m pytest -q --continue-on-collection-errors` with `src`
on the path) in each side's tree, parent first, and writes that wall
time under `tier1`.  After the pairs of a workload it makes one traced
run (`perfbench/run.py --trace 1`, seed 1, the same length) per side and
writes its per-layer metrics side by side under `trace`, each with the
change's value relative to the parent's.  It writes each side's code
size, the total of `wc -l src/quartic_lines/*.py`, under `src_lines`.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def extract(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                             rev))) as tar:
        tar.extractall(dest)


def source_hashes(tree: str) -> Dict[str, str]:
    """SHA-256 of each `.py` file under the tree's src/ and perfbench/,
    by path relative to the tree."""
    out = {}
    for top in ("src", "perfbench"):
        for folder, _, names in os.walk(os.path.join(tree, top)):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, "rb") as fh:
                        out[os.path.relpath(path, tree)] = \
                            hashlib.sha256(fh.read()).hexdigest()
    return out


def changed_sources(before: Dict[str, str], tree: str) -> List[str]:
    """The files whose hash differs from `before`, added or removed ones
    included, sorted."""
    after = source_hashes(tree)
    return sorted(p for p in before.keys() | after.keys()
                  if before.get(p) != after.get(p))


def src_lines(tree: str) -> int:
    """The lines of the tree's `src/quartic_lines/*.py`, counted as
    `wc -l` counts them: newline characters."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "quartic_lines",
                                       "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run: its result line plus the `# report` figures."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, env=env, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: run failed in {tree} (exit {proc.returncode})\n"
                 + proc.stderr)
    result = json.loads(lines[-1])
    report = next(json.loads(ln[len("# report "):]) for ln in lines
                  if ln.startswith("# report "))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({f"report.{k}": v["value"] for k, v in report.items()})
    return {"seed": seed, "failed": result["failed"],
            "attempted": result["attempted"], "values": values}


def time_suite(tree: str) -> dict:
    """Wall time, exit status and last output line of one tier-1 run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"],
        capture_output=True, text=True, env=env, cwd=tree)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def spread(xs: List[float]) -> Dict[str, float]:
    med = statistics.median(xs)
    if len(xs) < 2:
        return {"median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def against_bound(a: List[float], b: List[float], bound: float) -> dict:
    """The change's median relative to the parent's (runs a, b, paired
    in order), the parent's quartile spread relative to its median, and
    the verdict."""
    p, c = spread(a), spread(b)
    change = (c["median"] - p["median"]) / p["median"]
    parent_spread = (p["q3"] - p["q1"]) / p["median"]
    won = sum(y < x for x, y in zip(a, b))
    if 10 * won >= 9 * len(a) and \
            p["median"] - c["median"] > p["q3"] - p["q1"]:
        verdict = "gain"
    elif parent_spread > bound and not max(b) < min(a):
        verdict = "unresolved"
    else:
        verdict = "worse" if change > bound else "within"
    return {"bound": bound, "change": change,
            "parent_spread": parent_spread, "verdict": verdict}


def summarize(runs: Dict[str, List[dict]], bounds: Dict[str, float]) -> dict:
    parent, change = runs["parent"], runs["change"]
    out = {}
    for name in parent[0]["values"]:
        a = [r["values"][name] for r in parent]
        b = [r["values"][name] for r in change]
        out[name] = {"parent": spread(a), "change": spread(b),
                     "change_won": sum(y < x for x, y in zip(a, b)),
                     "pairs": len(a)}
        if name in bounds:
            out[name]["gate"] = against_bound(a, b, bounds[name])
    return out


def side_by_side(parent: Dict[str, float], change: Dict[str, float]
                 ) -> Dict[str, dict]:
    """The metrics of one run per side, by name: both values (None where
    a side lacks the metric) and the change's relative to the parent's
    (None where that is undefined)."""
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name), change.get(name)
        out[name] = {"parent": p, "change": c,
                     "ratio": c / p if p and c is not None else None}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    choices=("record", "scan", "sweep"))
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    parent_rev = git("rev-parse", args.parent).decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"parent": parent_rev, "change": f"working tree on {head}",
           "pairs": args.pairs, "seconds": seconds,
           "seeds": list(range(1, args.pairs + 1)),
           "python": sys.version.split()[0], "bytecode": "precompiled",
           "workloads": {}, "trace": {}}
    with tempfile.TemporaryDirectory() as tmp:
        extract(parent_rev, tmp)
        trees = {"parent": tmp, "change": ROOT}
        doc["src_lines"] = {side: src_lines(tree)
                            for side, tree in trees.items()}
        print("src_lines: parent {parent} change {change}".format(
            **doc["src_lines"]))
        sources = source_hashes(ROOT)
        for tree in trees.values():
            if not compileall.compile_dir(tree, quiet=1):
                sys.exit(f"bench: byte-compiling {tree} failed")

        def run(side: str, workload: str, seed: int, trace: int = 0):
            out = run_once(trees[side], workload, seed, seconds, trace)
            changed = changed_sources(sources, ROOT)
            if changed:
                sys.exit("bench: working-tree sources changed during the "
                         "run: " + ", ".join(changed))
            return out

        for workload in args.workload:
            runs: Dict[str, List[dict]] = {"parent": [], "change": []}
            for i, seed in enumerate(doc["seeds"]):
                order = ["parent", "change"] if i % 2 == 0 else \
                    ["change", "parent"]
                for side in order:
                    runs[side].append(run(side, workload, seed))
                print(f"# {workload} pair {i + 1}/{args.pairs} seed {seed}",
                      file=sys.stderr, flush=True)
            metrics = summarize(runs, bounds)
            doc["workloads"][workload] = {
                "metrics": metrics,
                "failed": {side: sum(r["failed"] for r in rs)
                           for side, rs in runs.items()},
                "runs": runs}
            for name, m in metrics.items():
                p, c = m["parent"], m["change"]
                print(f"{workload} {name}: parent {p['median']:.4g} "
                      f"({p['q1']:.4g}-{p['q3']:.4g}) change "
                      f"{c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g}) "
                      f"won {m['change_won']}/{m['pairs']}")
                if "gate" in m:
                    g = m["gate"]
                    print(f"{workload} {name}: median {g['change']:+.1%} "
                          f"(bound {g['bound']:.0%}, parent spread "
                          f"{g['parent_spread']:.1%}) {g['verdict']}")
            doc["trace"][workload] = side_by_side(
                *(run(side, workload, 1, trace=1)["values"]
                  for side in ("parent", "change")))
            for name, t in doc["trace"][workload].items():
                print(f"{workload} trace {name}: parent {t['parent']} "
                      f"change {t['change']}")
        doc["tier1"] = {side: time_suite(trees[side])
                        for side in ("parent", "change")}
        for side, t in doc["tier1"].items():
            print(f"tier1 {side}: {t['wall_s']:.1f} s, exit {t['exit']}, "
                  f"{t['summary']}")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
