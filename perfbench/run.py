"""Seeded benchmark of the quartic_lines library.

    python3 perfbench/run.py --workload record --seed 1 --seconds 45 --trace 0

Runs one workload (see workloads.py) in this process on one thread as a
closed loop for about `--seconds` seconds, checks every output, and prints
a human-readable report followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones (END_TO_END); with `--trace 1` they are the
per-layer ones (spans.metric_units): each operation then runs twice, once
untraced and once traced on a second instance of the workload, and the
difference is the tracing overhead.  The library is imported from the `src`
directory next to this one and nowhere else.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Callable, Dict, TextIO  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "job_s": "s",
              "peak_rss_mb": "MB"}


def import_library() -> None:
    """Put the checkout's `src` first on the path and make sure the library
    comes from there; exit with code 2 otherwise."""
    package = os.path.realpath(os.path.join(SRC, "quartic_lines"))
    if not os.path.isfile(os.path.join(package, "geometry.py")):
        print(f"perfbench: no quartic_lines sources under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import quartic_lines
    found = [os.path.realpath(p) for p in quartic_lines.__path__]
    if found != [package]:
        print(f"perfbench: quartic_lines imported from {found}, "
              f"not from {package}", file=sys.stderr)
        sys.exit(2)


def _attempt(op) -> tuple:
    """Run and check one operation: (latency, None) or (None, exception)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
        elapsed = time.perf_counter() - t0
        op.check(result)
    except Exception as exc:  # every failure is counted, none retried
        return None, exc
    return elapsed, None


class Tally:
    """Latency samples per operation kind, and the failures."""

    def __init__(self):
        self.samples: Dict[str, list] = defaultdict(list)
        self.attempted: Dict[str, int] = defaultdict(int)
        self.failures = []

    def add(self, op_id: int, kind: str, elapsed, exc) -> None:
        self.attempted[kind] += 1
        if exc is None:
            self.samples[kind].append(elapsed)
        else:
            self.failures.append((op_id, kind, exc))

    def total(self) -> float:
        return sum(sum(v) for v in self.samples.values())


def measure(workload, seconds: float, twin=None, tracer=None):
    """Run the closed loop; stop at the first operation boundary after
    `seconds` once every required kind ran.  With `twin`, a second set-up
    instance of the same workload and seed, each operation also runs on the
    twin with `tracer` installed, right before or after the untraced one, so
    the traced and untraced latency of the same work are taken seconds
    apart.  The order alternates, so that warm caches on whichever runs
    second do not bias the overhead one way."""
    plain, traced = Tally(), Tally()
    twin_ops = twin.ops() if twin is not None else None
    start = time.perf_counter()
    for op_id, op in enumerate(workload.ops()):
        if (time.perf_counter() - start >= seconds
                and all(plain.attempted[k] for k in workload.required)):
            break
        pair = [(plain, op, contextlib.nullcontext())]
        if twin is not None:
            tracer.op = op_id
            pair.append((traced, next(twin_ops), tracer))
            if op_id % 2:
                pair.reverse()
        for tally, this, context in pair:
            with context:
                tally.add(op_id, this.kind, *_attempt(this))
    return plain, traced, time.perf_counter() - start


def set_up(make: Callable, seed: int):
    """Set the workload up SETUP_REPEATS times; return the last instance
    and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make(seed)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_failures(tally: Tally, label: str, out: TextIO) -> None:
    for op_id, kind, exc in tally.failures:
        print(f"# failed {label}op {op_id} ({kind}): "
              f"{type(exc).__name__}: {exc}", file=out)


def execute(make: Callable, seed: int, seconds: float, trace: bool,
            out: TextIO = sys.stdout, import_s: float = 0.0) -> dict:
    workload, setup_s = set_up(make, seed)
    tracer = twin = None
    if trace:
        tracer = spans.Tracer()
        twin = make(seed)
        with tracer:
            twin.setup()
    plain, traced, wall_s = measure(workload, seconds, twin, tracer)
    summary = workload.summary(plain.samples)
    attempted = sum(plain.attempted.values())
    failed = len(plain.failures)
    report = {name: dict(value if isinstance(value, dict)
                         else {"value": value}, unit=unit)
              for name, (value, unit) in summary["report"].items()}
    report["wall_s"] = _metric(wall_s, "s")
    report["failed_frac"] = _metric(failed / attempted, "ratio")
    print(f"# perfbench workload={workload.name} seed={seed} "
          f"inputs={workload.digest()} trace={int(trace)}", file=out)
    print("# report " + json.dumps(report), file=out)
    _print_failures(plain, "", out)

    if not trace:
        values = {"setup_s": import_s + setup_s,
                  "op_p50_s": summary["op_p50_s"],
                  "job_s": summary["job_s"],
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    else:
        twin.summary(traced.samples)
        units = spans.metric_units(tracer.targets)
        values = dict.fromkeys(spans.WORKLOAD_COUNTS, 0)
        values.update({k: v for k, v in twin.counts.items() if k in units})
        values.update(spans.layer_metrics(tracer))
        values["trace.overhead_s"] = traced.total() - plain.total()
        values["trace.overhead_frac"] = traced.total() / plain.total() - 1
        for metric, note in tracer.absent.items():
            print(f"# absent {metric}: {note}", file=out)
        metrics = {name: _metric(values[name], unit)
                   for name, unit in units.items() if name in values}
        _print_failures(traced, "traced ", out)
        failed += len(traced.failures)
        attempted += sum(traced.attempted.values())
        tracer.save(os.path.join(
            HERE, "out", f"trace-{workload.name}-seed{seed}.npz"))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("record", "sweep", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    import workloads
    import_s = time.perf_counter() - _T0
    try:
        execute(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                bool(args.trace), import_s=import_s)
    except Exception:  # set-up or reporting broke: no result line
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
