"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

# small instances: one operation of each kind, on small fields
TINY = {
    "record": lambda seed, **kw: workloads.Record(seed, lattice_trials=1,
                                                  **kw),
    "sweep": workloads.Sweep,
    # family X has 8 lines over GF(4)
    "scan": lambda seed, expected=None: workloads.Scan(
        seed, dict({"lines": 8}, **(expected or {})), census_ext=2,
        certificate_level=3),
}


def _run(name, trace=False, **kw):
    out = io.StringIO()
    result = run.execute(lambda seed: TINY[name](seed, **kw), 3, 0.0, trace,
                         out)
    return result, out.getvalue().splitlines()


@pytest.mark.parametrize("name", ["record", "sweep", "scan"])
def test_tiny_run_prints_every_end_to_end_metric(name):
    result, lines = _run(name)
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert lines[0].startswith(f"# perfbench workload={name} seed=3 inputs=")
    report = json.loads(lines[1][len("# report "):])
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}


def test_tiny_traced_run_prints_every_per_layer_metric():
    result, lines = _run("sweep", trace=True)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = result["metrics"]
    assert metrics["segre.build_dossier.calls"]["value"] == 1
    assert metrics["geometry.singular_point_search.calls"]["value"] >= 1
    assert metrics["pencil.singular_fibers.calls"]["value"] == 1


def test_per_layer_list_matches_benchmark_json():
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert spans.metric_units() == want


def test_wrong_expected_value_is_reported_as_failure():
    result, lines = _run("scan", expected={"lines": 9})
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 3
    assert any(ln.startswith("# failed op 0 (census): CheckFailed: family X "
                             "census lines: got 8, expected 9")
               for ln in lines)


def test_checkers():
    workloads.expect("x", 1, 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.expect("x", 60, 61)
    with pytest.raises(workloads.CheckFailed):
        workloads.expect_at_most("x", 19, 18)


def test_self_time_on_hand_built_tree():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap inside it;
    # 3: [8, 12] sticks out past its parent's end; 4: [2, 3] inside 1
    tree = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (8.0, 12.0, 0),
            (2.0, 3.0, 1)]
    assert spans.self_times(tree) == [10 - 5 - 2, 3 - 1, 3, 4, 1]


def test_tail_needs_ten_samples_beyond():
    assert workloads.tail([1.0] * 10)["value"] is None
    t = workloads.tail([float(i) for i in range(20)])
    assert (t["value"], t["percentile"], t["samples"]) == (9.0, 50, 20)


def test_traced_run_survives_a_removed_name(monkeypatch):
    from quartic_lines import field, poly
    # as if field.find_roots_int were gone; poly keeps its imported copy
    monkeypatch.delattr(field, "find_roots_int")
    result, lines = _run("sweep", trace=True)
    assert result["correct"]
    assert any(ln.startswith("# absent field.find_roots_int:")
               for ln in lines)
    assert not any(k.startswith("field.find_roots_int.")
                   for k in result["metrics"])
    assert result["metrics"]["poly.binary_roots.calls"]["value"] > 0
    assert poly.find_roots_int.__name__ == "find_roots_int"


def test_install_rebinds_imported_copies_and_uninstall_restores():
    from quartic_lines import pencil, segre
    original = pencil.singular_fibers
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert segre.singular_fibers is pencil.singular_fibers
        assert pencil.singular_fibers is not original
    finally:
        tracer.uninstall()
    assert segre.singular_fibers is original
    assert pencil.singular_fibers is original
