"""The source check of scripts/bench.py: a paired run stops when a file
it measures changes under it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_changed_sources_names_each_edited_added_or_removed_file(tmp_path):
    files = {"src/pkg/a.py": "x = 1\n", "src/pkg/b.py": "y = 2\n",
             "perfbench/run.py": "z = 3\n", "src/pkg/notes.txt": "n\n",
             "scripts/tool.py": "t = 4\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    before = bench.source_hashes(str(tmp_path))
    assert sorted(before) == ["perfbench/run.py", "src/pkg/a.py",
                              "src/pkg/b.py"]
    assert bench.changed_sources(before, str(tmp_path)) == []
    # files outside src/ and perfbench/, and non-Python files, are not
    # measured
    (tmp_path / "scripts/tool.py").write_text("t = 5\n")
    (tmp_path / "src/pkg/notes.txt").write_text("m\n")
    assert bench.changed_sources(before, str(tmp_path)) == []
    (tmp_path / "src/pkg/a.py").write_text("x = 2\n")
    (tmp_path / "src/pkg/b.py").unlink()
    (tmp_path / "perfbench/spans.py").write_text("s = 0\n")
    assert bench.changed_sources(before, str(tmp_path)) == [
        "perfbench/spans.py", "src/pkg/a.py", "src/pkg/b.py"]


def test_gain_verdict_on_synthetic_runs():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # every pair won, by far more than the parent's quartile spread
    gate = bench.against_bound(parent, [0.85 * x for x in parent], 0.25)
    assert gate["verdict"] == "gain" and round(gate["change"], 6) == -0.15
    # a tie wins no pair
    assert bench.against_bound(parent, parent, 0.25)["verdict"] == "within"
    # eight of ten pairs won is not enough, however large the gain
    eight = [0.5 * x for x in parent[:8]] + parent[8:]
    assert bench.against_bound(parent, eight, 0.25)["verdict"] == "within"
    # every pair won, by less than the parent's own quartile spread
    wide = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.75, 1.1, 0.9, 1.25]
    gate = bench.against_bound(wide, [x - 0.05 for x in wide], 0.25)
    assert gate["parent_spread"] > 0.25 and gate["verdict"] == "unresolved"
    gate = bench.against_bound(wide, [x - 0.05 for x in wide], 0.5)
    assert gate["verdict"] == "within"
    # the summary carries the verdict of each bounded metric
    runs = {side: [{"values": {"op_p50_s": x, "calls": 1}} for x in xs]
            for side, xs in (("parent", parent),
                             ("change", [0.85 * x for x in parent]))}
    out = bench.summarize(runs, {"op_p50_s": 0.25})
    assert out["op_p50_s"]["gate"]["verdict"] == "gain"
    assert out["op_p50_s"]["change_won"] == 10 and "gate" not in out["calls"]


def test_traced_metrics_side_by_side_on_synthetic_runs():
    parent = {"pencil.lambda_disc_s": 0.02, "poly.det_generic.calls": 400,
              "trace.spans": 0, "segre.segre_resultant.s": 0.01}
    change = {"pencil.lambda_disc_s": 0.015, "poly.det_generic.calls": 300,
              "trace.spans": 0, "report.new": 2.0}
    out = bench.side_by_side(parent, change)
    assert list(out) == sorted(parent.keys() | change.keys())
    assert out["pencil.lambda_disc_s"] == {
        "parent": 0.02, "change": 0.015, "ratio": 0.015 / 0.02}
    assert out["poly.det_generic.calls"]["ratio"] == 0.75
    # a zero on the parent's side, or a metric one side lacks, has no ratio
    assert out["trace.spans"] == {"parent": 0, "change": 0, "ratio": None}
    assert out["segre.segre_resultant.s"] == {
        "parent": 0.01, "change": None, "ratio": None}
    assert out["report.new"] == {"parent": None, "change": 2.0,
                                 "ratio": None}
