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
