"""Every name a module under src/ or tests/ imports is used in it, every
module-level private function in src/ is referenced somewhere in src/
outside its own definition (a helper only tests call belongs in tests/),
every module-level assigned name in src/ is referenced somewhere in src/
or tests/ outside its own definition, and every public module-level
function, class and method in src/ is referenced somewhere in src/,
tests/, perfbench/ or scripts/ outside its own definition (a method
through an attribute or a string), and outside tests/ unless it is on
the allow-list below."""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py"))


@lru_cache(maxsize=None)
def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _unused_imports(tree: ast.AST) -> list:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert _unused_imports(_parsed(path)) == []


SRC = sorted((ROOT / "src").rglob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py")) + sorted(
    (ROOT / "scripts").rglob("*.py"))


def _references(tree: ast.AST, method: bool = False) -> Counter:
    """Names a tree refers to: attributes and string constants (as in
    monkeypatch.setattr(module, "_name", ...)), and unless the name is a
    method's, bare names and imported names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
        elif method:
            continue
        elif isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


@lru_cache(maxsize=None)
def _file_references(path: Path, method: bool) -> Counter:
    return _references(_parsed(path), method)


def _unreferenced(is_candidate, within) -> list:
    """Definitions in src/ that is_candidate(module-level node) selects, as
    (name, defining node, whether it is a method), and that nothing in the
    files `within` refers to outside the defining node: a method only
    through an attribute or a string, since a local variable of the same
    name does not call it."""
    total = {False: Counter(), True: Counter()}
    for path in within:
        for method in total:
            total[method] += _file_references(path, method)
    unused = []
    for path in SRC:
        for node in _parsed(path).body:
            for name, where, method in is_candidate(node):
                if total[method][name] == _references(where, method)[name]:
                    unused.append(f"{path.relative_to(ROOT)}:{name}")
    return unused


def test_no_unreferenced_private_functions():
    def private_function(node):
        name = getattr(node, "name", "")
        if (isinstance(node, ast.FunctionDef) and name.startswith("_")
                and not name.startswith("__")):
            yield name, node, False
    assert _unreferenced(private_function, SRC) == []


def test_no_unreferenced_module_level_names():
    def assigned_names(node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node, False
    assert _unreferenced(assigned_names, SOURCES) == []


def _public_definitions(node):
    def public(name):
        return not name.startswith("_")

    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
            public(node.name):
        yield node.name, node, False
    if isinstance(node, ast.ClassDef):
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and public(sub.name):
                yield sub.name, sub, True


def test_no_unreferenced_public_definitions():
    assert _unreferenced(_public_definitions, USERS) == []


# Public names in src/ that only tests call.  The acceptance gate imports
# its API, which stays importable; each pending name gets a report
# consumer or moves to tests/ (ROADMAP item 10).  Nothing else may join.
GATE_API = {
    "segre.py:coplanar_line_multiplicity", "segre.py:family_z_531_instance",
    "segre.py:family_z_fiber_lines", "segre.py:hessian_vanishes_at",
    "segre.py:hessian_vanishes_on_line", "tate.py:build_integral_model",
    "tate.py:ord_delta_total",
}
PENDING = {
    "geometry.py:orbit", "geometry.py:square_fibration_partition",
    "pencil.py:second_kind_fiber_audit", "segre.py:family_z_symbolic_resultant",
    "surfaces.py:s5_generators", "surfaces.py:s5_mu0_seed_line",
}


def test_public_definitions_have_a_caller_outside_tests():
    within = [path for path in USERS
              if path.relative_to(ROOT).parts[0] != "tests"]
    only_tests = {name.rsplit("/", 1)[1] for name in
                  _unreferenced(_public_definitions, within)}
    assert only_tests == GATE_API | PENDING
