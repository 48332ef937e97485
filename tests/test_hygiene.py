"""Every name a module under src/ or tests/ imports is used in it, every
module-level private function in src/ is referenced somewhere in src/
outside its own definition (a helper only tests call belongs in tests/),
every module-level assigned name in src/ is referenced somewhere in src/
or tests/ outside its own definition, and every public module-level
function, class and method in src/ is referenced somewhere in src/,
tests/, perfbench/ or scripts/ outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py"))


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
    assert _unused_imports(ast.parse(path.read_text())) == []


SRC = sorted((ROOT / "src").rglob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py")) + sorted(
    (ROOT / "scripts").rglob("*.py"))


def _references(tree: ast.AST) -> Counter:
    """Names a tree refers to: bare names, attributes, imported names and
    string constants (as in monkeypatch.setattr(module, "_name", ...))."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _unreferenced(is_candidate, within) -> list:
    """Definitions in src/ that is_candidate(module-level node) selects, as
    (name, defining node), and that nothing in the files `within` refers to
    outside the defining node."""
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    total = Counter()
    for path in within:
        total += _references(trees[path])
    unused = []
    for path in SRC:
        for node in trees[path].body:
            for name, where in is_candidate(node):
                if total[name] == _references(where)[name]:
                    unused.append(f"{path.relative_to(ROOT)}:{name}")
    return unused


def test_no_unreferenced_private_functions():
    def private_function(node):
        name = getattr(node, "name", "")
        if (isinstance(node, ast.FunctionDef) and name.startswith("_")
                and not name.startswith("__")):
            yield name, node
    assert _unreferenced(private_function, SRC) == []


def test_no_unreferenced_module_level_names():
    def assigned_names(node):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node
    assert _unreferenced(assigned_names, SOURCES) == []


def test_no_unreferenced_public_definitions():
    def public(name):
        return not name.startswith("_")

    def public_definitions(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and public(sub.name):
                    yield sub.name, sub
    assert _unreferenced(public_definitions, USERS) == []
