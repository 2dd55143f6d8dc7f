"""The package holds only what runs.

Every public top-level function, class and constant of ``src/pqec`` must be
referenced somewhere other than its own definition and ``__init__``: by
another line of ``src/``, by a demo, or by the benchmark under
``perfbench/``. Code that only the tests call belongs in
``tests/oracles.py``. A string equal to a name counts as a reference to it,
because the benchmark wraps pqec functions by attribute name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqec"


def _definitions(tree):
    """(name, node) of each top-level function, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree):
    """(name, line) of every name, attribute, imported name and string in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_public_name_is_used_outside_the_tests():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    users = modules + sorted((ROOT / "demos").rglob("*.py")) \
        + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    seen = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            seen.setdefault(name, []).append((path, line))
    unused = []
    for path in modules:
        for name, node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not name.startswith("_") and all(
                    where == path and line in own for where, line in seen.get(name, ())):
                unused.append(f"{path.stem}.{name}")
    assert not unused, ("used only by tests; move to tests/oracles.py or delete: "
                        + ", ".join(unused))
