"""Guards on the source tree itself rather than on what it computes."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def identifiers(tree: ast.AST):
    """Every name the code uses: Name and Attribute nodes, import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname


def test_every_def_is_referenced():
    """Each non-dunder def name in src/ is used as an identifier in src/ or
    bench/.

    Use from tests/ alone does not count: a helper only the tests call
    belongs in the tests.  Words in strings, comments and docstrings do
    not count either.  Matching is by name, not by resolution: a dead
    method that shares its name with a live function elsewhere (say
    `power`) still passes.
    """
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    used = Counter(name for tree in trees.values()
                   for name in identifiers(tree))
    unreferenced = []
    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not used[name]:
                unreferenced.append("%s:%d %s" % (path.name, node.lineno,
                                                  name))
    assert unreferenced == []
