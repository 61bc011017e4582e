"""Guards on the source tree itself rather than on what it computes."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORD = re.compile(r"\w+")


def test_every_def_is_referenced():
    """Each non-dunder def name occurs in src/ or tests/ beyond its def line.

    A word match, not name resolution: a dead method that shares its name
    with a live function elsewhere (say `power`) still passes.
    """
    lines = {path: path.read_text().splitlines()
             for folder in ("src", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    words = Counter(w for text in lines.values() for line in text
                    for w in WORD.findall(line))
    unreferenced = []
    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall(lines[path][node.lineno - 1]).count(name)
            if words[name] <= own:
                unreferenced.append("%s:%d %s" % (path.name, node.lineno,
                                                  name))
    assert unreferenced == []
