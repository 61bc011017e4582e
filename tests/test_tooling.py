"""Guards on the source tree itself rather than on what it computes."""

import ast
import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

from gmquantum.certificates import Workspace
from gmquantum.cli import main

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
    `power`) still passes here, and `test_every_def_runs` catches it.
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


# defs that no command runs but the benchmark in bench/ calls or hooks
RUN_EXEMPT = {
    ("linalg.py", "RatFunc"):
        "bench/spans.py hooks RatFunc.__mul__; the tests' Q(q) oracle",
    ("quantum.py", "standard_ring"):
        "bench/ builds its ring with it and bench/spans.py hooks it",
    ("gwcounts.py", "CountSet.from_geometry"):
        "standard_ring's counts",
    ("quantum.py", "QuantumRing.pairing"):
        "the ring-products workload of bench/ times it",
}

COMMANDS = (
    [["verify-all", "--seed", "0"], ["verify-all", "--seed", "7"]]
    + [[name, "--format", fmt]
       for name in ("gw", "matrix", "table", "presentation", "deform",
                    "criterion")
       for fmt in ("markdown", "json")]
    + [[name, "--at", spec]
       for name, specs in (("matrix", ("q=0", "q=-7/3")),
                           ("table", ("q=0", "q=-7/3")),
                           ("deform", ("q=0,t=1/3", "q=-7/3,t=1/3")),
                           ("criterion", ("q=0", "q=-7/3")))
       for spec in specs]
    # the bad inputs of test_cli.test_bad_at_exits_2
    + [["matrix", "--at", spec] for spec in ("q=banana", "t=1", "", "q=1e5000")]
    + [["criterion", "--at", "q=" + "1" * 5000],
       ["criterion", "--at", "q=1e16000000"]]
)


def defined_functions(path: Path):
    """(first line of the code object, qualified name) of every non-dunder
    def in a module, nested ones included; a decorated def's code starts
    at its first decorator."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out.append((first, name))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def test_every_def_runs():
    """Each non-dunder def in src/gmquantum is called by some command.

    `verify-all` at two seeds, the six reports in both formats, `--at` at
    q = 0 and at a negative q, and the refused `--at` inputs run under a
    profile hook that records every Python frame entered; unlike the name
    match above, a dead method cannot hide behind a live function of the
    same name.  Only the defs in RUN_EXEMPT, which the benchmark needs,
    may stay idle.
    """
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                with contextlib.suppress(SystemExit):
                    main(argv + ["--no-timestamp"])
    finally:
        sys.setprofile(previous)
    ran = {(Path(filename).resolve(), line) for filename, line in entered}
    idle = []
    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        for line, name in defined_functions(path):
            parts = name.split(".")
            if any((path.name, ".".join(parts[:k])) in RUN_EXEMPT
                   for k in range(1, len(parts) + 1)):
                continue
            if (path, line) not in ran:
                idle.append("%s:%d %s" % (path.name, line, name))
    assert idle == []


# classes that no code in src/ or bench/ builds but the tests do
BUILD_EXEMPT = {
    ("towers.py", "Wedge2"):
        "test_criterion_10_oracle_suites and"
        " test_sym2_wedge2_match_formal_roots check wedge^2 against the"
        " splitting-principle oracle",
}


def test_every_class_is_built():
    """Each class in src/gmquantum is built by code in src/ or bench/.

    A class counts as built when some code calls it, subclasses it or
    reads an attribute `Name.attr` off it.  Naming it in `isinstance`
    does not count: a branch for a kind of object that nothing makes is
    dead.  Only the classes in BUILD_EXEMPT may stay unbuilt.
    """
    def name_of(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    built = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                built.add(name_of(node.func))
            elif isinstance(node, ast.ClassDef):
                built.update(name_of(base) for base in node.bases)
            elif isinstance(node, ast.Attribute):
                built.add(name_of(node.value))
    unbuilt = []
    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        for node in ast.walk(trees[path]):
            if (isinstance(node, ast.ClassDef) and node.name not in built
                    and (path.name, node.name) not in BUILD_EXEMPT):
                unbuilt.append("%s:%d %s" % (path.name, node.lineno,
                                             node.name))
    assert unbuilt == []


def _positional_params(node: ast.FunctionDef, in_class: bool):
    """The parameters a call can fill by position, without `self`/`cls`
    for a method that is not a staticmethod."""
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    return params[1:] if in_class and not static else params


def _overrides(call: ast.Call, positional, param: str) -> bool:
    """Whether `call` passes `param`, by keyword or by position; a call
    that spreads `*args` or `**kwargs` counts as passing everything."""
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True
        if k < len(positional) and positional[k] == param:
            return True
    return False


def test_every_default_is_set():
    """Each parameter default in src/gmquantum is overridden, by keyword
    or by position, by some call in src/ or bench/.

    A default that no caller ever changes is a constant spelled as a
    knob.  Calls from tests/ do not count.  Calls are matched by name (a
    function, a method, or a class for its `__init__`), not by
    resolution.
    """
    def name_of(func):
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    calls = {}
    for folder in ("src", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    calls.setdefault(name_of(node.func), []).append(node)
    unset = []

    def visit(parent, prefix, in_class, path):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                visit(node, prefix + node.name + ".", True, path)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = (prefix.rstrip(".").rpartition(".")[2]
                          if node.name == "__init__" else node.name)
                positional = _positional_params(node, in_class)
                args = node.args
                defaulted = ([a.arg for a in (args.posonlyargs + args.args)
                              [-len(args.defaults):]] if args.defaults else [])
                defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                              if d is not None]
                for param in defaulted:
                    if not any(_overrides(c, positional, param)
                               for c in calls.get(called, ())):
                        unset.append("%s:%d %s%s.%s" % (
                            path.name, node.lineno, prefix, node.name, param))
                visit(node, prefix + node.name + ".<locals>.", False, path)
            else:
                visit(node, prefix, in_class, path)

    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        visit(ast.parse(path.read_text()), "", False, path)
    assert unset == []


def test_traced_nodes_are_workspace_properties():
    """bench/spans.py wraps each name of its WORKSPACE_NODES as a property
    of `Workspace`, and books a name that is not one as a missing hook."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    [names] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [ast.unparse(t) for t in node.targets] == ["WORKSPACE_NODES"]]
    assert len(names) == 8
    for name in names:
        assert isinstance(vars(Workspace).get(name), property), name
