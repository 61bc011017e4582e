"""Guards on the source tree itself rather than on what it computes."""

import ast
import contextlib
import importlib.util
import io
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gmquantum.certificates import Workspace
from gmquantum.cli import main
from profile_hooks import profile_hook

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


def test_no_unused_imports():
    """Each name a module in src/ or tests/ imports is used in it.

    A name counts as used when the module reads it (a Name node) or
    exports it through `__all__`.  `from __future__` imports are exempt.
    """
    unused = []
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and [ast.unparse(t) for t in node.targets] == ["__all__"]):
                    used.update(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in used:
                            unused.append("%s:%d %s" % (
                                path.relative_to(ROOT), node.lineno, bound))
    assert unused == []


# defs that no command runs but the benchmark in bench/ calls or hooks
RUN_EXEMPT = {
    ("linalg.py", "RatFunc"):
        "bench/spans.py hooks RatFunc.__mul__; the tests' Q(q) oracle",
    ("quantum.py", "standard_ring"):
        "bench/ builds its ring with it and bench/spans.py hooks it",
    ("quantum.py", "QuantumRing.pairing"):
        "the ring-products workload of bench/ pairs with it and"
        " bench/spans.py hooks it; the ring identities read the scans",
    ("gwcounts.py", "CountSet.from_geometry"):
        "standard_ring's counts",
}

COMMANDS = (
    [["verify-all", "--seed", "0"]]
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

    `verify-all`, the six reports in both formats, `--at` at
    q = 0 and at a negative q, and the refused `--at` inputs run under a
    profile hook that records every Python frame entered; unlike the name
    match above, a dead method cannot hide behind a live function of the
    same name.  Only the defs in RUN_EXEMPT, which the benchmark needs,
    may stay idle, and an exemption that some command runs is stale.
    """
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with profile_hook(record):
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                with contextlib.suppress(SystemExit):
                    main(argv + ["--no-timestamp"])
    ran = {(Path(filename).resolve(), line) for filename, line in entered}
    idle, stale = [], set()
    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        for line, name in defined_functions(path):
            parts = name.split(".")
            exempt = [(path.name, ".".join(parts[:k]))
                      for k in range(1, len(parts) + 1)
                      if (path.name, ".".join(parts[:k])) in RUN_EXEMPT]
            if (path, line) not in ran:
                if not exempt:
                    idle.append("%s:%d %s" % (path.name, line, name))
            else:
                stale.update(exempt)
    assert idle == []
    assert sorted(stale) == []


# classes that no code in src/ or bench/ builds but the tests do
BUILD_EXEMPT = {}


def test_every_class_is_built():
    """Each class in src/gmquantum is built by code in src/ or bench/.

    A class counts as built when some code calls it, subclasses it or
    reads an attribute `Name.attr` off it.  Naming it in `isinstance`
    does not count: a branch for a kind of object that nothing makes is
    dead.  Only the classes in BUILD_EXEMPT may stay unbuilt, and an
    exemption for a class that src/ or bench/ builds is stale.
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
    assert sorted(key for key in BUILD_EXEMPT if key[1] in built) == []


def imported_modules(tree: ast.AST):
    """Top-level name of each module an absolute import in the tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


# test-side oracles that must share no code with the program they check
ORACLES = ("schubert_oracle.py", "grassmann_localization.py")


def test_oracles_import_only_the_standard_library():
    """The Schubert and localization oracles import neither gmquantum nor
    anything that could import it, so they cannot agree with the program
    by sharing its code."""
    foreign = ["%s imports %s" % (name, module)
               for name in ORACLES
               for module in imported_modules(
                   ast.parse((ROOT / "tests" / name).read_text()))
               if module not in sys.stdlib_module_names]
    assert foreign == []


def test_src_imports_nothing_from_tests():
    """The package runs without the tests: no module under src/ imports
    `tests` or a module that lives in it."""
    test_modules = {"tests"} | {path.stem
                                for path in (ROOT / "tests").glob("*.py")}
    leaks = ["%s imports %s" % (path.relative_to(ROOT), module)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for module in imported_modules(ast.parse(path.read_text()))
             if module in test_modules]
    assert leaks == []


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


def test_benchmark_self_tests_pass():
    """`python3 -m unittest discover -s bench` exits 0.  bench/spans.py
    hooks package names (such as `groebner.buchberger` and
    `gwcounts.all_reports`), and its self-tests fail on a hook that does
    not resolve, so deleting or renaming a hooked name fails here too."""
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]


def _bench_checker():
    """bench/checker.py, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "bench_checker", ROOT / "bench" / "checker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize("command", [
    "verify-all", "gw", "matrix", "table", "presentation", "deform",
    "criterion"])
def test_live_output_matches_the_benchmark_reference(command, fmt):
    """Each command without --at passes `bench/checker.check_cli`: every
    certificate's claim, status and computed value agrees with
    bench/reference.json.  The goldens under tests/data can be
    regenerated; the benchmark reference cannot, so a payload change
    that would fail every benchmark op fails here."""
    argv = [command, "--format", fmt, "--no-timestamp"]
    if command == "verify-all":
        argv += ["--seed", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    reason = _bench_checker().check_cli(command, fmt, None, rc,
                                        out.getvalue())
    assert reason is None, reason


def test_every_attribute_is_read():
    """Each attribute src/gmquantum stores is read somewhere.

    An attribute is stored by `self.<name> = ...` or is a field of a
    dataclass; it is read when code in src/, bench/ or tests/ loads
    `<expr>.<name>`.  Matching is by name, not by resolution.  A stored
    value that nothing reads is dead state.
    """
    read = {node.attr
            for folder in ("src", "bench", "tests")
            for path in sorted((ROOT / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted((ROOT / "src" / "gmquantum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            stored = []
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and ast.unparse(node.value) == "self"):
                stored.append(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass")
                    for d in node.decorator_list):
                stored.extend(item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign))
            unread.extend("%s:%d %s" % (path.name, node.lineno, name)
                          for name in stored if name not in read)
    assert unread == []
