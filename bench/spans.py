"""Span recorder for the traced run, and the per-layer report built from it.

In a traced op the recorder wraps the calls into each layer of the
package: the Workspace node properties, the certificate groups in
`GROUP_BUILDERS`, the property check, rendering, and the public functions
and methods listed in HOOKS.  A span is (name, start, end, parent span,
op id); spans stay in memory and are written out when the run ends.  Some
hooks only count calls.  Every wrapper is removed again after the op, so
untraced ops run the package exactly as shipped.

A layer's self time is its span's duration minus the time its child spans
cover, so the self times of one op add up to the op's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

# Workspace node properties and certificate groups get a span each
WORKSPACE_NODES = ("reports", "counts", "solve", "ring", "operator", "model",
                   "full_operator", "statistics")
GROUPS = ("gw", "matrix", "table", "presentation", "deform", "criterion")


class Hook(NamedTuple):
    module: str
    owner: Optional[str]   # class name for a method, None for a function
    attr: str
    label: str
    span: bool
    count: bool


HOOKS = (
    Hook("gwcounts", None, "all_reports", "gwcounts.all_reports", True, True),
    Hook("quantum", None, "solve_three_point_invariants",
         "quantum.solve_three_point_invariants", True, True),
    Hook("quantum", None, "standard_ring", "quantum.standard_ring", True, False),
    Hook("deformation", None, "build_deformed_matrix",
         "deformation.build_deformed_matrix", True, False),
    Hook("deformation", None, "assemble_full_operator",
         "deformation.assemble_full_operator", True, False),
    Hook("deformation", None, "atom_statistics",
         "deformation.atom_statistics", True, False),
    Hook("groebner", None, "buchberger", "groebner.buchberger", False, True),
    Hook("certificates", None, "property_certificates",
         "certificates.property", True, False),
    Hook("cli", None, "build_payload", "cli.render", True, False),
    Hook("cli", None, "render_markdown", "cli.render", True, False),
    Hook("quantum", "QuantumRing", "star", "quantum.star", True, True),
    Hook("quantum", "QuantumRing", "pairing", "quantum.pairing", True, False),
    Hook("poly", "MultiPoly", "__mul__", "poly.mul", False, True),
    Hook("linalg", "RatFunc", "__mul__", "linalg.ratfunc_mul", False, True),
)

SPAN_LABELS = sorted({h.label for h in HOOKS if h.span}
                     | {"workspace.%s" % n for n in WORKSPACE_NODES}
                     | {"certificates.%s" % g for g in GROUPS})
COUNT_LABELS = sorted({h.label for h in HOOKS if h.count})
ROOT_PREFIX = "op."


def _module(name: str):
    return sys.modules.get("gmquantum." + name)


class _JsonProxy:
    """Stands in for the `json` module inside cli, timing `dumps`."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Recorder:
    def __init__(self):
        self.spans: List[list] = []    # [name, start, end, parent, op id]
        self.counts: Dict[int, Counter] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._undo: List[Callable[[], None]] = []

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, label: str, span: bool = True, count: bool = False):
        """fn recording a span and/or a call count into the current op."""
        spans, stack, op = self.spans, self._stack, self._op
        counter = self.counts[op]

        def counted(*args, **kwargs):
            counter[label] += 1
            return fn(*args, **kwargs)

        def spanned(*args, **kwargs):
            if count:
                counter[label] += 1
            rec = [label, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return spanned if span else counted

    def run_op(self, op_id: int, name: str, fn, *args):
        """Call fn(*args) as op `op_id`, under a root span and every hook."""
        self._op = op_id
        self.counts[op_id] = Counter()
        self._install()
        try:
            return self.wrap(fn, ROOT_PREFIX + name)(*args)
        finally:
            self._uninstall()
            self._op = None

    # -- installing and removing hooks --------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        """setattr, undone by _uninstall (an inherited attribute is deleted)."""
        own = attr in vars(obj)
        old = vars(obj).get(attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old) if own
                          else delattr(obj, attr))

    def _rebind(self, fn, wrapper) -> None:
        """Point every package module name bound to fn at wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname == "gmquantum" or modname.startswith("gmquantum."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)

    def _install(self) -> None:
        self.missing = []
        for hook in HOOKS:
            module = _module(hook.module)
            owner = getattr(module, hook.owner, None) if hook.owner else module
            target = getattr(owner, hook.attr, None) if owner else None
            if target is None:
                self.missing.append(hook.label)
                continue
            wrapper = self.wrap(target, hook.label, hook.span, hook.count)
            if hook.owner:
                self._set(owner, hook.attr, wrapper)
            else:
                self._rebind(target, wrapper)
        certificates = _module("certificates")
        workspace = getattr(certificates, "Workspace", None)
        for node in WORKSPACE_NODES:
            prop = vars(workspace).get(node) if workspace else None
            if not isinstance(prop, property):
                self.missing.append("workspace." + node)
                continue
            self._set(workspace, node, property(
                self.wrap(prop.fget, "workspace." + node)))
        builders = getattr(certificates, "GROUP_BUILDERS", {})
        for group in GROUPS:
            if group not in builders:
                self.missing.append("certificates." + group)
                continue
            old = builders[group]
            builders[group] = self.wrap(old, "certificates." + group)
            self._undo.append(lambda g=group, f=old: builders.__setitem__(g, f))
        cli = _module("cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._set(cli, "json", _JsonProxy(
                json, self.wrap(json.dumps, "cli.render")))
        else:
            self.missing.append("cli.render (json)")

    def _uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- report ----------------------------------------------------------

    def self_times(self) -> Dict[int, Counter]:
        """Per op: label -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[int, Counter] = defaultdict(Counter)
        for (name, start, end, _, op), cov in zip(self.spans, covered):
            out[op][name] += end - start - cov
        return out

    def op_durations(self) -> Dict[int, float]:
        return {op: end - start for name, start, end, parent, op in self.spans
                if parent < 0}

    def dump(self, path, meta: Dict[str, object]) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[name, round(start - t0, 9), round(end - t0, 9), parent, op]
                for name, start, end, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(meta, fields=["name", "start_s", "end_s",
                                         "parent", "op"], spans=rows), fh)
