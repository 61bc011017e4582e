"""Write bench/reference.json, the content the benchmark checks outputs against.

Run from the repository root:

    python3 bench/make_reference.py

The file records, from the commit it is run at, every certificate's claim,
status and computed value per command, and the polynomial data the `--at`
reports specialize (h matrix, product table, deformed operator, Poincare
pairing).  The benchmark evaluates that data itself with `fractions`, so it
does not trust the program's own evaluation.  Regenerate only in a change
that deliberately alters certified content, never in one that claims a
speed-up: a regenerated reference checks nothing against the old one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from gmquantum import cli  # noqa: E402
from gmquantum.ambient import BASIS_NAMES  # noqa: E402
from gmquantum.certificates import Workspace  # noqa: E402
from gmquantum.deformation import eigenvalue  # noqa: E402

COMMANDS = ("gw", "matrix", "table", "presentation", "deform", "criterion",
            "verify-all")


def poly_terms(p):
    """A polynomial as [[coefficient, [exponents]], ...] in its context's order."""
    return [[str(c), list(e)] for e, c in sorted(p.terms.items())]


def certificates(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([command, "--format", "json", "--no-timestamp"])
    if rc != 0:
        raise SystemExit("%s exited with %d" % (command, rc))
    payload = json.loads(out.getvalue())
    return {c["claim"]: [c["status"], c["computed"]]
            for c in payload["certificates"]}


def main():
    ws = Workspace()
    ring = ws.ring
    op = ws.operator
    ref = {
        "certificates": {cmd: certificates(cmd) for cmd in COMMANDS},
        "basis": list(BASIS_NAMES),
        "h_matrix": {"vars": list(ring.ctx.names),
                     "rows": [[poly_terms(e) for e in row]
                              for row in ring.h_matrix.rows]},
        "table": {"vars": list(ring.ctx.names),
                  "products": {"%s*%s" % (BASIS_NAMES[i], BASIS_NAMES[j]):
                               [poly_terms(c) for c in vec]
                               for (i, j), vec in sorted(ring.table.items())}},
        "deformed": {"vars": list(op.ctx.names),
                     "rows": [[poly_terms(op.entry(i, j))
                               for j in range(op.dim)]
                              for i in range(op.dim)],
                     "eigenvalue": poly_terms(eigenvalue(op.ctx))},
        "gram": [[str(g) for g in row] for row in ring.amb.gram().rows],
        "h31": ws.model.h31(),
    }
    path = BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
