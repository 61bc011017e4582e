"""Output checker: compares what an op printed or returned with reference.json.

An op fails when it raised, exited nonzero, reported a failed certificate,
or when its mathematical content differs from the reference: each
certificate's claim, status and computed value, and every number of a
specialized `--at` report.  The `--at` references are the polynomial
matrices and table of reference.json, evaluated here with `fractions`, so the
program's own evaluation is not trusted.  Trace text, summaries, notes and
other wording are never compared.

Every check returns None when the output is right and a one-line reason
when it is not; output it cannot read makes it raise, which the caller
counts as a failed op.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json")
                       .read_text())
BASIS: List[str] = REFERENCE["basis"]
DIM = len(BASIS)


# ---------------------------------------------------------------------------
# exact evaluation of the reference polynomials
# ---------------------------------------------------------------------------


def evaluate(terms, names: Sequence[str], values: Dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for coeff, exps in terms:
        value = Fraction(coeff)
        for name, e in zip(names, exps):
            if e:
                value *= values[name] ** e
        total += value
    return total


def h_matrix_at(q: Fraction) -> List[List[Fraction]]:
    ref = REFERENCE["h_matrix"]
    return [[evaluate(e, ref["vars"], {"q": q}) for e in row]
            for row in ref["rows"]]


def deformed_at(q: Fraction, t: Fraction) -> List[List[Fraction]]:
    ref = REFERENCE["deformed"]
    return [[evaluate(e, ref["vars"], {"q": q, "t": t}) for e in row]
            for row in ref["rows"]]


def table_at(q: Fraction) -> Dict[str, List[Fraction]]:
    ref = REFERENCE["table"]
    return {key: [evaluate(c, ref["vars"], {"q": q}) for c in vec]
            for key, vec in ref["products"].items()}


def char_poly(m: List[List[Fraction]]) -> List[Fraction]:
    """Coefficients c_0..c_n of det(X - m) by Faddeev-LeVerrier."""
    n = len(m)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # acc <- m * (acc + c_{n-k+1} I), c_{n-k} = -tr(acc) / k
        c_prev = coeffs[n - k + 1]
        shifted = [[acc[i][j] + (c_prev if i == j else 0) for j in range(n)]
                   for i in range(n)]
        acc = [[sum(m[i][l] * shifted[l][j] for l in range(n))
                for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(acc[i][i] for i in range(n)) / k
    return coeffs


def _trim(p: List[Fraction]) -> List[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(a: List[Fraction], b: List[Fraction]):
    a, b = _trim(a), _trim(b)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a = _trim(a)
    return _trim(quot), a


def _gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _deriv(p: List[Fraction]) -> List[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _sub(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def squarefree_profile(f: List[Fraction]) -> Dict[int, int]:
    """{multiplicity: degree of the product of factors of that multiplicity} (Yun)."""
    g = _gcd(f, _deriv(f))
    b = _divmod(f, g)[0]
    d = _sub(_divmod(_deriv(f), g)[0], _deriv(b))
    profile: Dict[int, int] = {}
    mult = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            profile[mult] = len(a) - 1
        b = _divmod(b, a)[0]
        d = _sub(_divmod(d, a)[0], _deriv(b))
        mult += 1
    return profile


# ---------------------------------------------------------------------------
# reading the two output formats
# ---------------------------------------------------------------------------


def _cell_text(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return text.replace("|", "/")


def read_json(text: str):
    """(certificates as {claim: (status, computed)}, failed list, at_report)."""
    payload = json.loads(text)
    certs = {c["claim"]: (c["status"], c["computed"])
             for c in payload["certificates"]}
    return certs, payload.get("failed", []), payload.get("at_report")


def read_markdown(text: str):
    """Same triple as read_json; computed values are the (maybe cut) cell text."""
    certs = {}
    at_report: Optional[Dict[str, object]] = None
    section = None
    for line in text.splitlines():
        if line.startswith("## specialized values"):
            section, at_report = "at", {"matrix": []}
            continue
        if section == "at":
            if line.startswith("|") or line.startswith("#"):
                section = None
            elif line.startswith("    ["):
                at_report["matrix"].append(
                    [x.strip() for x in line.strip()[1:-1].split(",")])
                continue
            elif " = " in line:
                key, _, value = line.partition(" = ")
                at_report[key] = value
                continue
        if line.startswith("| ") and not line.startswith("| claim |"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 5:
                certs[cells[0]] = (cells[1], cells[3])
    failed = [c for c, (status, _) in certs.items() if status == "failed"]
    return certs, failed, at_report


def _same_computed(got, want, markdown: bool) -> bool:
    if not markdown:
        return got == want
    text = _cell_text(want)
    if got.endswith("...") and len(text) > len(got) - 3:
        return text.startswith(got[:-3])
    return got == text


def check_certificates(command: str, certs, failed, markdown: bool) -> Optional[str]:
    if failed:
        return "failed certificates: %s" % ", ".join(sorted(failed)[:3])
    want = REFERENCE["certificates"][command]
    if set(certs) != set(want):
        diff = sorted(set(certs) ^ set(want))
        return "certificate claims differ from the reference: %s" % diff[:3]
    for claim, (status, computed) in certs.items():
        if status != want[claim][0]:
            return "%s: status %s, reference %s" % (claim, status, want[claim][0])
        if not _same_computed(computed, want[claim][1], markdown):
            return "%s: computed value differs from the reference" % claim
    return None


# ---------------------------------------------------------------------------
# specialized --at reports
# ---------------------------------------------------------------------------


def parse_vector(text: str) -> List[Fraction]:
    """Inverse of the CLI's "3*s0 + s2 - 1/2*s11" coordinate display."""
    vec = [Fraction(0)] * DIM
    if text.strip() == "0":
        return vec
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, _, name = term.strip().rpartition("*")
        if not coeff:
            coeff, name = ("-1", name[1:]) if name.startswith("-") else ("1", name)
        vec[BASIS.index(name)] += Fraction(coeff)
    return vec


def _matrix_differs(rows, want: List[List[Fraction]]) -> bool:
    got = [[Fraction(x) for x in row] for row in rows]
    return got != want


_EQUATION = re.compile(r"^T\^2 - (\S+)\*T - (\S+)$")
_SURD = re.compile(r"^(\S+) ([+-]) (\S+)\*sqrt\(5\)$")


def _as_list(value) -> List[str]:
    return value if isinstance(value, list) else value.split(", ")


def _as_bool(value) -> bool:
    return value is True or value == "True"


def check_at(command: str, at: Dict[str, Fraction], report) -> Optional[str]:
    if report is None:
        return "no specialized report for --at"
    q = at["q"]
    if command == "matrix":
        if _matrix_differs(report["matrix"], h_matrix_at(q)):
            return "specialized h matrix differs from the reference"
        # eigenvalue squares T solve T^2 + c4 T + c2 = 0 for det(X - M)
        cp = char_poly(h_matrix_at(q))
        eq = _EQUATION.match(report["eigenvalue_square_equation"])
        if not eq or (Fraction(eq.group(1)), Fraction(eq.group(2))) != (-cp[4], -cp[2]):
            return "eigenvalue square equation differs from the char poly"
        r0 = -cp[4] / 2
        disc = cp[4] * cp[4] / 4 - cp[2]
        roots = set()
        for surd in _as_list(report["eigenvalue_squares"]):
            m = _SURD.match(surd)
            if not m:
                return "unreadable eigenvalue square %r" % surd
            sign = 1 if m.group(2) == "+" else -1
            roots.add((Fraction(m.group(1)), sign * Fraction(m.group(3))))
        if len(roots) != 2 or any(a != r0 or 5 * b * b != disc for a, b in roots):
            return "eigenvalue squares do not solve the char poly"
        if not _as_bool(report["roots_verified"]):
            return "specialized roots not verified"
        return None
    if command == "table":
        products = report["products"] if "products" in report else report
        want = table_at(q)
        got = {k: parse_vector(v) for k, v in products.items() if k in want}
        if got != want:
            return "specialized product table differs from the reference"
        return None
    if command == "deform":
        t = at.get("t", Fraction(0))
        if _matrix_differs(report["matrix"], deformed_at(q, t)):
            return "specialized deformed operator differs from the reference"
        ev = REFERENCE["deformed"]
        if Fraction(report["eigenvalue"]) != evaluate(
                ev["eigenvalue"], ev["vars"], {"q": q, "t": t}):
            return "specialized eigenvalue differs from the reference"
        return None
    if command == "criterion":
        m0 = deformed_at(q, Fraction(0))
        want = squarefree_profile(char_poly(m0))
        if "profile" in report:
            got = {int(k): int(v) for k, v in report["profile"].items()}
        else:
            got = {int(k): int(v) for k, v in report.items() if k.isdigit()}
        if got != want:
            return "specialized multiplicity profile %r, reference %r" % (got, want)
        satisfied = max(want) <= 2 and REFERENCE["h31"] > 0
        if _as_bool(report["satisfied"]) != satisfied:
            return "specialized criterion verdict differs from the reference"
        return None
    return "command %s takes no --at" % command


def check_cli(command: str, fmt: str, at: Optional[Dict[str, Fraction]],
              rc: int, text: str) -> Optional[str]:
    """Check one CLI op: its exit code and everything it printed."""
    if rc != 0:
        return "exit code %r" % rc
    markdown = fmt == "markdown"
    certs, failed, report = (read_markdown if markdown else read_json)(text)
    reason = check_certificates(command, certs, failed, markdown)
    if reason is None and at is not None:
        reason = check_at(command, at, report)
    return reason


# ---------------------------------------------------------------------------
# ring products
# ---------------------------------------------------------------------------

# star products of constant elements have degree at most 4 in q, so five
# points determine them
SAMPLE_QS = tuple(Fraction(k, 3) for k in (1, 2, 4, 5, 7))


class ProductReference:
    """The reference table and pairing, evaluated at SAMPLE_QS."""

    def __init__(self):
        tables = [table_at(q) for q in SAMPLE_QS]
        self.table = [{(BASIS.index(a), BASIS.index(b)): t["%s*%s" % (a, b)]
                       for a, b in (k.split("*") for k in t)} for t in tables]
        self.gram = [[Fraction(g) for g in row] for row in REFERENCE["gram"]]

    def star(self, x: Sequence[Fraction], y: Sequence[Fraction], point: int):
        table = self.table[point]
        out = [Fraction(0)] * DIM
        for i in range(DIM):
            for j in range(DIM):
                if x[i] and y[j]:
                    entry = table[(min(i, j), max(i, j))]
                    for k in range(DIM):
                        out[k] += x[i] * y[j] * entry[k]
        return out

    def pairing(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return sum((x[i] * y[j] * self.gram[i][j]
                    for i in range(DIM) for j in range(DIM)), Fraction(0))

    def check(self, a, b, c, ab, pair) -> Optional[str]:
        """a, b, c: input coordinates; ab and pair: what the engine returned
        for a * b and <a * b, c>, polynomials with an `evaluate` method."""
        for n, q in enumerate(SAMPLE_QS):
            want = self.star(a, b, n)
            if [x.evaluate({"q": q}) for x in ab] != want:
                return "star product differs from the reference at q = %s" % q
            if pair.evaluate({"q": q}) != self.pairing(want, c):
                return "pairing differs from the reference at q = %s" % q
        return None
