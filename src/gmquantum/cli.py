"""Command line driver emitting verification certificates.

One parser reads the command and every option; `run` refuses, with
exit code 2, an option the command does not take: --at belongs to the
reports with variables, --seed to `verify-all`.  Each report command
builds one certificate group and prints it as markdown (default) or
JSON.  `verify-all` runs every group, records its --seed (default 0) in
the summary (the seed changes no certificate), and exits 0 exactly when
no certificate failed.  Output is deterministic; the timestamp is the
only varying field and can be dropped with --no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .ambient import BASIS_NAMES
from .certificates import (
    Certificate, FAILED, GROUP_BUILDERS, MODEL_AXIOM, R3_COFACTOR_IDENTITY,
    SCHEMA_VERSION, VERIFIED, Workspace, certificate_to_dict, merge,
    property_certificates,
)
from .deformation import eigenvalue, irrationality_criterion
from .quantum import ASSOCIATIVITY_TRIPLES, FROBENIUS_TRIPLES, surd_pair_solves

def parse_at(spec: str, allowed: Sequence[str]) -> Dict[str, Fraction]:
    """Parse "q=3/2" or "q=1,t=1/7" into exact values, one for each
    variable in `allowed`."""
    out: Dict[str, Fraction] = {}
    limit = sys.get_int_max_str_digits()
    for part in spec.split(","):
        part = part.strip()
        if "=" not in part:
            raise ValueError("--at expects name=value pairs, got %r"
                             % _clip(part))
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in allowed:
            raise ValueError("--at variable %r is not one of %s"
                             % (_clip(name), ", ".join(allowed)))
        if name in out:
            raise ValueError("--at sets %r twice" % name)
        value = value.strip()
        # Fraction() and str() both refuse integers past Python's digit
        # limit with a ValueError of their own, but Fraction() expands a
        # decimal exponent before either refusal, so that is checked first
        if 0 < limit and _exponent_too_large(value, limit):
            raise ValueError(_too_many_digits(value, limit))
        try:
            out[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            if 0 < limit < sum(ch.isdigit() for ch in value):
                raise ValueError(_too_many_digits(value, limit))
            raise ValueError("--at value %r is not a rational"
                             % _clip(value))
        try:
            str(out[name])
        except ValueError:
            raise ValueError(_too_many_digits(value, limit))
    missing = [name for name in allowed if name not in out]
    if missing:
        raise ValueError("--at does not set %s; it needs %s"
                         % (", ".join(missing), ", ".join(allowed)))
    return out


def _clip(value: str) -> str:
    return value if len(value) <= 24 else value[:24] + "..."


def _exponent_too_large(value: str, limit: int) -> bool:
    """Whether the decimal exponent e of a literal has |e| above `limit`
    plus the mantissa's digit count: then the numerator or the
    denominator has more than `limit` digits."""
    mantissa, sep, exp = value.lower().partition("e")
    exp = exp.strip().replace("_", "")
    if exp.startswith(("+", "-")):
        exp = exp[1:]
    if not sep or not exp.isdecimal():
        return False
    bound = limit + sum(ch.isdigit() for ch in mantissa)
    exp = exp.lstrip("0") or "0"
    return len(exp) > len(str(bound)) or int(exp) > bound


def _too_many_digits(value: str, limit: int) -> str:
    return "--at value %r has too many digits (more than %d)" % (
        _clip(value), limit)


def _format_numeric(values) -> str:
    parts = []
    for name, c in zip(BASIS_NAMES, values):
        if c == 0:
            continue
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append("-" + name)
        else:
            parts.append("%s*%s" % (c, name))
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def matrix_at(ws: Workspace, q: Fraction) -> Dict[str, object]:
    """The h matrix at q and its eigenvalue squares T = X^2.

    T has degree 2 = deg q, so the quadratic T^2 + a T + b at q = 1 becomes
    T^2 + a q T + b q^2, and its roots are q times the q = 1 roots.
    """
    rows = ws.ring.h_matrix.map(lambda e: str(e.evaluate({"q": q}))).rows
    sp = ws.spectrum
    a1, b1 = sp["quadratic_at_q1"]
    a, b = a1 * q, b1 * q * q
    report: Dict[str, object] = {
        "matrix": rows,
        "eigenvalue_square_equation": "T^2 - %s*T - %s" % (-a, -b),
    }
    if not q:
        report.update(eigenvalue_squares=["0 (double root)"], roots_verified=False,
                      note="q = 0 is a degenerate specialization (T^2 has the"
                      " double root 0); the certified statement is polynomial in q")
        return report
    if sp["surd_at_q1"] is None:
        report["eigenvalue_squares"] = [sp["roots_at_q1"]]
        report["roots_verified"] = False
        return report
    # q (r0 +- r1 sqrt(d)) is the pair q r0 +- |q| r1 sqrt(d), written
    # with a nonnegative surd coefficient
    r0, r1, d = sp["surd_at_q1"]
    r0, r1 = r0 * q, r1 * abs(q)
    report["eigenvalue_squares"] = ["%s + %s*sqrt(%d)" % (r0, r1, d),
                                    "%s - %s*sqrt(%d)" % (r0, r1, d)]
    report["roots_verified"] = surd_pair_solves(a, b, r0, r1, d)
    return report


def table_at(ws: Workspace, q: Fraction) -> Dict[str, object]:
    ring = ws.ring
    products = {}
    for (i, j), vec in sorted(ring.table.items()):
        key = "%s*%s" % (BASIS_NAMES[i], BASIS_NAMES[j])
        products[key] = _format_numeric(
            [c.evaluate({"q": q}) for c in vec])
    return {"products": products}


def deform_at(ws: Workspace, q: Fraction, t: Fraction) -> Dict[str, object]:
    op = ws.operator
    vals = {"q": q, "t": t}
    return {
        "matrix": op.map(lambda e: str(e.evaluate(vals))).rows,
        "eigenvalue": str(eigenvalue(op[0, 0].ctx).evaluate(vals)),
        "note": "entries are reduced modulo t^2 before evaluation",
    }


def criterion_at(ws: Workspace, q: Fraction) -> Dict[str, object]:
    vals = {"q": q, "t": Fraction(0)}
    numeric = ws.operator.map(lambda e: e.evaluate(vals))
    rep = irrationality_criterion(numeric, ws.model)
    return {
        "profile": {str(k): v for k, v in sorted(rep.profile.items())},
        "satisfied": rep.satisfied,
        "note": "a single specialization can degenerate; the certified"
                " statement is polynomial in q",
    }


def gw_summary(ws: Workspace) -> Dict[str, object]:
    out = {name: str(rep.value) for name, rep in ws.reports.items()}
    out["J2"] = str(ws.solve.j2)
    return out


def matrix_summary(ws: Workspace) -> Dict[str, object]:
    sp = ws.spectrum
    return {
        "char_poly": sp["char_poly"],
        "kernel_dimension": sp["kernel"]["dimension"],
        "eigenvalue_squares_at_q1": sp["roots_at_q1"],
    }


def table_summary(ws: Workspace) -> Dict[str, object]:
    ring = ws.ring
    out: Dict[str, object] = {
        "products": len(ring.table),
        "associativity": "checked on the %d associators of unordered"
                         " triples" % ASSOCIATIVITY_TRIPLES,
        "frobenius": "checked on %d ordered triples" % FROBENIUS_TRIPLES,
    }
    for (i, j), vec in sorted(ring.table.items()):
        out["%s * %s" % (BASIS_NAMES[i], BASIS_NAMES[j])] = ring.format(vec)
    return out


def presentation_summary(ws: Workspace) -> Dict[str, object]:
    rep = ws.presentation
    return {
        "quotient": "Q(q)[h, s11] / (R1, R2, R3)",
        "monomial_basis": ", ".join(rep["standard_monomial_names"]),
        "rank": rep["quotient_rank"],
        "dependence": R3_COFACTOR_IDENTITY,
    }


def deform_summary(ws: Workspace) -> Dict[str, object]:
    stats = ws.statistics
    return {
        "eigenvalue": str(stats.lambda0),
        "nu": stats.nu,
        "nu_prime": stats.nu_prime,
        "gamma": stats.gamma,
        "rho": stats.rho,
    }


def criterion_summary(ws: Workspace) -> Dict[str, object]:
    rep = ws.criterion
    return {
        "satisfied": rep.satisfied,
        "profile": {str(k): v for k, v in sorted(rep.profile.items())},
        "h31": ws.model.h31(),
    }


# each report command: its help text, its --at variables, its summary
# and its --at report, which takes the variables by name
REPORTS = {
    "gw": ("the seven Gromov-Witten numbers with derivation traces", (),
           gw_summary, None),
    "matrix": ("the h multiplication matrix and its spectrum", ("q",),
               matrix_summary, matrix_at),
    "table": ("the full quantum product table and its axioms", ("q",),
              table_summary, table_at),
    "presentation": ("the two generator presentation of the ring", (),
                     presentation_summary, None),
    "deform": ("the first order deformation and its Jordan data",
               ("q", "t"), deform_summary, deform_at),
    "criterion": ("the squarefree eigenvalue criterion", ("q",),
                  criterion_summary, criterion_at),
}


def verify_all_certificates(ws: Workspace) -> List[Certificate]:
    groups = [GROUP_BUILDERS[name](ws) for name in sorted(GROUP_BUILDERS)]
    groups.append(property_certificates(ws))
    return merge(groups)


def build_payload(command: str, summary: Dict[str, object],
                  certs: List[Certificate], *, timestamp: bool,
                  at: Optional[Dict[str, Fraction]] = None,
                  at_report: Optional[Dict[str, object]] = None):
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
    }
    if timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    payload["summary"] = summary
    if at:
        payload["at"] = {k: str(v) for k, v in sorted(at.items())}
    if at_report:
        payload["at_report"] = at_report
    payload["certificates"] = [certificate_to_dict(c) for c in certs]
    payload["failed"] = [c.claim for c in certs if c.status == FAILED]
    return payload


def _cell(value) -> str:
    text = json.dumps(value, sort_keys=True) if not isinstance(value, str) \
        else value
    text = text.replace("|", "/")
    if len(text) > 60:
        text = text[:57] + "..."
    return text


def render_markdown(payload: Dict[str, object]) -> str:
    lines = ["# %s report" % payload["command"], ""]
    if "timestamp" in payload:
        lines.append("generated: %s" % payload["timestamp"])
        lines.append("")
    if "at" in payload:
        lines.append("specialized at " + ", ".join(
            "%s = %s" % kv for kv in payload["at"].items()))
        lines.append("")
    for key, value in payload["summary"].items():
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        lines.append("%s = %s" % (key, value))
    lines.append("")
    if "at_report" in payload:
        lines.append("## specialized values")
        lines.append("")
        for key, value in payload["at_report"].items():
            if key == "matrix":
                for row in value:
                    lines.append("    [%s]" % ", ".join(row))
            elif isinstance(value, dict):
                for k2, v2 in value.items():
                    lines.append("%s = %s" % (k2, v2))
            elif isinstance(value, list):
                lines.append("%s = %s" % (key, ", ".join(map(str, value))))
            else:
                lines.append("%s = %s" % (key, value))
        lines.append("")
    lines.append("| claim | status | grounding | computed | expected |")
    lines.append("|---|---|---|---|---|")
    for cert in payload["certificates"]:
        lines.append("| %s | %s | %s | %s | %s |" % (
            cert["claim"], cert["status"], cert["grounding"],
            _cell(cert["computed"]), _cell(cert["expected"])))
    lines.append("")
    lines.append("%d certificates, %d failed."
                 % (len(payload["certificates"]), len(payload["failed"])))
    for cert in payload["certificates"]:
        if cert["status"] == FAILED:
            lines.append("FAILED %s: %s"
                         % (cert["claim"], cert.get("witness", "")))
    lines.append("")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    commands = {name: spec[0] for name, spec in REPORTS.items()}
    commands["verify-all"] = "every certificate group"
    parser = argparse.ArgumentParser(
        prog="gmquantum",
        description="exact verification of the quantum multiplication"
                    " data of the degree 10 fourfold",
        epilog="commands:\n" + "\n".join(
            "  %-13s %s" % kv for kv in commands.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=list(commands),
                        metavar="command", help="one of the commands below")
    parser.add_argument("--format", choices=("markdown", "json"),
                        default="markdown")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte identical output")
    parser.add_argument("--at", metavar="SPEC",
                        help="matrix, table, criterion: evaluate at an exact"
                             " rational, e.g. q=1; deform: e.g. q=1,t=1/7")
    parser.add_argument("--seed", type=int,
                        help="verify-all only (default 0): recorded in the"
                             " summary; changes no certificate")
    return parser


def run(args: argparse.Namespace) -> int:
    command = args.command
    at_vars = REPORTS[command][1] if command in REPORTS else ()
    if args.at is not None and not at_vars:
        raise ValueError("%s does not take --at" % command)
    if args.seed is not None and command != "verify-all":
        raise ValueError("%s does not take --seed; only verify-all does"
                         % command)
    ws = Workspace()
    at = None if args.at is None else parse_at(args.at, at_vars)
    at_report = None
    if command == "verify-all":
        certs = verify_all_certificates(ws)
        statuses = [c.status for c in certs]
        summary = {
            "certificates": len(certs),
            "verified": statuses.count(VERIFIED),
            "model_axiom": statuses.count(MODEL_AXIOM),
            "failed": statuses.count(FAILED),
            "seed": args.seed or 0,
        }
    else:
        _, _, summarize, report_at = REPORTS[command]
        certs = merge([GROUP_BUILDERS[command](ws)])
        summary = summarize(ws)
        if at is not None:
            try:
                at_report = report_at(ws, **at)
            except ValueError as exc:
                # str() of an entry past Python's int -> str digit limit
                if "int_max_str_digits" not in str(exc):
                    raise
                raise ValueError(
                    "--at %r gives an entry with too many digits (more"
                    " than %d)" % (_clip(args.at),
                                   sys.get_int_max_str_digits())) from None
    payload = build_payload(command, summary, certs,
                            timestamp=not args.no_timestamp,
                            at=at, at_report=at_report)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(render_markdown(payload))
    return 0 if not payload["failed"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:
        parser.exit(2, "error: %s\n" % exc)
