"""Genus zero two and three point invariants of the degree 10 fourfold X.

Notation: sigma classes live in the rank 6 even lattice of X with basis
(s0, s1, s2, s11, s3, s31); <a, b>_d and <a, b, c>_d are the genus zero
invariants of degree d against the hyperplane class.  Five numbers are
computed by exact intersection theory on explicit parameter spaces of
lines and conics; one more follows from a linear identity.

    I11 = <s1, dual(s0)>_1 = 6      lines through a general point
    I12 = <s2, dual(s1)>_1 = 10     lines meeting a codim 2 sigma_2 cycle
    I13 = <s11, dual(s1)>_1 = 6     lines meeting a codim 2 sigma_11 cycle
    I2  = <s3, dual(s0)>_2 = 12     conics through a general point
    J12 = <s11, s11, s11>_1 = 12    lines against three sigma_11 cycles
    J11 = <s11, s11, s2>_1 = 24     from J11 + J12 = 8*I13 - 2*I11
    J2  = <s11, s11, 2pt>_2 = 32    pinned by associativity downstream

Each computation returns the value together with a derivation trace that
records the parameter space, the integrand in closed form, and every
bundle pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .towers import (
    Dual, ProjBase, Sym2, TautSub, Tower, Trivial, bundle_sum, chern_of,
    line_bundle, segre_of, total_class, twist,
)


@dataclass(frozen=True)
class CountReport:
    name: str
    bracket: str
    value: Fraction
    trace: Tuple[str, ...]


def _finish(name, bracket, tower, integrand, factor, preamble):
    trace = list(preamble)
    trace.extend(tower.describe())
    trace.append("integrand: %s" % integrand)
    stage_log = []
    raw = tower.integrate(integrand, trace=stage_log)
    trace.extend(stage_log)
    value = factor * raw
    if factor != 1:
        trace.append("invariant = %s * %s = %s" % (factor, raw, value))
    else:
        trace.append("invariant = %s" % value)
    return CountReport(name, bracket, Fraction(value), tuple(trace))


def compute_i11() -> CountReport:
    """Lines through a general point of X.

    The parameter space is P^1 x P^2 with hyperplane classes h and H, and
    the locus of lines meeting a fixed hyperplane section in the required
    way has class 2(h+H)^3.
    """
    tower = Tower(ProjBase([("h", 1), ("H", 2)]))
    h = tower.var("h")
    H = tower.var("H")
    integrand = 2 * (h + H) ** 3
    return _finish(
        "I11", "<s1, dual(s0)>_1", tower, integrand, 1,
        ["lines through a general point; parameter space P^1 x P^2"])


def compute_i12() -> CountReport:
    """Lines whose span meets a fixed sigma_2 cycle.

    Parameter space: the P^3 bundle P(E) over P^1 with c(E) = 1 + h,
    where h is the hyperplane class downstairs and H the relative one.
    The rank 2 bundle U carrying the line has c(U) = (1-h)(1-H); the
    integrand is 2 c1(U)^2 (s2(U) + c1(U)^2).
    """
    tower = Tower(ProjBase([("h", 1)]),
                  [("proj", bundle_sum(line_bundle({"h": 1}), Trivial(3)), "H")])
    u = bundle_sum(line_bundle({"h": -1}), TautSub(0))
    _, cu = chern_of(u, tower)
    su = segre_of(cu, tower, 2)
    integrand = 2 * cu[1] ** 2 * (su[2] + cu[1] ** 2)
    return _finish(
        "I12", "<s2, dual(s1)>_1", tower, integrand, 1,
        ["lines against a sigma_2 cycle; P(E) over P^1 with c(E) = 1 + h",
         "c1(U) = %s, s2(U) = %s" % (cu[1], su[2])])


def compute_i13() -> CountReport:
    """Lines meeting a fixed sigma_11 cycle.

    The relevant surface S is a degree 4 del Pezzo, the intersection of
    G(2,4) with a hyperplane and a quadric, so integrals over S reduce to
    G(2,4): int_S g = 2 int_{G(2,4)} g a1^2.  G(2,4) is the Grassmann
    stage of the trivial rank 4 bundle over a point, with (a1, a2) the
    Chern classes of the dual tautological sub U^v.  The class of lines
    meeting the cycle is s2(U) + c1(U)^2.
    """
    tower = Tower(ProjBase([]), [("grass2", Trivial(4), ("a1", "a2"))])
    a1 = tower.var("a1")
    _, cu = chern_of(TautSub(0), tower)
    su = segre_of(cu, tower, 2)
    integrand = (su[2] + cu[1] ** 2) * a1 ** 2
    return _finish(
        "I13", "<s11, dual(s1)>_1", tower, integrand, 2,
        ["lines against a sigma_11 cycle; del Pezzo surface inside G(2,4)",
         "restriction rule: int_S g = 2 int_{G(2,4)} g a1^2",
         "locus class: s2(U) + c1(U)^2 = %s" % tower.normal_form(
             su[2] + cu[1] ** 2)])


def compute_i2() -> CountReport:
    """Conics through a general point of X.

    Parameter space: the P^2 bundle P(E) over P^1 with c1(E) = -2h,
    relative class l.  The conic condition bundle has total Chern class
    c(S^2 L^v) / ((1+h)(1+2h)) where L is a rank 3 flag with quotient
    O(-l) and fixed part O + O(-h); the degree 3 part is the integrand
    and the invariant is twice the integral.
    """
    tower = Tower(ProjBase([("h", 1)]),
                  [("proj", bundle_sum(Trivial(2), line_bundle({"h": -2})), "l")])
    l2 = bundle_sum(Trivial(1), line_bundle({"h": -1}))
    _, cond = chern_of(bundle_sum(Sym2(Dual(l2)), twist(Dual(l2), {"l": 1}),
                                  line_bundle({"l": 2})), tower)
    _, cd = chern_of(bundle_sum(line_bundle({"h": 1}), line_bundle({"h": 2})),
                     tower)
    denom = segre_of(cd, tower, 3)
    integrand = tower.normal_form(
        (total_class(cond) * total_class(denom)).graded_part(3))
    return _finish(
        "I2", "<s3, dual(s0)>_2", tower, integrand, 2,
        ["conics through a general point; P(E) over P^1 with c1(E) = -2h",
         "condition class: degree 3 part of "
         "c(S^2 L2^v) c(L2^v(l)) c(O(2l)) / ((1+h)(1+2h))",
         "c(S^2 L2^v) = (1+h)(1+2h), so the quotient collapses to "
         "(1+l)(1+l+h)(1+2l)"])


def compute_j12() -> CountReport:
    """Lines incident to three sigma_11 cycles.

    Parameter space: the G(2,E) bundle over P^1 with c(E) = 1 + h, its
    ring generated by h and the Chern classes (H, al) of the dual
    tautological sub; the flag L1 in L3 has L1 = O(-h) and L3/L1 the
    tautological rank 2 sub.  With W = (L1 wedge L3)^v the locus class
    is c2(W) c3(S^2 W).
    """
    tower = Tower(ProjBase([("h", 1)]),
                  [("grass2", bundle_sum(line_bundle({"h": 1}), Trivial(3)),
                    ("H", "al"))])
    w = Dual(twist(TautSub(0), {"h": -1}))
    _, cw = chern_of(w, tower)
    _, cs = chern_of(Sym2(w), tower)
    integrand = cw[2] * cs[3]
    return _finish(
        "J12", "<s11, s11, s11>_1", tower, integrand, 1,
        ["lines against three sigma_11 cycles; G(2,E) over P^1, c(E) = 1+h",
         "c2(W) = %s" % cw[2],
         "c3(S^2 W) = %s" % cs[3]])


def derive_j11(i11: Fraction, i13: Fraction,
               j12: Fraction) -> CountReport:
    """J11 = <s11, s11, s2>_1 out of the identity J11 + J12 = 8 I13 - 2 I11."""
    value = 8 * i13 - 2 * i11 - j12
    trace = (
        "identity: J11 + J12 = 8 I13 - 2 I11 (divisor relation for the"
        " squared hyperplane insertion)",
        "J11 = 8*%s - 2*%s - %s = %s" % (i13, i11, j12, value),
    )
    return CountReport("J11", "<s11, s11, s2>_1", Fraction(value), trace)


def all_reports() -> Dict[str, CountReport]:
    """The five geometric counts plus the derived J11, keyed by name."""
    reports = {}
    for fn in (compute_i11, compute_i12, compute_i13,
               compute_i2, compute_j12):
        rep = fn()
        reports[rep.name] = rep
    reports["J11"] = derive_j11(
        reports["I11"].value, reports["I13"].value, reports["J12"].value)
    return reports


@dataclass(frozen=True)
class CountSet:
    """The invariants feeding the quantum multiplication.

    J2 = <s11, s11, 2pt>_2 has no direct geometric computation here and
    is not part of the set: associativity of the product table pins it.
    """

    I11: Fraction
    I12: Fraction
    I13: Fraction
    I2: Fraction
    J11: Fraction
    J12: Fraction

    @classmethod
    def from_reports(cls, reports: Dict[str, CountReport]) -> "CountSet":
        return cls(*(reports[k].value for k in
                     ("I11", "I12", "I13", "I2", "J11", "J12")))

    @classmethod
    def from_geometry(cls) -> "CountSet":
        return cls.from_reports(all_reports())


EXPECTED_VALUES = {
    "I11": Fraction(6),
    "I12": Fraction(10),
    "I13": Fraction(6),
    "I2": Fraction(12),
    "J11": Fraction(24),
    "J12": Fraction(12),
    "J2": Fraction(32),
}
