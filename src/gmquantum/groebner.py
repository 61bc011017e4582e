"""Groebner bases over the rationals, in graded reverse lex order.

Plain Buchberger with the coprime-leading-term criterion is enough for the
tiny ideals handled here (two variables, a handful of generators).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .poly import Exponent, MultiPoly, weighted_grevlex_key


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _coprime(a: Exponent, b: Exponent) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def normal_form(poly: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Remainder of multivariate division by `basis` (grevlex)."""
    ctx = poly.ctx
    leads = [g.leading() for g in basis]
    remainder = ctx.zero()
    work = poly
    while not work.is_zero():
        exp, coeff = work.leading()
        reduced = False
        for g, (gexp, gcoeff) in zip(basis, leads):
            if _divides(gexp, exp):
                shift = _exp_sub(exp, gexp)
                factor = ctx.monomial(shift, coeff / gcoeff)
                work = work - factor * g
                reduced = True
                break
        if not reduced:
            mono = ctx.monomial(exp, coeff)
            remainder = remainder + mono
            work = work - mono
    return remainder


def _s_poly(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    ctx = f.ctx
    fexp, fc = f.leading()
    gexp, gc = g.leading()
    lcm = _exp_lcm(fexp, gexp)
    mf = ctx.monomial(_exp_sub(lcm, fexp), Fraction(1) / fc)
    mg = ctx.monomial(_exp_sub(lcm, gexp), Fraction(1) / gc)
    return mf * f - mg * g


def buchberger(generators: Sequence[MultiPoly]) -> List[MultiPoly]:
    """Reduced Groebner basis, leading coefficients normalized to 1."""
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return []
    ctx = basis[0].ctx
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fexp, _ = basis[i].leading()
        gexp, _ = basis[j].leading()
        if _coprime(fexp, gexp):
            continue
        s = normal_form(_s_poly(basis[i], basis[j]), basis)
        if not s.is_zero():
            basis.append(s)
            k = len(basis) - 1
            pairs.extend((i2, k) for i2 in range(k))
    # interreduce: drop members whose lead divides by another lead, then
    # fully reduce each member against the rest and normalize.
    basis.sort(key=lambda g: weighted_grevlex_key(ctx, g.leading()[0]))
    minimal = []
    for idx, g in enumerate(basis):
        gexp = g.leading()[0]
        others = [h.leading()[0] for k, h in enumerate(basis) if k != idx]
        if any(_divides(o, gexp) for o in others if o != gexp):
            continue
        if any(h.leading()[0] == gexp for h in minimal):
            continue
        minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        rest = minimal[:idx] + minimal[idx + 1:]
        r = normal_form(g, rest) if rest else g
        if r.is_zero():
            continue
        _, lc = r.leading()
        reduced.append(r * (Fraction(1) / lc))
    reduced.sort(key=lambda g: weighted_grevlex_key(ctx, g.leading()[0]))
    return reduced


class PolyIdeal:
    """Ideal with cached reduced Groebner basis and quotient-ring helpers."""

    def __init__(self, generators: Sequence[MultiPoly]):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("ideal needs at least one nonzero generator")
        self.ctx = gens[0].ctx
        for g in gens:
            if g.ctx != self.ctx:
                raise ValueError("generators from mixed contexts")
        self.generators = list(gens)
        self.basis = buchberger(gens)

    def reduce(self, poly: MultiPoly) -> MultiPoly:
        return normal_form(poly, self.basis)

    def leading_exponents(self) -> List[Exponent]:
        return [g.leading()[0] for g in self.basis]

    def standard_monomials(self, cap: int = 1000) -> List[Exponent]:
        """Monomials outside the leading-term ideal, found by breadth search.

        Raises if more than `cap` are found, which signals an infinite
        (or just too large) quotient vector space.
        """
        leads = self.leading_exponents()
        n = self.ctx.nvars
        origin = (0,) * n
        seen = {origin}
        queue = [origin]
        out = []
        while queue:
            exp = queue.pop(0)
            if any(_divides(l, exp) for l in leads):
                continue
            out.append(exp)
            if len(out) > cap:
                raise ValueError("standard monomial count exceeds cap %d" % cap)
            for i in range(n):
                nxt = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        out.sort(key=lambda e: weighted_grevlex_key(self.ctx, e))
        return out

    def quotient_dimension(self, cap: int = 1000) -> int:
        return len(self.standard_monomials(cap))
