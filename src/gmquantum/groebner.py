"""Groebner bases over the rationals, in graded reverse lex order.

Plain Buchberger with the coprime-leading-term criterion is enough for the
tiny ideals handled here (two variables, a handful of generators).  A
quotient ring is decided finite or infinite exactly from the leading
monomials of the reduced basis, and its standard monomials are read off
the box their pure powers bound.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence

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
        self.basis = buchberger(gens)

    def reduce(self, poly: MultiPoly) -> MultiPoly:
        return normal_form(poly, self.basis)

    def leading_exponents(self) -> List[Exponent]:
        return [g.leading()[0] for g in self.basis]

    def _box(self) -> Optional[List[int]]:
        """Per variable, its least pure power among the leading monomials.

        None if some variable has no pure power there, which is exactly
        when the quotient is infinite (Finiteness Theorem; Cox, Little and
        O'Shea, Ideals, Varieties, and Algorithms, ch. 5 par. 3).
        """
        leads = self.leading_exponents()
        box = [min((l[i] for l in leads if sum(l) == l[i]), default=None)
               for i in range(self.ctx.nvars)]
        return None if None in box else box

    def standard_monomials(self) -> List[Exponent]:
        """Monomials outside the leading-term ideal, in grevlex order.

        They lie in the box bounded by the pure powers among the leading
        monomials.  Raises if the quotient is infinite.
        """
        box = self._box()
        if box is None:
            raise ValueError("the quotient ring is infinite-dimensional")
        leads = self.leading_exponents()
        out = [exp for exp in product(*(range(b) for b in box))
               if not any(_divides(l, exp) for l in leads)]
        out.sort(key=lambda e: weighted_grevlex_key(self.ctx, e))
        return out

    def quotient_dimension(self) -> Optional[int]:
        """Dimension of the quotient over Q, or None if it is infinite."""
        if self._box() is None:
            return None
        return len(self.standard_monomials())
