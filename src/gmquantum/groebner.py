"""Groebner bases over the rationals, in weighted graded reverse lex order.

Terms live in maps {key: integer numerator} over one denominator, keyed
as in `poly`, whose integer order is the monomial order and whose keys
add as monomials multiply; a divisibility test unpacks the exponents as
-key & mask.  With every degree positive the order is a well-order.
Buchberger (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 par. 10) keeps a monic basis, reduces each generator as it enters
and takes S-pairs by least lcm (normal selection), skipping coprime leads
and those the chain criterion settles.
"""

from __future__ import annotations

import heapq
import math
from itertools import product
from operator import le, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import MASK, Exponent, MultiPoly, VarContext

# a monic basis element x^lead + tail / den: (lead, tail, den), lead a key
Monic = Tuple[int, Dict[int, int], int]


def _masks(ctx: VarContext) -> Tuple[int, int]:
    """The mask of the packed exponents, and the lowest bit of each field
    but the first."""
    mask = (1 << ctx.bits) - 1
    return mask, mask // MASK - 1


def _divides(a: int, b: int, mask: int, fields: int) -> bool:
    """Whether the monomial of key a divides that of key b: b's packed
    exponents minus a's borrow across no field."""
    a, b = -a & mask, -b & mask
    d = b - a
    return d >= 0 and not (a ^ b ^ d) & fields


def _numerators(poly: MultiPoly) -> Dict[int, int]:
    """A copy of `poly`'s numerators.  Division never raises the weighted
    degree, so guarding it keeps a remainder's exponents from carrying."""
    poly.ctx.guard(poly.bound * sum(poly.ctx.degrees))
    return dict(poly.nums)


def _poly(ctx: VarContext, f: Dict[int, int], den: int) -> MultiPoly:
    """f over den in lowest terms; the leading weighted degree bounds it."""
    g = math.gcd(den, *f.values())
    return MultiPoly.from_numerators(
        ctx, {k: n // g for k, n in f.items()}, den // g,
        ctx.degree(max(f)) if f else 0)


def _monic(f: Dict[int, int]) -> Monic:
    """The monic multiple of the nonzero map f, in lowest terms."""
    lead = max(f)
    den = f.pop(lead)
    g = math.gcd(den, *f.values()) * (1 if den > 0 else -1)
    return lead, {k: n // g for k, n in f.items()}, den // g


def _subtract(f: Dict[int, int], tail: Dict[int, int], shift: int, c: int):
    """f -= c x^shift tail, in place."""
    for k, n in tail.items():
        v = f.pop(k + shift, 0) - c * n
        if v:
            f[k + shift] = v


def _reduce(ctx: VarContext, f: Dict[int, int],
            basis: Sequence[Monic]) -> Tuple[Dict[int, int], int]:
    """The remainder of f by `basis`, emptying f, and the factor by which
    its denominator grew."""
    mask, fields = _masks(ctx)
    rem, scale = {}, 1
    while f:
        top = max(f)
        c, packed = f.pop(top), -top & mask
        for lead, tail, den in basis:
            lead_packed = -lead & mask  # as in _divides
            d = packed - lead_packed
            if d >= 0 and not (packed ^ lead_packed ^ d) & fields:
                break
        else:
            rem[top] = c
            continue
        common = math.gcd(c, den)
        if common != den:  # f - c x^(top - lead) g needs a larger denominator
            for m in (f, rem):
                for k in m:
                    m[k] *= den // common
            scale *= den // common
        _subtract(f, tail, top - lead, c // common)
    return rem, scale


def _s_polynomial(gi: Monic, gj: Monic, lcm: int) -> Dict[int, int]:
    """x^(L - lead_i) g_i - x^(L - lead_j) g_j, L of key lcm, times both
    tail denominators."""
    s: Dict[int, int] = {}
    _subtract(s, gi[1], lcm - gi[0], -gj[2])
    _subtract(s, gj[1], lcm - gj[0], gi[2])
    return s


def buchberger(generators: Sequence[MultiPoly]) -> List[Monic]:
    """Reduced Groebner basis of nonzero generators, leading terms rising."""
    ctx = generators[0].ctx
    mask, fields = _masks(ctx)
    basis: List[Monic] = []
    heap: List[Tuple[int, int, int]] = []
    pending = set()

    def add(f: Dict[int, int]):
        """Reduce f; if it survives, queue its pairs but the coprime ones,
        whose lcm is the product of their leads."""
        f, _ = _reduce(ctx, f, basis)
        if f:
            j, new = len(basis), _monic(f)
            basis.append(new)
            for i, g in enumerate(basis[:j]):
                lcm = sum(map(mul, map(max, ctx.exponent(g[0]),
                                       ctx.exponent(new[0])), ctx.var_keys))
                if lcm != g[0] + new[0]:
                    heapq.heappush(heap, (lcm, i, j))
                    pending.add((i, j))

    for f in sorted(map(_numerators, generators), key=max):
        add(f)
    while heap:
        lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        # chain: g_k's lead divides the lcm, its pairs with g_i, g_j done
        if not any(_divides(g[0], lcm, mask, fields) and k not in (i, j)
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k, g in enumerate(basis)):
            add(_s_polynomial(basis[i], basis[j], lcm))
    # leads are distinct, so sorting compares only them
    minimal = [g for g in sorted(basis) if not any(
        h is not g and _divides(h[0], g[0], mask, fields) for h in basis)]
    out = []
    for lead, tail, den in minimal:
        rem, scale = _reduce(ctx, dict(tail), minimal)
        out.append(_monic({lead: den * scale, **rem}))
    return out


class PolyIdeal:
    """Ideal with its reduced Groebner basis and quotient-ring helpers."""

    def __init__(self, generators: Sequence[MultiPoly]):
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("ideal needs at least one nonzero generator")
        self.ctx = gens[0].ctx
        if any(g.ctx != self.ctx for g in gens):
            raise ValueError("generators from mixed contexts")
        if min(self.ctx.degrees) <= 0:
            raise ValueError("weighted grevlex needs positive degrees")
        self._monic_basis = buchberger(gens)
        self.basis = [_poly(self.ctx, {lead: den, **tail}, den)
                      for lead, tail, den in self._monic_basis]

    def reduce(self, poly: MultiPoly) -> MultiPoly:
        """The normal form of `poly`, in lowest terms."""
        rem, scale = _reduce(self.ctx, _numerators(poly), self._monic_basis)
        return _poly(self.ctx, rem, poly.den * scale)

    def leading_exponents(self) -> List[Exponent]:
        return [self.ctx.exponent(g[0]) for g in self._monic_basis]

    def _box(self) -> Optional[List[int]]:
        """Per variable, its least pure leading power; None if one has none,
        exactly when the quotient is infinite (Cox, Little and O'Shea, ch. 5
        par. 3)."""
        leads = self.leading_exponents()
        box = [min((l[i] for l in leads if sum(l) == l[i]), default=None)
               for i in range(self.ctx.nvars)]
        return None if None in box else box

    def standard_monomials(self) -> List[Exponent]:
        """Monomials outside the leading-term ideal, in grevlex order: they
        lie in the box of `_box`.  Raises if the quotient is infinite."""
        box = self._box()
        if box is None:
            raise ValueError("the quotient ring is infinite-dimensional")
        leads = self.leading_exponents()
        out = [exp for exp in product(*(range(b) for b in box))
               if not any(all(map(le, l, exp)) for l in leads)]
        out.sort(key=self.ctx.key)
        return out

    def quotient_dimension(self) -> Optional[int]:
        """Dimension of the quotient over Q, or None if it is infinite."""
        if self._box() is None:
            return None
        return len(self.standard_monomials())
