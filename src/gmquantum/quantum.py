"""Small quantum cohomology of the degree 10 fourfold on its even lattice.

Elements are vectors over Q[q] (deg q = 2) in the basis (s0, s1, s2, s11,
s3, s31).  The product is determined by the classical cup product, the
two point counts I11, I12, I13, I2, and the three point counts J11, J12, J2
attached to sigma_11.  Two columns of the table come from the correction
formula of Kontsevich-Manin (`corrected_product`),
      a * b = a cup b + sum_d q^d sum_k <a, b, e_k>_d dual(e_k):

* h * b, where the divisor axiom gives <h, b, e_k>_d = d <b, e_k>_d,
* s11 * s11 = s31 + q (J11 dual(s2) + J12 dual(s11)) + J2 q^2,
* every other product follows by associativity chains through the h
  column: s2 = h*h - s11 - I11 q, 2 s3 = h*s11 - I13 q s1, and
  s31 = h*s3 - (I12-I13) q s2 - (2 I13-I12) q s11 - 2 I2 q^2.

The chains only ever divide by the integers 2 and 3, so the whole table
is affine in any symbolic unknowns fed in for J11 and J2; that is what
`solve_three_point_invariants` exploits to pin both from associativity.

Products are computed from the table read as structure constants, in the
WDVV framing of Kontsevich-Manin: e_i * e_j = sum_k c_ijk e_k, where each
c_ijk is a polynomial whose monomials the grading fixes (a single power
q^((deg i + deg j - deg k)/2) on the standard ring).  A `StructureTensor`
holds their integer numerators, keyed by monomial as in `poly`, over one
denominator, and contracts two vectors of `MultiPoly` into a vector of
`MultiPoly` with Python int products and sums alone.  Keys add as
monomials multiply in any context, so the standard ring Q[q] and the
solver's symbolic (q, uJ11, uJ2) ring run through the same code.  Only
`star` and `pairing` contract the tensors, which `QuantumRing` keeps
private; products of vectors go through them and compare unreduced
results by cross-multiplying.  The checks on basis classes need no
vector: the commutativity scan compares the tensor's entries, and the
associativity and Frobenius scans compose the structure constants of
a*b and b*c with those of the product or the pairing, comparing integer
numerators over one denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import (
    chain, combinations, combinations_with_replacement, product)
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .ambient import AmbientRing, BASIS_DEGREES, BASIS_NAMES, DIM
from .groebner import PolyIdeal
from .linalg import (
    Matrix, at_q_one, char_poly, matmul, matrix_at_q_one,
    matvec, nullspace_field, rank_field,
    squarefree_profile, vector_at_q_one,
)
from .poly import Exponent, MultiPoly, VarContext
from .gwcounts import CountSet

QVec = Tuple[MultiPoly, ...]
Table = Mapping[Tuple[int, int], QVec]


def quantum_context(extra: Sequence[str] = ()) -> VarContext:
    """Q[q] with deg q = 2, extended by degree 0 unknowns if asked."""
    return VarContext(("q",) + tuple(extra), (2,) + (0,) * len(extra))


def _vsub(x: QVec, y: QVec) -> QVec:
    return tuple(a - b for a, b in zip(x, y))


def _vscale(c, x: QVec) -> QVec:
    """c * x, multiplying only the nonzero coordinates."""
    return tuple(a * c if a else a for a in x)


def _is_zero_vec(x: QVec) -> bool:
    return all(c.is_zero() for c in x)


def corrected_product(cup: Sequence[Fraction],
                      invariants: Mapping[Tuple[str, int], object],
                      amb: AmbientRing, ctx: VarContext) -> QVec:
    """a * b = a cup b + sum_d q^d sum_k <a, b, e_k>_d dual(e_k), from the
    cup product vector of a and b and {(name of e_k, d): <a, b, e_k>_d}."""
    duals = amb.dual_basis()
    q = ctx.var("q")
    out = list(map(ctx.scalar, cup))
    for (name, d), val in invariants.items():
        coeff = q ** d * val
        for k, x in enumerate(duals[BASIS_NAMES.index(name)]):
            if x:
                out[k] = out[k] + coeff * x
    return tuple(out)


def star_h_matrix(counts: CountSet, amb: AmbientRing,
                  ctx: VarContext) -> Matrix:
    """The matrix of h * (-) on the basis; column j is h * e_j.

    The nonzero two point counts <a, b>_d on basis classes enter through
    the divisor axiom <h, a, b>_d = d <a, b>_d.  The normalization
    <sigma, dual> used for the counts halves the raw pairings, hence the
    factors of two.
    """
    invariants = {name: {} for name in BASIS_NAMES}
    for a, b, d, count in (("s1", "s31", 1, counts.I11),
                           ("s2", "s3", 1, counts.I12),
                           ("s11", "s3", 1, counts.I13),
                           ("s3", "s31", 2, counts.I2)):
        invariants[a][(b, d)] = invariants[b][(a, d)] = d * 2 * count
    h = BASIS_NAMES.index("s1")
    cols = [corrected_product(amb.cup_table[h][j], invariants[name], amb, ctx)
            for j, name in enumerate(BASIS_NAMES)]
    return Matrix([[cols[j][i] for j in range(DIM)] for i in range(DIM)])


class StructureTensor:
    """A bilinear map Q[u]^DIM x Q[u]^DIM -> Q[u]^width.

    `images[(i, j)]` is the image of (e_i, e_j), `width` polynomials; a
    missing pair maps to zero.  rows[i][j] lists its nonzero coefficients
    as (k, key, numerator) over one denominator `den`, with the monomial
    keys of `poly`: a product's key is the sum of its factors' keys.
    """

    def __init__(self, ctx: VarContext, width: int,
                 images: Mapping[Tuple[int, int], Sequence[MultiPoly]]):
        self.ctx = ctx
        self.width = width
        polys = [p for image in images.values() for p in image]
        self.den = math.lcm(*(p.den for p in polys))
        self.bound = max((p.bound for p in polys), default=0)
        # keys outgrow the small-int cache: sharing one object per key, and
        # adding nothing to it for a constant input term, lets `contract`
        # find keys by identity and build no int for constant vectors
        keys: Dict[int, int] = {}
        self.rows = [[[(k, keys.setdefault(key, key), n * (self.den // p.den))
                       for k, p in enumerate(images.get((i, j), ()))
                       for key, n in p.nums.items()]
                      for j in range(DIM)] for i in range(DIM)]

    def contract(self, x: QVec, y: QVec) -> QVec:
        """The image of (x, y): sum over i, j of x_i y_j images[(i, j)].

        Only Python ints are multiplied and added, over the denominator
        den(x) den(y) den(tensor), which is left unreduced.  Raises
        ValueError if the exponents could carry.
        """
        dx, xs, bx = _over_common_denominator(x)
        dy, ys, by = _over_common_denominator(y)
        bound = self.ctx.guard(bx + by + self.bound)
        acc: List[Dict[int, int]] = [{} for _ in range(self.width)]
        for i, xi in xs:
            row = self.rows[i]
            for j, yj in ys:
                entries = row[j]
                if not entries:
                    continue
                for ex, nx in xi:
                    for ey, ny in yj:
                        e, n = ex + ey, nx * ny
                        for k, et, c in entries:
                            slot, key = acc[k], e + et if e else et
                            slot[key] = slot.get(key, 0) + n * c
        den, make = dx * dy * self.den, MultiPoly.from_numerators
        return tuple([make(self.ctx, slot if all(slot.values()) else
                           {e: n for e, n in slot.items() if n}, den, bound)
                      for slot in acc])


def _over_common_denominator(x: QVec) -> Tuple[int, list, int]:
    """The lcm of x's denominators; each nonzero slot as (index, [(key,
    numerator over the lcm)]); and the largest exponent bound."""
    den = bound = 0
    for p in x:
        if p.den != den:
            den = math.lcm(den or 1, p.den)
        if p.bound > bound:
            bound = p.bound
    return den, [(i, list(p.nums.items()) if p.den == den else
                  [(e, n * (den // p.den)) for e, n in p.nums.items()])
                 for i, p in enumerate(x) if p.nums], bound


def product_table(counts: CountSet, amb: AmbientRing, j11, j2,
                  ctx: VarContext) -> Dict[Tuple[int, int], QVec]:
    """The 21 products e_i * e_j, i <= j, over `ctx`.

    The s0 row is the cup product with the unit and the s1 row the
    h-matrix; s11 * s11 is the correction formula with J11, J12 and J2;
    every other product follows by the associativity chains of the module
    docstring.  J12 comes from the counts; J11 and J2 may be unknowns of
    `ctx`.
    """
    c = counts
    q = ctx.var("q")
    h_matrix = star_h_matrix(counts, amb, ctx)
    idx = {n: i for i, n in enumerate(BASIS_NAMES)}
    t: Dict[Tuple[int, int], QVec] = {}

    def put(a, b, vec):
        i, j = idx[a], idx[b]
        t[(min(i, j), max(i, j))] = tuple(vec)

    def get(a, b):
        i, j = idx[a], idx[b]
        return t[(min(i, j), max(i, j))]

    star_h = partial(matvec, h_matrix)
    for j, name in enumerate(BASIS_NAMES):
        put("s0", name, map(ctx.scalar, amb.cup_table[0][j]))
        put("s1", name, h_matrix.col(j))
    # dual(s31) = s0 / 2, so the degree 2 count 2 J2 puts J2 on s0
    s11 = idx["s11"]
    put("s11", "s11", corrected_product(
        amb.cup_table[s11][s11],
        {("s2", 1): j11, ("s11", 1): c.J12, ("s31", 2): 2 * j2}, amb, ctx))
    # (h*h) * s11 = s2*s11 + s11*s11 + I11 q s11
    put("s2", "s11", _vsub(_vsub(star_h(get("s1", "s11")),
                                 get("s11", "s11")),
                           _vscale(q * c.I11, get("s0", "s11"))))
    put("s2", "s2", _vsub(_vsub(star_h(get("s1", "s2")), get("s2", "s11")),
                          _vscale(q * c.I11, get("s0", "s2"))))
    # h*s11 = 2 s3 + I13 q s1, so 2 s3*x = h*(s11*x) - I13 q s1*x
    for name in ("s2", "s11"):
        via = _vsub(star_h(get("s11", name)),
                    _vscale(q * c.I13, get("s1", name)))
        put("s3", name, _vscale(Fraction(1, 2), via))
    # h*s2 = 3 s3 + I12 q s1, so 3 s3*s3 = h*(s2*s3) - I12 q s1*s3
    via = _vsub(star_h(get("s2", "s3")), _vscale(q * c.I12, get("s1", "s3")))
    put("s3", "s3", _vscale(Fraction(1, 3), via))
    # s31 = h*s3 - (I12-I13) q s2 - (2 I13-I12) q s11 - 2 I2 q^2
    for name in ("s2", "s11", "s3", "s31"):
        vec = star_h(get("s3", name))
        vec = _vsub(vec, _vscale(q * (c.I12 - c.I13), get("s2", name)))
        vec = _vsub(vec, _vscale(q * (2 * c.I13 - c.I12), get("s11", name)))
        vec = _vsub(vec, _vscale(q * q * (2 * c.I2), get("s0", name)))
        put("s31", name, vec)
    return t


class QuantumRing:
    """The even quantum lattice of a multiplication table.

    The ring is its table alone, next to the ambient ring that every ring
    of one computation shares: the coefficient context is that of the
    table's entries, and the h-matrix is the table's s1 row.  The table
    is read-only, so the structure tensors derived from it here always
    describe the product that `table` shows.
    """

    def __init__(self, amb: AmbientRing, table: Table):
        self.amb = amb
        self.table = MappingProxyType(dict(table))
        self.ctx = self.table[(0, 0)][0].ctx
        products = {(i, j): self.table[(min(i, j), max(i, j))]
                    for i in range(DIM) for j in range(DIM)}
        h = BASIS_NAMES.index("s1")
        self.h_matrix = Matrix([[products[(h, j)][i] for j in range(DIM)]
                                for i in range(DIM)])
        self._product_tensor = StructureTensor(self.ctx, DIM, products)
        gram = self.amb.gram()
        self._gram_tensor = StructureTensor(self.ctx, 1, {
            (i, j): (self.ctx.scalar(gram.rows[i][j]),)
            for i in range(DIM) for j in range(DIM)})
        # each basis scan's failures, filled by its first call on this ring
        self._scans: Dict[str, list] = {}

    # -- elements ---------------------------------------------------------

    def zero(self) -> QVec:
        return tuple(self.ctx.zero() for _ in range(DIM))

    def basis_element(self, name: str) -> QVec:
        return self.element({name: 1})

    def element(self, coeffs: Dict[str, object]) -> QVec:
        out = list(self.zero())
        for name, c in coeffs.items():
            out[BASIS_NAMES.index(name)] = (
                c if isinstance(c, MultiPoly) else self.ctx.scalar(c))
        return tuple(out)

    # -- products ---------------------------------------------------------

    def star_h(self, x: QVec) -> QVec:
        return tuple(matvec(self.h_matrix, list(x)))

    def star(self, x: QVec, y: QVec) -> QVec:
        """x * y, contracted against the table's structure tensor."""
        return self._product_tensor.contract(x, y)

    def pairing(self, x: QVec, y: QVec) -> MultiPoly:
        """<x, y>, contracted against the Gram matrix as a width 1 tensor."""
        return self._gram_tensor.contract(x, y)[0]

    def format(self, x: QVec) -> str:
        parts = []
        for name, c in zip(BASIS_NAMES, x):
            if c.is_zero():
                continue
            cs = str(c)
            if cs == "1":
                parts.append(name)
            elif any(op in cs for op in (" + ", " - ")):
                parts.append("(%s)*%s" % (cs, name))
            else:
                parts.append("%s*%s" % (cs, name))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# table level checks
# ---------------------------------------------------------------------------


def _component_failures(ring: QuantumRing, fails) -> List[str]:
    """"a*b component c" for each component c of a table product a*b,
    i.e. (i, j, k, entry), where `fails` holds."""
    return ["%s*%s component %s" % (BASIS_NAMES[i], BASIS_NAMES[j],
                                    BASIS_NAMES[k])
            for (i, j), vec in sorted(ring.table.items())
            for k, comp in enumerate(vec) if fails(i, j, k, comp)]


def grading_failures(ring: QuantumRing) -> List[str]:
    """Components not homogeneous of degree deg a + deg b - deg c."""
    degs = BASIS_DEGREES
    return _component_failures(ring, lambda i, j, k, comp: (
        not comp.is_zero()
        and not comp.is_homogeneous(degs[i] + degs[j] - degs[k])))


def _scanned(ring: QuantumRing, name: str, scan) -> list:
    """A copy of scan(), run once per ring and `name`: the table is fixed."""
    if name not in ring._scans:
        ring._scans[name] = scan()
    return list(ring._scans[name])


def commutativity_failures(ring: QuantumRing) -> List[str]:
    """The 36 ordered basis pairs "a*b" whose image under the product
    tensor differs from that of "b*a"."""
    rows = ring._product_tensor.rows
    return _scanned(ring, "commutativity", lambda: [
        "%s*%s" % (BASIS_NAMES[i], BASIS_NAMES[j])
        for i, j in product(range(DIM), repeat=2)
        if sorted(rows[i][j]) != sorted(rows[j][i])])


def associativity_failures(ring: QuantumRing) -> List[Tuple[str, str, str]]:
    """Basis triples where (a*b)*c differs from a*(b*c), on every associator
    of a commutative table: the sorted i <= j <= k, then (i, k, j) for
    i < j < k, the second associator of three distinct classes."""
    triples = chain(combinations_with_replacement(range(DIM), 3),
                    ((i, k, j) for i, j, k in combinations(range(DIM), 3)))
    return _scanned(ring, "associativity", lambda: [
        names for names, lhs, rhs in _table_sides(
            ring, triples, ring._product_tensor) if lhs != rhs])


def frobenius_failures(ring: QuantumRing) -> List[Tuple[str, str, str]]:
    """The ordered basis triples where <a*b, c> differs from <a, b*c>."""
    return _scanned(ring, "frobenius", lambda: [
        names for names, lhs, rhs in _table_sides(
            ring, product(range(DIM), repeat=3), ring._gram_tensor)
        if lhs != rhs])


# the basis triples each scan compares, composing the structure constants
# of a*b and b*c with those of the product or the pairing
ASSOCIATIVITY_TRIPLES = math.comb(DIM + 2, 3) + math.comb(DIM, 3)
FROBENIUS_TRIPLES = DIM ** 3


def _compose(entries, images, width: int) -> List[Dict[int, int]]:
    """sum over (m, key, n) of `entries` of n x^key images[m], as one
    {key: numerator} map per slot with no zero numerator."""
    acc: List[Dict[int, int]] = [{} for _ in range(width)]
    for m, key, n in entries:
        for s, et, c in images[m]:
            slot, e = acc[s], key + et if key else et
            slot[e] = slot.get(e, 0) + n * c
    return [slot if all(slot.values()) else
            {e: n for e, n in slot.items() if n} for slot in acc]


def _table_sides(ring: QuantumRing, triples, tensor: StructureTensor):
    """(names, (e_i*e_j) e_k, e_i (e_j*e_k)) for each index triple (i, j, k)
    of `triples`, where juxtaposition is the bilinear map of `tensor`.

    With c_ij^m the product's structure constants, the sides are
    sum_m c_ij^m T(e_m, e_k) and sum_m c_jk^m T(e_i, e_m): per-slot
    {key: numerator} maps over den(product) den(tensor), so equal sides
    are equal maps.  Each distinct side is composed once, and one guard
    refuses exponents that could carry.
    """
    prod = ring._product_tensor
    prod.ctx.guard(prod.bound + tensor.bound)
    rows, width = prod.rows, tensor.width
    cols = [[tensor.rows[m][k] for m in range(DIM)] for k in range(DIM)]
    left, right = {}, {}
    for i, j, k in triples:
        ab = (min(i, j), max(i, j)), k
        bc = i, (min(j, k), max(j, k))
        if ab not in left:
            left[ab] = _compose(rows[ab[0][0]][ab[0][1]], cols[k], width)
        if bc not in right:
            right[bc] = _compose(rows[bc[1][0]][bc[1][1]], tensor.rows[i],
                                 width)
        yield ((BASIS_NAMES[i], BASIS_NAMES[j], BASIS_NAMES[k]),
               left[ab], right[bc])


def classical_limit_failures(ring: QuantumRing) -> List[str]:
    """Components whose q = 0 part differs from that of the cup product;
    every failing component of a product is listed."""
    cup, scalar = ring.amb.cup_table, ring.ctx.scalar
    return _component_failures(ring, lambda i, j, k, comp: (
        comp.coefficient_of("q", 0) != scalar(cup[i][j][k])))


def perturbed_ring(ring: QuantumRing) -> QuantumRing:
    """Same data with s11*s11 shifted by q^2 s0; must break associativity."""
    i = BASIS_NAMES.index("s11")
    table = dict(ring.table)
    entry = list(table[(i, i)])
    entry[0] = entry[0] + ring.ctx.var("q") ** 2
    table[(i, i)] = tuple(entry)
    return QuantumRing(ring.amb, table)


# ---------------------------------------------------------------------------
# solving for the three point invariants
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    counts: CountSet    # the counts the system was solved from
    j11: Fraction
    j2: Fraction
    equations: int
    rank: int
    residuals_checked: int
    ring: QuantumRing   # the numeric ring on the solution, associative


def _route_residuals(ring: QuantumRing, counts: CountSet) -> List[MultiPoly]:
    """Cross checks of the two chains defining s3 * x.

    Each product s3 * x can be reached through the s11 chain (as stored)
    or through the s2 chain 3 s3*x = h*(s2*x) - I12 q s1*x; the difference
    must vanish and is affine in any symbolic unknowns.  Products of two
    basis classes are read from the table.  The table stores s3 * s3
    through the s2 chain, so the residual for x = s3 vanishes by
    construction; it is kept so that the four x are checked alike.
    """
    q = ring.ctx.var("q")

    def times(a: str, b: str) -> QVec:
        i, j = sorted((BASIS_NAMES.index(a), BASIS_NAMES.index(b)))
        return ring.table[(i, j)]

    out = []
    for name in ("s2", "s11", "s3", "s31"):
        via = _vsub(ring.star_h(times("s2", name)),
                    _vscale(q * counts.I12, times("s1", name)))
        out.extend(_vsub(_vscale(Fraction(3), times("s3", name)), via))
    return out


def _affine_split(p: MultiPoly, unknowns: Sequence[str]):
    """Integer coefficient rows of an affine polynomial; raises if it is
    not affine.

    Returns {q_exponent: [constant, coeff_u1, coeff_u2, ...]}, read off
    the numerators: each row is an equation = 0, so the polynomial's
    shared denominator drops.
    """
    ctx = p.ctx
    pos = [ctx.index[u] for u in unknowns]
    qpos = ctx.index["q"]
    rows: Dict[int, List[int]] = {}
    for key, num in p.nums.items():
        exp = ctx.exponent(key)
        degs = [exp[i] for i in pos]
        udeg = sum(degs)
        if udeg > 1:
            raise ValueError("residual is not affine in the unknowns: %s" % p)
        row = rows.setdefault(exp[qpos], [0] * (1 + len(pos)))
        row[degs.index(1) + 1 if udeg else 0] += num
    return rows


def _solve_affine_pair(rows: Sequence[Sequence[int]]
                       ) -> Tuple[Fraction, Fraction]:
    """The one (x, y) with a x + b y + c = 0 on every integer row (a, b, c).

    The (a, b) part has rank 2 exactly when some 2 x 2 minor is nonzero,
    and then one against the first nonzero (a, b) row is.  Cramer's rule
    on that pair gives det * (x, y) in integers, and every row is checked
    exactly.  The refusals come in this order: no rows, rank below 2
    (even if the rows also disagree), a row the solution misses.
    """
    if not rows:
        raise ValueError("no usable equations for the three point unknowns")
    first = next((row for row in rows if row[0] or row[1]), None)
    second = None if first is None else next(
        (row for row in rows if first[0] * row[1] - row[0] * first[1]), None)
    if second is None:
        raise ValueError("associativity does not pin both unknowns")
    (a1, b1, c1), (a2, b2, c2) = first, second
    det = a1 * b2 - a2 * b1
    x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
    if any(a * x + b * y + c * det for a, b, c in rows):
        raise ValueError("inconsistent associativity system")
    return Fraction(x, det), Fraction(y, det)


def solve_three_point_invariants(counts: CountSet) -> SolveReport:
    """Determine J11 and J2 from associativity, given the geometric J12.

    Builds the table with symbolic unknowns in place of J11 and J2,
    collects the affine route residuals plus Frobenius residuals, splits
    each nonzero one into integer rows, one per power of q, and solves
    that system exactly on integers (`_solve_affine_pair`).  It then
    specialises the symbolic table at the solution and checks every
    associativity triple of that numeric ring.  That ring is returned on
    the report.
    """
    unknowns = ("uJ11", "uJ2")
    ctx = quantum_context(unknowns)
    amb = AmbientRing()
    ring = QuantumRing(amb, product_table(
        counts, amb, ctx.var("uJ11"), ctx.var("uJ2"), ctx))
    # <a*b, c> - <a, b*c> over the scan's denominator; the scan guards
    # the bound
    prod, gram = ring._product_tensor, ring._gram_tensor
    side = partial(MultiPoly.from_numerators, ctx, den=prod.den * gram.den,
                   bound=prod.bound + gram.bound)
    residuals = _route_residuals(ring, counts) + [
        side(lhs) - side(rhs) for _, (lhs,), (rhs,) in _table_sides(
            ring, combinations_with_replacement(range(DIM), 3), gram)]
    rows = [(a, b, c) for r in residuals if not r.is_zero()
            for _, (c, a, b) in sorted(_affine_split(r, unknowns).items())]
    j11, j2 = _solve_affine_pair(rows)
    # the table is affine in the unknowns, so the solution specialises it
    plain = quantum_context()
    at_sol = {"uJ11": plain.scalar(j11), "uJ2": plain.scalar(j2)}
    final = QuantumRing(amb, {
        ij: tuple(p.substitute(at_sol, plain) for p in vec)
        for ij, vec in ring.table.items()})
    bad = associativity_failures(final)
    if bad:
        raise ValueError("solved table still fails associativity: %r" % bad)
    return SolveReport(counts=counts, j11=j11, j2=j2, equations=len(rows),
                       rank=2, residuals_checked=len(final.table),
                       ring=final)


def degree_two_closed_form(counts: CountSet, j11) -> Fraction:
    """J2 as a closed expression in the two point counts and J11."""
    i11, i12, i13, i2 = counts.I11, counts.I12, counts.I13, counts.I2
    return (i11 * (2 * i13 - i12)
            + Fraction(1, 5) * (2 * i12 - 3 * i13)
            * (2 * i12 + 9 * i13 - Fraction(5, 2) * j11)
            + Fraction(6, 5) * i2)


def ring_from_solve(counts: CountSet, report: SolveReport) -> QuantumRing:
    """The solver's ring, once the report is known to belong to `counts`.

    The report must have been solved from these counts, and the solved
    J11 must agree with the J11 recorded in the counts.
    """
    if report.counts != counts:
        raise ValueError("the solve report was made from other counts")
    if report.j11 != counts.J11:
        raise ValueError("associativity J11 disagrees with the derived value")
    return report.ring


def standard_ring() -> QuantumRing:
    """The ring with every invariant computed from geometry."""
    counts = CountSet.from_geometry()
    return ring_from_solve(counts, solve_three_point_invariants(counts))


# ---------------------------------------------------------------------------
# spectral data of the h action
# ---------------------------------------------------------------------------


def surd_pair_solves(a, b, r0, r1, d) -> bool:
    """Whether r0 +- r1 sqrt(d) both solve T^2 + a T + b = 0 over Q.

    Substituting either sign gives rat +- irr sqrt(d), so one exact check
    of both parts covers the pair.
    """
    rat = r0 * r0 + d * r1 * r1 + a * r0 + b
    irr = 2 * r0 * r1 + a * r1
    return rat == 0 and irr == 0


def spectral_report(ring: QuantumRing) -> Dict[str, object]:
    """Characteristic polynomial of h * (-) and its eigenvalue structure."""
    cp = char_poly(ring.h_matrix, var="X")
    cp1 = at_q_one(cp, DIM, "characteristic polynomial")
    # cp = X^2 (X^4 + a q X^2 + b q^2), homogeneous of degree 6, so its
    # profile over Q(q) is the one at q = 1, where T = X^2 solves
    # T^2 + a T + b
    even = ([k for k in range(DIM + 1) if cp1.coefficient_of("X", k)]
            == [2, 4, 6])
    a_val = cp1.coefficient_of("X", 4).scalar_value()
    b_val = cp1.coefficient_of("X", 2).scalar_value()
    report = {
        "char_poly": str(cp),
        "only_even_powers": even,
        "quadratic_in_Xsq": "T^2 + (%s) T + (%s)" % (a_val, b_val),
        "kernel": kernel_basis(ring),
        "squarefree_profile": squarefree_profile(cp1, "X"),
    }
    # eigenvalues at q = 1: 0 twice plus the four square roots of the
    # two roots of T^2 + a T + b
    split = surd_split(a_val, b_val)
    report["roots_at_q1"], report["roots_verified"] = surd_roots(
        a_val, b_val, split)
    report["quadratic_at_q1"] = (a_val, b_val)
    # only a real surd pair, d > 1; otherwise roots_at_q1 says why not
    report["surd_at_q1"] = (split if split is not None and split[2] != 1
                            else None)
    return report


def squarefree_part(n: int) -> Tuple[int, int]:
    """(s, d) with n = s^2 d and d squarefree, for a positive integer n.

    Trial division runs while p^3 <= the cofactor; what is left then has
    at most two prime factors, so it is squarefree unless it is a square.
    """
    if n <= 0:
        raise ValueError("squarefree part of a non-positive integer")
    s = d = 1
    p = 2
    while p * p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            d *= p
        p += 1
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def surd_split(a: Fraction, b: Fraction
               ) -> Optional[Tuple[Fraction, Fraction, int]]:
    """(r0, r1, d) with roots r0 +- r1 sqrt(d) of T^2 + a T + b, d squarefree.

    sqrt(disc) = s sqrt(d) / den where s^2 d is the squarefree split of
    num * den.  None when the discriminant is <= 0.
    """
    disc = a * a - 4 * b
    if disc <= 0:
        return None
    s, d = squarefree_part(disc.numerator * disc.denominator)
    return -a / 2, Fraction(s, 2 * disc.denominator), d


def surd_roots(a: Fraction, b: Fraction,
               split: Optional[Tuple[Fraction, Fraction, int]]
               ) -> Tuple[str, bool]:
    """The roots r0 +- r1 sqrt(d) of T^2 + a T + b over Q, checked exactly.

    `split` is `surd_split(a, b)`.  A discriminant <= 0 or a rational
    square has no surd pair; the returned note says so and the check
    reads False.
    """
    if split is None:
        return ("no surd pair: the discriminant at q = 1 is %s <= 0"
                % (a * a - 4 * b), False)
    r0, r1, d = split
    if d == 1:
        return ("no surd pair: the discriminant at q = 1 is the square of"
                " %s, so the roots %s +- %s are rational" % (2 * r1, r0, r1),
                False)
    return ("%s +- %s sqrt(%d)" % (r0, r1, d),
            surd_pair_solves(a, b, r0, r1, d))


# ---------------------------------------------------------------------------
# kernel of the h action
# ---------------------------------------------------------------------------


def kernel_pair(q: MultiPoly) -> Tuple[Dict[str, MultiPoly],
                                       Dict[str, MultiPoly]]:
    """alpha = 2 s2 - 3 s11 - 2q s0 and beta = s31 - 2q s2 - 4q^2 s0, the
    closed form kernel of h * (-), as coefficients over q's context."""
    one = q.ctx.one()
    return ({"s0": -2 * q, "s2": 2 * one, "s11": -3 * one},
            {"s0": -4 * q * q, "s2": -2 * q, "s31": one})


def kernel_basis(ring: QuantumRing) -> Dict[str, object]:
    """The kernel pair of `kernel_pair` as ring elements, with checks that
    h * (-) kills both and that they span its nullspace.  The span is one
    rank of alpha, beta and the null basis stacked, which reads 2 outside
    span(alpha, beta) only when `independent` is false."""
    alpha, beta = (ring.element(coeffs)
                   for coeffs in kernel_pair(ring.ctx.var("q")))
    killed = (_is_zero_vec(ring.star_h(alpha))
              and _is_zero_vec(ring.star_h(beta)))
    # independence and span agreement with the generic nullspace, at
    # q = 1: alpha has weight deg s2 = 2, beta weight deg s31 = 4
    rmat = Matrix([vector_at_q_one(alpha, 2, BASIS_DEGREES, "alpha"),
                   vector_at_q_one(beta, 4, BASIS_DEGREES, "beta")])
    independent = rank_field(rmat) == 2
    mh1 = matrix_at_q_one(ring.h_matrix, 1, BASIS_DEGREES,
                          "h matrix").map(MultiPoly.scalar_value)
    null = nullspace_field(mh1, Fraction(1))
    spans = len(null) == 2 and rank_field(Matrix(rmat.rows + null)) == 2
    return {
        "alpha": alpha,
        "beta": beta,
        "killed": killed,
        "independent": independent,
        "dimension": len(null),
        "spans_nullspace": spans,
    }


# ---------------------------------------------------------------------------
# ring presentation
# ---------------------------------------------------------------------------


def presentation_relations() -> Dict[str, MultiPoly]:
    """R1, R2, R3 over Q[q, s11, h] with deg q = 2, deg s11 = 2, deg h = 1."""
    ctx = VarContext(("q", "s11", "h"), (2, 2, 1))
    q, s11, h = ctx.var("q"), ctx.var("s11"), ctx.var("h")
    return {
        "R1": 5 * h * s11 - 2 * h ** 3 + 14 * q * h,
        "R2": (5 * s11 ** 2 + 20 * q * s11 - h ** 4 + 12 * q * h ** 2
               + 20 * q ** 2),
        "R3": h ** 5 - 44 * q * h ** 3 - 16 * q ** 2 * h,
    }


def _presentation_ideal(rels: Mapping[str, MultiPoly]) -> List[MultiPoly]:
    """R1, R2, R3 of `rels` at q = 1, in Q[s11, h], deg s11 = 2, deg h = 1.

    Each relation is homogeneous, so s11 -> q s11, h -> sqrt(q) h carries
    this ideal onto the one over Q(q) and fixes every leading monomial:
    Groebner bases, standard monomials and quotient ranks agree.
    """
    return [at_q_one(rel, None, name) for name, rel in rels.items()]


def presentation_report(ring: QuantumRing) -> Dict[str, object]:
    """Relations hold, the quotient has rank 6, and the word map is a ring
    map; R1-R3 are built once, and R3 - ((5 s11 + 2 h^2 + 6 q) R1 - 5 h R2)
    is carried as "r3_dependence_residual".  R3 is odd in h, so R3(M) =
    M P(M^2) for the h-matrix M, with P read off its terms; Horner's rule
    from P's top coefficient times M^2 takes three matrix products."""
    @lru_cache(maxsize=None)
    def word(i: int, j: int) -> QVec:
        """s11^i * h^j under star, each product computed once."""
        if j:
            return ring.star(word(i, j - 1), ring.basis_element("s1"))
        if i:
            return ring.star(word(i - 1, 0), ring.basis_element("s11"))
        return ring.basis_element("s0")

    # each relation, evaluated through the star product, must vanish
    q = ring.ctx.var("q")
    rels = presentation_relations()
    vanish = {}
    for name, rel in rels.items():
        vec = ring.zero()
        for (a, i, j), c in rel.terms.items():
            term = _vscale(q ** a * c, word(i, j))
            vec = tuple(x + y for x, y in zip(vec, term))
        vanish[name] = _is_zero_vec(vec)
    gens = _presentation_ideal(rels)
    ctx = gens[0].ctx
    ideal = PolyIdeal(gens)
    sm = ideal.standard_monomials()
    expected = {(0, 0), (0, 1), (0, 2), (1, 0), (0, 3), (0, 4)}
    monomial_basis_ok = set(sm) == expected

    # images and products are compared at q = 1, each guarded as a vector
    # of the weight of s11^i h^j
    def at_one(vec: QVec, exp: Exponent, what: str) -> List[Fraction]:
        return vector_at_q_one(vec, ctx.weighted_degree(exp), BASIS_DEGREES,
                               "%s of s11^%d h^%d" % ((what,) + exp))

    # word map: (i, j) exponent of (s11, h) goes to s11^i * h^j under star
    images = {exp: at_one(word(*exp), exp, "image") for exp in sm}
    bijective = rank_field(Matrix([images[e] for e in sm])) == DIM

    # the ring map on integer numerators, the images over one denominator
    den = math.lcm(*(x.denominator for vec in images.values() for x in vec))
    numerators = {ctx.key(e): [x.numerator * (den // x.denominator)
                               for x in vec] for e, vec in images.items()}
    ring_map = True
    for gen_name, gvar in (("s11", "s11"), ("s1", "h")):
        gvec = ring.basis_element(gen_name)
        for exp in sm:
            prod = ctx.var(gvar) * ctx.monomial(exp)
            form = ideal.reduce(prod)
            lhs = [sum(n * numerators[key][k] for key, n in form.nums.items())
                   for k in range(DIM)]
            rhs = at_one(ring.star(gvec, word(*exp)), prod.leading()[0],
                         "product")
            if any(x * r.denominator != r.numerator * form.den * den
                   for x, r in zip(lhs, rhs)):
                ring_map = False
    # R3(M) = M P(M^2), P = sum of q^a c u^(j // 2) over R3's q^a h^j
    mh, coeffs = ring.h_matrix, {}
    for (a, _, j), c in rels["R3"].terms.items():
        coeffs[j // 2] = q ** a * c
    sq = matmul(mh, mh)
    acc = sq.map(coeffs[max(coeffs)].__mul__)
    for k in range(max(coeffs) - 1, -1, -1):
        for r in range(DIM):
            acc.rows[r][r] += coeffs.get(k, 0)
        acc = matmul(acc, sq) if k else acc
    minimal_ok = not any(x for row in matmul(mh, acc).rows for x in row)
    # no proper subset of the relations presents a rank 6 quotient
    necessity = {}
    for drop, keep in (("R3", (0, 1)), ("R2", (0, 2)), ("R1", (1, 2))):
        dim = PolyIdeal([gens[i] for i in keep]).quotient_dimension()
        necessity["without " + drop] = "infinite" if dim is None else dim
    rctx = rels["R1"].ctx
    qv, sv, hv = rctx.var("q"), rctx.var("s11"), rctx.var("h")
    dependence = rels["R3"] - ((5 * sv + 2 * hv ** 2 + 6 * qv) * rels["R1"]
                               - 5 * hv * rels["R2"])
    return {
        "relations_vanish": vanish,
        "standard_monomials": sorted(sm),
        "standard_monomial_names": [str(ctx.monomial(e))
                                    for e in sorted(sm)],
        "monomial_basis_ok": monomial_basis_ok,
        "quotient_rank": len(sm),
        "word_map_bijective": bijective,
        "word_map_multiplicative": ring_map,
        "minimal_polynomial_ok": minimal_ok,
        "necessity": necessity,
        "r3_dependence_residual": dependence,
    }
