"""Chow rings of projective and Grassmann bundle towers, with exact integration.

A tower is a small base (a product of projective spaces, or a point) with
a stack of bundle constructions on top.  Each projective stage P(E) adds
one degree 1 generator z, the hyperplane class of the dual tautological
line, with the single relation sum_i z^(r-i) c_i(E) = 0; each Grassmann
stage G(2,E) for rank 4 E adds generators (H, A), the Chern classes of the
dual tautological sub S^v, with the relations c3 = c4 = 0 of the dual
quotient c(E^v)/(1+H+A) (Fulton, Intersection Theory, ch. 14).  A
Grassmannian G(2,4) is that stage over a point.

Integration runs stage by stage.  A projective stage pushes z^(r-1+k) to
the k-th Segre class of E; this rule is linear over the lower ring and
valid monomial by monomial on any polynomial representative.  Every
Grassmannian is integrated by `grassmann_push` through the flag bundle
Fl(1,2; E), a tower of two projective stages: pull back along H -> u+v,
A -> uv, multiply by u (the relative hyperplane class of Fl -> G(2,E)),
then push v (rank r-1 bundle E/L1 with c(E/L1) = c(E)/(1-u)) and u
(rank r bundle E).

Sheaf expressions are trees over a few atoms, closed under dual, sum,
twist by a line bundle (rank <= 3) and Sym^2 (rank 2 or 3, via power sums
of the Chern roots).  One walk over an expression yields both its rank and
its Chern classes.  A tower builds its stages in order from that walk, so
a stage's bundle may use only the base and the stages below it.  Chern
classes of a sheaf expression come back in normal form modulo the tower's
presented Chow ring, so they match printed closed forms like
c2 = alpha + hH on rings where h^2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import PolyIdeal
from .poly import MultiPoly, VarContext, sum_of_products

Divisor = Tuple[Tuple[str, Fraction], ...]


def _divisor(coeffs: Dict[str, object]) -> Divisor:
    out = tuple(sorted((name, Fraction(c)) for name, c in coeffs.items() if c))
    return out


# ---------------------------------------------------------------------------
# sheaf expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trivial:
    rank: int


@dataclass(frozen=True)
class Line:
    divisor: Divisor


def line_bundle(coeffs: Dict[str, object]) -> Line:
    """O(D) for D a rational combination of degree 1 generators."""
    return Line(_divisor(coeffs))


@dataclass(frozen=True)
class TautSub:
    stage: int


@dataclass(frozen=True)
class Dual:
    inner: object


@dataclass(frozen=True)
class Sum:
    parts: Tuple[object, ...]


def bundle_sum(*parts) -> Sum:
    return Sum(tuple(parts))


@dataclass(frozen=True)
class Twist:
    inner: object
    divisor: Divisor


def twist(inner, coeffs: Dict[str, object]) -> Twist:
    return Twist(inner, _divisor(coeffs))


@dataclass(frozen=True)
class Sym2:
    inner: object


# ---------------------------------------------------------------------------
# Sym^2 through power sums of the Chern roots
# ---------------------------------------------------------------------------


def _power_sums(chern: List[MultiPoly], upto: int) -> List[MultiPoly]:
    """Power sums p0..p_upto of the Chern roots of E, with p0 = rank.

    Newton's identities k c_k = sum_i (-1)^(i-1) c_(k-i) p_i, solved for p_k.
    """
    r = len(chern) - 1
    ctx = chern[0].ctx
    p = [ctx.scalar(r)]
    for k in range(1, upto + 1):
        acc = (-1) ** (k - 1) * k * chern[k] if k <= r else ctx.zero()
        for i in range(1, min(k - 1, r) + 1):
            acc = acc + (-1) ** (i - 1) * chern[i] * p[k - i]
        p.append(acc)
    return p


def _pairs_construction(chern: List[MultiPoly]) -> List[MultiPoly]:
    """Chern classes of Sym^2 E.

    `chern` is [c0..cr] of E in some tower context.  The roots of Sym^2 E
    are x_i + x_j over pairs i <= j, so its k-th power sum is half of
    sum_m C(k, m) p_m p_(k-m), the sum over all ordered pairs, plus the
    diagonal 2^k p_k.  Newton's identities turn those power sums back into
    Chern classes.
    """
    r = len(chern) - 1
    new_rank = r * (r + 1) // 2
    p = _power_sums(chern, new_rank)
    sums = [None] + [
        (sum(math.comb(k, m) * p[m] * p[k - m] for m in range(k + 1))
         + 2 ** k * p[k]) * Fraction(1, 2)
        for k in range(1, new_rank + 1)]
    out = [chern[0]]
    for k in range(1, new_rank + 1):
        acc = sum((-1) ** (i - 1) * out[k - i] * sums[i]
                  for i in range(1, k + 1))
        out.append(acc * Fraction(1, k))
    return out


# ---------------------------------------------------------------------------
# the base
# ---------------------------------------------------------------------------


class ProjBase:
    """Product of at most two projective spaces (a point if no factors)."""

    def __init__(self, factors: Sequence[Tuple[str, int]]):
        self.factors = [(name, int(n)) for name, n in factors]
        self.var_specs = [(name, 1) for name, _ in self.factors]
        self.dim = sum(n for _, n in self.factors)

    def relations(self, ctx: VarContext) -> List[MultiPoly]:
        return [ctx.var(name) ** (n + 1) for name, n in self.factors]

    def integrate(self, p: MultiPoly) -> Fraction:
        """Coefficient of the product of top powers; only base variables allowed."""
        top = dict(self.factors)
        target = tuple(top.get(name, 0) for name in p.ctx.names)
        return p.terms.get(target, Fraction(0))

    def describe(self) -> str:
        if not self.factors:
            return "point"
        return " x ".join("P^%d(%s)" % (n, name) for name, n in self.factors)


# ---------------------------------------------------------------------------
# stages and the tower
# ---------------------------------------------------------------------------


def total_class(chern: List[MultiPoly]) -> MultiPoly:
    """c(E) = c0 + c1 + ... as one inhomogeneous class."""
    return sum(chern[1:], chern[0])


def _dual(chern: List[MultiPoly]) -> List[MultiPoly]:
    """c(E^v) from c(E): c_i changes sign for odd i."""
    return [c if i % 2 == 0 else -c for i, c in enumerate(chern)]


def segre_from_chern(chern: List[MultiPoly], upto: int) -> List[MultiPoly]:
    """s(E) = 1/c(E) as graded classes s0..s_upto."""
    ctx = chern[0].ctx
    minus = [-c for c in chern]
    segre = [ctx.one()]
    for k in range(1, upto + 1):
        segre.append(sum_of_products(ctx, [
            (minus[i], segre[k - i])
            for i in range(1, min(k, len(chern) - 1) + 1)]))
    return segre


def proj_push(p: MultiPoly, name: str, rank: int,
              chern: List[MultiPoly]) -> MultiPoly:
    """Pushforward along P(E) -> base: z^(rank-1+k) |-> s_k(E)."""
    top = p.max_power(name)
    segre = segre_from_chern(chern, max(0, top - rank + 1))
    return sum_of_products(p.ctx, [
        (p.coefficient_of(name, m), segre[m - rank + 1])
        for m in range(rank - 1, top + 1)])


def _project(p: MultiPoly, target: VarContext) -> MultiPoly:
    """Rebuild p in a smaller context; dropped variables must not occur, so
    sending them to 1 moves p's keys and leaves its coefficients alone."""
    drop = [name for name in p.ctx.names if name not in target.index]
    if any(p.max_power(name) for name in drop):
        raise ValueError("class still involves fiber variables after pushforward")
    return p.substitute({name: target.one() for name in drop}, target)


def grassmann_push(p: MultiPoly, h: str, a: str,
                   chern: List[MultiPoly]) -> MultiPoly:
    """Pushforward along G(2,E) -> base for E of rank r = len(chern) - 1,
    through the flag bundle (Fulton, Intersection Theory, ch. 14).

    `h` and `a` name the Chern classes of the dual tautological sub, the
    only fiber variables p may involve; `chern` is c(E) on the base.
    """
    ctx = p.ctx
    r = len(chern) - 1
    flag = ctx.extended(("u_", "v_"), (1, 1))
    u, v = flag.var("u_"), flag.var("v_")
    p = p.substitute({h: u + v, a: u * v}, flag) * u
    chern_flag = [c.substitute({}, flag) for c in chern]
    # rank r-1 quotient E/L1: c(E) = c(E/L1)(1 - u), so cq_k = c_k + u cq_(k-1)
    cq = [flag.one()]
    for k in range(1, r):
        cq.append(chern_flag[k] + u * cq[-1])
    p = proj_push(p, "v_", r - 1, cq)
    p = proj_push(p, "u_", r, chern_flag)
    return _project(p, ctx)


class ProjStage:
    def __init__(self, var: str, rank: int, chern: List[MultiPoly]):
        self.var = var
        self.rank = rank
        self.chern = chern
        self.fiber_dim = rank - 1

    def relation_polys(self, ctx: VarContext) -> List[MultiPoly]:
        z = ctx.var(self.var)
        rel = z ** self.rank
        for i in range(1, self.rank + 1):
            rel = rel + self.chern[i] * z ** (self.rank - i)
        return [rel]

    def push(self, p: MultiPoly) -> MultiPoly:
        return proj_push(p, self.var, self.rank, self.chern)

    def describe(self) -> str:
        return "P(E) stage, rank %d, fiber variable %s" % (self.rank, self.var)


class Grass2Stage:
    def __init__(self, names: Tuple[str, str], chern: List[MultiPoly]):
        self.names = names
        self.chern = chern
        self.fiber_dim = 4

    def relation_polys(self, ctx: VarContext) -> List[MultiPoly]:
        # c3 = c4 = 0 of the rank 2 dual quotient c(E^v)/(1+H+A)
        sub = [ctx.one()] + [ctx.var(n) for n in self.names]
        quotient = (total_class(_dual(self.chern))
                    * total_class(segre_from_chern(sub, 4)))
        return [quotient.graded_part(3), quotient.graded_part(4)]

    def push(self, p: MultiPoly) -> MultiPoly:
        return grassmann_push(p, *self.names, self.chern)

    def describe(self) -> str:
        return "G(2,E) stage, rank 4, sub classes (%s, %s)" % self.names


class Tower:
    """A base with a stack of bundle stages, carrying its presented Chow ring."""

    def __init__(self, base, stage_specs: Sequence[Tuple] = ()):
        self.base = base
        # fiber variables first (later stages earliest) so that normal
        # forms eliminate them in favor of base classes
        var_specs = list(base.var_specs)
        for kind, _, names in stage_specs:
            if kind == "proj":
                var_specs[:0] = [(names, 1)]
            elif kind == "grass2":
                h, a = names
                var_specs[:0] = [(h, 1), (a, 2)]
            else:
                raise ValueError("unknown stage kind %r" % (kind,))
        self.ctx = VarContext(tuple(n for n, _ in var_specs),
                              tuple(d for _, d in var_specs))
        self.base_ctx = VarContext(tuple(n for n, _ in base.var_specs),
                                   tuple(d for _, d in base.var_specs))
        self._ideal: Optional[PolyIdeal] = None
        # each bundle sees only the stages built before it
        self.stages: List = []
        for kind, expr, names in stage_specs:
            rank, chern = _chern_raw(expr, self)
            if kind == "proj":
                self.stages.append(ProjStage(names, rank, chern))
            elif rank != 4:
                raise ValueError("Grassmann stage needs a rank 4 bundle")
            else:
                self.stages.append(Grass2Stage(tuple(names), chern))
        self.dim = base.dim + sum(s.fiber_dim for s in self.stages)

    # -- ring presentation ------------------------------------------------

    def var(self, name: str) -> MultiPoly:
        return self.ctx.var(name)

    def relations(self) -> List[MultiPoly]:
        rels = list(self.base.relations(self.ctx))
        for stage in self.stages:
            rels.extend(stage.relation_polys(self.ctx))
        return rels

    @property
    def ideal(self) -> PolyIdeal:
        if self._ideal is None:
            self._ideal = PolyIdeal(self.relations())
        return self._ideal

    def normal_form(self, p: MultiPoly) -> MultiPoly:
        return self.ideal.reduce(p)

    # -- integration ------------------------------------------------------

    def integrate(self, p: MultiPoly, trace: Optional[List[str]] = None) -> Fraction:
        if p.ctx != self.ctx:
            raise ValueError("class does not live on this tower")
        for i in range(len(self.stages) - 1, -1, -1):
            stage = self.stages[i]
            p = stage.push(p)
            if trace is not None:
                trace.append("after pushing %s: %s" % (stage.describe(), p))
        p = _project(p, self.base_ctx)
        value = self.base.integrate(p)
        if trace is not None:
            trace.append("base integral over %s: %s" % (self.base.describe(), value))
        return value

    def describe(self) -> List[str]:
        lines = ["base: %s (dim %d)" % (self.base.describe(), self.base.dim)]
        for stage in self.stages:
            lines.append("stage: %s, c(E) = %s" % (
                stage.describe(),
                " + ".join(str(c) for c in stage.chern if not c.is_zero())))
        lines.append("total dimension %d" % self.dim)
        return lines


# ---------------------------------------------------------------------------
# characteristic classes of sheaf expressions
# ---------------------------------------------------------------------------


def _divisor_class(div: Divisor, ctx: VarContext) -> MultiPoly:
    out = ctx.zero()
    for name, coeff in div:
        if ctx.degrees[ctx.index[name]] != 1:
            raise ValueError("divisor uses non degree 1 generator %r" % name)
        out = out + ctx.var(name) * coeff
    return out


def chern_of(expr, tower: Tower) -> Tuple[int, List[MultiPoly]]:
    """(rank, [c0..c_rank]) in the tower's context, in normal form."""
    rank, total = _chern_raw(expr, tower)
    reduced = [tower.normal_form(c) for c in total]
    return rank, reduced


def _stage_of(tower: Tower, index: int):
    if not 0 <= index < len(tower.stages):
        raise ValueError("stage index %d out of range" % index)
    return tower.stages[index]


def _chern_raw(expr, tower: Tower) -> Tuple[int, List[MultiPoly]]:
    ctx = tower.ctx
    if isinstance(expr, Trivial):
        if expr.rank < 0:
            raise ValueError("negative rank")
        return expr.rank, [ctx.one()] + [ctx.zero()] * expr.rank
    if isinstance(expr, Line):
        return 1, [ctx.one(), _divisor_class(expr.divisor, ctx)]
    if isinstance(expr, TautSub):
        stage = _stage_of(tower, expr.stage)
        if isinstance(stage, ProjStage):
            return 1, [ctx.one(), -ctx.var(stage.var)]
        h, a = stage.names
        return 2, [ctx.one(), -ctx.var(h), ctx.var(a)]
    if isinstance(expr, Dual):
        r, total = _chern_raw(expr.inner, tower)
        return r, _dual(total)
    if isinstance(expr, Sum):
        ranks_totals = [_chern_raw(p, tower) for p in expr.parts]
        rank = sum(r for r, _ in ranks_totals)
        prod = ctx.one()
        for _, total in ranks_totals:
            prod = prod * total_class(total)
        return rank, [prod.graded_part(k) for k in range(rank + 1)]
    if isinstance(expr, Twist):
        r, total = _chern_raw(expr.inner, tower)
        if r > 3:
            raise ValueError("line twists are limited to bundles of rank <= 3")
        lam = _divisor_class(expr.divisor, ctx)
        powers = [ctx.one(), lam]
        while len(powers) <= r:
            powers.append(powers[-1] * lam)
        return r, [ctx.one()] + [sum_of_products(ctx, [
            (math.comb(r - i, k - i) * total[i], powers[k - i])
            for i in range(k + 1)]) for k in range(1, r + 1)]
    if isinstance(expr, Sym2):
        r, total = _chern_raw(expr.inner, tower)
        if r not in (2, 3):
            raise ValueError("Sym2 needs rank 2 or 3")
        derived = _pairs_construction(total)
        return len(derived) - 1, derived
    raise ValueError("unknown sheaf expression %r" % (expr,))


def segre_of(chern: List[MultiPoly], tower: Tower,
             upto: int) -> List[MultiPoly]:
    """Segre classes s0..s_upto, in normal form, from the Chern classes
    `chern_of` returned for a bundle on the tower."""
    return [tower.normal_form(s) for s in segre_from_chern(chern, upto)]
