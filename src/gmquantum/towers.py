"""Chow rings of projective and Grassmann bundle towers, with exact integration.

A tower is a small base (a product of projective spaces, or G(2,4), or a
point) with a stack of bundle constructions on top.  Each projective stage
P(E) adds one degree 1 generator z, the hyperplane class of the dual
tautological line, with the single relation sum_i z^(r-i) c_i(E) = 0; each
Grassmann stage G(2,E) for rank 4 E adds generators (H, A) and (Hp, Ap),
the Chern classes of the dual tautological sub and quotient, tied by the
Whitney relation (1+H+A)(1+Hp+Ap) = c(E^v).

Integration runs stage by stage.  A projective stage pushes z^(r-1+k) to
the k-th Segre class of E; this rule is linear over the lower ring and
valid monomial by monomial on any polynomial representative.  A Grassmann
stage integrates through the flag bundle Fl(1,2; E), a tower of two
projective stages: pull back along H -> u+v, A -> uv, multiply by u (the
relative hyperplane class of Fl -> G(2,E)), then push v (rank 3 bundle
E/L1 with c(E/L1) = c(E)/(1-u)) and u (rank 4 bundle E).

Sheaf expressions are trees over a few atoms, closed under dual, sum,
twist by a line bundle (rank <= 3), Sym^2 and wedge^2 (rank 2 or 3, via
formal Chern roots).  One walk over an expression yields both its rank and
its Chern classes.  A tower builds its stages in order from that walk, so a
stage's bundle may use only the base and the stages below it.  Chern classes
of a sheaf expression come back in normal form modulo the tower's presented
Chow ring, so they match printed closed forms like c2 = alpha + hH on rings
where h^2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .groebner import PolyIdeal
from .poly import MultiPoly, VarContext
from .schubert import Grassmannian2

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
class BaseSub:
    """Tautological rank 2 sub on a G(2,4) base."""


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


@dataclass(frozen=True)
class Wedge2:
    inner: object


# ---------------------------------------------------------------------------
# formal Chern roots for Sym^2 and wedge^2
# ---------------------------------------------------------------------------


def _elementary(ctx: VarContext, vars_: Sequence[MultiPoly], k: int) -> MultiPoly:
    out = ctx.zero()
    n = len(vars_)

    def rec(start, left, acc):
        nonlocal out
        if left == 0:
            out = out + acc
            return
        for i in range(start, n - left + 1):
            rec(i + 1, left - 1, acc * vars_[i])

    rec(0, k, ctx.one())
    return out


def symmetric_in_elementaries(p: MultiPoly, r: int) -> MultiPoly:
    """Rewrite a symmetric polynomial in x1..xr in the elementary basis.

    Input lives in a context whose first r variables are the roots; output
    lives in a fresh context e1..er with deg(e_i) = i.  Uses the classical
    leading-term subtraction, so it raises if p is not symmetric.
    """
    root_ctx = p.ctx
    e_ctx = VarContext(tuple("e%d" % (i + 1) for i in range(r)),
                       tuple(range(1, r + 1)))
    roots = [root_ctx.var(root_ctx.names[i]) for i in range(r)]
    elem = [None] + [_elementary(root_ctx, roots, k) for k in range(1, r + 1)]
    result = e_ctx.zero()
    work = p
    while not work.is_zero():
        exp, coeff = max(work.terms.items(), key=lambda t: t[0])
        lam = list(exp[:r])
        if any(exp[r:]) or any(lam[i] < lam[i + 1] for i in range(r - 1)):
            raise ValueError("polynomial is not symmetric in the roots")
        mults = [lam[i] - lam[i + 1] for i in range(r - 1)] + [lam[r - 1]]
        e_mono = e_ctx.scalar(coeff)
        x_mono = root_ctx.scalar(coeff)
        for i, m in enumerate(mults):
            if m:
                e_mono = e_mono * e_ctx.var("e%d" % (i + 1)) ** m
                x_mono = x_mono * elem[i + 1] ** m
        result = result + e_mono
        work = work - x_mono
    return result


def _pairs_construction(chern: List[MultiPoly], strict: bool) -> List[MultiPoly]:
    """Total Chern class of Sym^2 (strict=False) or wedge^2 (strict=True).

    `chern` is [c0..cr] of a bundle E in some tower context; the result is
    the graded Chern list of the derived bundle, obtained by expanding
    prod over root pairs of (1 + x_i + x_j) and eliminating the roots.
    """
    r = len(chern) - 1
    ctx = chern[0].ctx
    root_ctx = VarContext(tuple("x%d" % (i + 1) for i in range(r)), (1,) * r)
    roots = [root_ctx.var(n) for n in root_ctx.names]
    prod = root_ctx.one()
    for i in range(r):
        start = i + 1 if strict else i
        for j in range(start, r):
            prod = prod * (root_ctx.one() + roots[i] + roots[j])
    in_e = symmetric_in_elementaries(prod, r)
    images = {"e%d" % (i + 1): chern[i + 1] for i in range(r)}
    total = in_e.substitute(images, ctx)
    new_rank = r * (r - 1) // 2 if strict else r * (r + 1) // 2
    return [total.graded_part(k) for k in range(new_rank + 1)]


# ---------------------------------------------------------------------------
# bases
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


class G24Base:
    """G(2,4) presented by the Chern classes a1, a2 of the dual taut sub."""

    def __init__(self):
        self.names = ("a1", "a2")
        self.var_specs = [(self.names[0], 1), (self.names[1], 2)]
        self.dim = 4
        self.g = Grassmannian2(4)

    def relations(self, ctx: VarContext) -> List[MultiPoly]:
        a1 = ctx.var(self.names[0])
        a2 = ctx.var(self.names[1])
        # eliminate the quotient classes from (1+a1+a2)(1+b1+b2)=1
        return [a1 ** 3 - 2 * a1 * a2, a1 ** 2 * a2 - a2 ** 2]

    def integrate(self, p: MultiPoly) -> Fraction:
        i1 = p.ctx.index[self.names[0]]
        i2 = p.ctx.index[self.names[1]]
        total = Fraction(0)
        for exp, coeff in p.terms.items():
            if any(e for k, e in enumerate(exp) if k not in (i1, i2)):
                continue
            cls = self.g.power(self.g.sigma(1), exp[i1])
            for _ in range(exp[i2]):
                cls = self.g.multiply(self.g.sigma(1, 1), cls)
            total += coeff * self.g.integrate(cls)
        return total

    def describe(self) -> str:
        return "G(2,4)(%s,%s)" % self.names


# ---------------------------------------------------------------------------
# stages and the tower
# ---------------------------------------------------------------------------


def total_class(chern: List[MultiPoly]) -> MultiPoly:
    """c(E) = c0 + c1 + ... as one inhomogeneous class."""
    return sum(chern[1:], chern[0])


def segre_from_chern(chern: List[MultiPoly], upto: int) -> List[MultiPoly]:
    """s(E) = 1/c(E) as graded classes s0..s_upto."""
    ctx = chern[0].ctx
    segre = [ctx.one()]
    for k in range(1, upto + 1):
        acc = ctx.zero()
        for i in range(1, min(k, len(chern) - 1) + 1):
            acc = acc - chern[i] * segre[k - i]
        segre.append(acc)
    return segre


def proj_push(p: MultiPoly, name: str, rank: int,
              chern: List[MultiPoly]) -> MultiPoly:
    """Pushforward along P(E) -> base: z^(rank-1+k) |-> s_k(E)."""
    top = p.max_power(name)
    segre = segre_from_chern(chern, max(0, top - rank + 1))
    out = p.ctx.zero()
    for m in range(top + 1):
        k = m - (rank - 1)
        if k < 0:
            continue
        layer = p.coefficient_of(name, m)
        if not layer.is_zero():
            out = out + layer * segre[k]
    return out


def _project(p: MultiPoly, target: VarContext) -> MultiPoly:
    """Rebuild p in a smaller context; dropped variables must not occur."""
    keep = [p.ctx.index[name] for name in target.names]
    drop = [i for i in range(p.ctx.nvars) if p.ctx.names[i] not in target.index]
    terms = {}
    for exp, coeff in p.terms.items():
        if any(exp[i] for i in drop):
            raise ValueError("class still involves fiber variables after pushforward")
        terms[tuple(exp[i] for i in keep)] = coeff
    return MultiPoly(target, terms)


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
    def __init__(self, names: Tuple[str, str, str, str],
                 chern: List[MultiPoly]):
        self.names = names
        self.chern = chern
        self.fiber_dim = 4

    def dual_chern(self) -> List[MultiPoly]:
        return [c if i % 2 == 0 else -c for i, c in enumerate(self.chern)]

    def relation_polys(self, ctx: VarContext) -> List[MultiPoly]:
        h, a, hp, ap = (ctx.var(n) for n in self.names)
        whitney = ((ctx.one() + h + a) * (ctx.one() + hp + ap)
                   - total_class(self.dual_chern()))
        return [whitney.graded_part(d) for d in range(1, 5)
                if not whitney.graded_part(d).is_zero()]

    def push(self, p: MultiPoly) -> MultiPoly:
        ctx = p.ctx
        h, a, hp, ap = self.names
        cdual = self.dual_chern()
        # quotient classes in terms of the sub classes, from the Whitney
        # relation in degrees 1 and 2
        hvar, avar = ctx.var(h), ctx.var(a)
        hp_img = cdual[1] - hvar
        ap_img = cdual[2] - avar - hvar * hp_img
        p = p.substitute({hp: hp_img, ap: ap_img}, ctx)
        # through the flag bundle: H -> u+v, A -> uv, times u
        flag = ctx.extended(("u_", "v_"), (1, 1))
        u = flag.var("u_")
        v = flag.var("v_")
        p = p.substitute({h: u + v, a: u * v}, flag) * u
        chern_flag = [c.substitute({}, flag) for c in self.chern]
        # rank 3 quotient E/L1 with c = c(E)/(1-u), read up to degree 3
        cq_total = total_class(chern_flag) * (flag.one() + u + u ** 2 + u ** 3)
        cq = [cq_total.graded_part(k) for k in range(4)]
        p = proj_push(p, "v_", 3, cq)
        p = proj_push(p, "u_", 4, chern_flag)
        return _project(p, ctx)

    def describe(self) -> str:
        return ("G(2,E) stage, rank 4, sub classes (%s, %s), "
                "quotient classes (%s, %s)" % self.names)


class Tower:
    """A base with a stack of bundle stages, carrying its presented Chow ring."""

    def __init__(self, base, stage_specs: Sequence[Tuple] = ()):
        self.base = base
        # fiber variables first (later stages earliest) so that normal
        # forms eliminate them in favor of base classes; a Grassmann
        # stage lists its quotient classes first so that normal forms
        # eliminate them in favor of the sub classes
        var_specs = list(base.var_specs)
        for kind, _, names in stage_specs:
            if kind == "proj":
                var_specs[:0] = [(names, 1)]
            elif kind == "grass2":
                h, a, hp, ap = names
                var_specs[:0] = [(hp, 1), (ap, 2), (h, 1), (a, 2)]
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
    if isinstance(expr, BaseSub):
        if not isinstance(tower.base, G24Base):
            raise ValueError("base tautological bundle needs a G(2,4) base")
        a1, a2 = (ctx.var(n) for n in tower.base.names)
        return 2, [ctx.one(), -a1, a2]
    if isinstance(expr, TautSub):
        stage = _stage_of(tower, expr.stage)
        if isinstance(stage, ProjStage):
            return 1, [ctx.one(), -ctx.var(stage.var)]
        h, a, _, _ = stage.names
        return 2, [ctx.one(), -ctx.var(h), ctx.var(a)]
    if isinstance(expr, Dual):
        r, total = _chern_raw(expr.inner, tower)
        return r, [c if i % 2 == 0 else -c for i, c in enumerate(total)]
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
        out = [ctx.one()]
        for k in range(1, r + 1):
            ck = ctx.zero()
            for i in range(k + 1):
                ck = ck + math.comb(r - i, k - i) * total[i] * lam ** (k - i)
            out.append(ck)
        return r, out
    if isinstance(expr, (Sym2, Wedge2)):
        r, total = _chern_raw(expr.inner, tower)
        if r not in (2, 3):
            raise ValueError("Sym2 and wedge2 need rank 2 or 3")
        derived = _pairs_construction(total, strict=isinstance(expr, Wedge2))
        return len(derived) - 1, derived
    raise ValueError("unknown sheaf expression %r" % (expr,))


def segre_of(expr, tower: Tower, upto: int) -> List[MultiPoly]:
    """Segre classes s0..s_upto of the expression, in normal form."""
    _, chern = chern_of(expr, tower)
    return [tower.normal_form(s) for s in segre_from_chern(chern, upto)]
