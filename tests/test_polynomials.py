"""Exact multivariate polynomial arithmetic and graded structure."""

import abc
import contextlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmquantum import groebner, linalg
from gmquantum.cli import main
from gmquantum.groebner import PolyIdeal
from gmquantum.poly import MultiPoly, VarContext
from profile_hooks import profile_hook


CTX = VarContext(("x", "y"), (1, 2))


def make_poly(pairs):
    return MultiPoly(CTX, {exp: Fraction(num, den)
                           for exp, (num, den) in pairs.items()})


coeffs = st.tuples(st.integers(-6, 6), st.integers(1, 4))
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(make_poly)


def test_constructor_drops_zero_terms():
    p = MultiPoly(CTX, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == 2 * CTX.var("y")


def test_scalar_coercion_and_sides():
    x = CTX.var("x")
    assert 2 * x == x * 2
    assert Fraction(1, 2) * x == x * Fraction(1, 2)
    assert (x + 1) - 1 == x
    assert 1 - x == -(x - 1)


def test_power_and_binomial():
    x, y = CTX.var("x"), CTX.var("y")
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert x ** 0 == CTX.one()


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polys)
def test_graded_parts_sum_back(p):
    total = CTX.zero()
    degrees = {CTX.weighted_degree(e) for e in p.terms}
    for d in degrees:
        part = p.graded_part(d)
        assert part.is_homogeneous(d)
        total = total + part
    assert total == p


@settings(max_examples=40, deadline=None)
@given(polys, st.integers(0, 3))
def test_coefficient_of_reassembles(p, k):
    # coefficient_of returns the coefficient with the slot zeroed out,
    # so multiplying the variable power back in rebuilds the layer
    x = CTX.var("x")
    total = CTX.zero()
    for i in range(4):
        total = total + x ** i * p.coefficient_of("x", i)
    assert total == p
    layer = p.coefficient_of("x", k)
    assert layer.max_power("x") == 0 or layer.is_zero()


def test_weighted_degree_uses_variable_weights():
    x, y = CTX.var("x"), CTX.var("y")
    p = x ** 2 * y
    assert CTX.weighted_degree(p.leading()[0]) == 4
    assert p.is_homogeneous(4)
    assert not (x + y).is_homogeneous()


def test_evaluate_exact():
    x, y = CTX.var("x"), CTX.var("y")
    p = x ** 2 + 3 * y
    assert p.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 3)}) == \
        Fraction(1, 4) + 1
    with pytest.raises(ValueError):
        p.evaluate({"x": Fraction(1)})


def test_substitute_migrates_context():
    target = VarContext(("u",), (1,))
    x, y = CTX.var("x"), CTX.var("y")
    p = x * y + x ** 2
    u = target.var("u")
    image = p.substitute({"x": u, "y": u ** 2}, target)
    assert image == u ** 3 + u ** 2


def test_nilpotent_truncation():
    tctx = VarContext(("q", "t"), (2, -1), nilpotent={"t": 2})
    t, q = tctx.var("t"), tctx.var("q")
    assert (t ** 2).is_zero()
    assert ((1 + t) * (1 - t)) == tctx.one()
    p = q * t + q
    assert (p * t) == q * t
    plain = tctx.without_truncation()
    lifted = p.substitute({}, plain)
    assert lifted.max_power("t") == 1
    assert not plain.nilpotent


def test_string_rendering_is_stable():
    x, y = CTX.var("x"), CTX.var("y")
    assert str(2 * x ** 2 * y - y) == "2*x^2*y - y"
    assert str(CTX.zero()) == "0"
    assert str(CTX.one()) == "1"


# ---------------------------------------------------------------------------
# the kernel's shortcuts keep its semantics
# ---------------------------------------------------------------------------


def reference_key(degrees, exp):
    """The weighted grevlex key, computed afresh for every comparison."""
    return (sum(e * d for e, d in zip(exp, degrees)),
            tuple(-e for e in reversed(exp)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(exponents, coeffs, min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_order_matches_an_uncached_key_in_interleaved_contexts(term_sets):
    # same names, different weights: a memo shared between the two
    # contexts would hand one of them the other's order
    contexts = (VarContext(("x", "y"), (1, 2)), VarContext(("x", "y"), (3, 1)))
    for pairs in term_sets:
        for ctx in contexts:
            p = MultiPoly(ctx, {exp: Fraction(num, den)
                                for exp, (num, den) in pairs.items()})
            if p.is_zero():
                continue
            key = lambda e: reference_key(ctx.degrees, e)  # noqa: E731
            assert p.leading()[0] == max(p.terms, key=key)
            assert [e for e, _ in p.sorted_terms()] == sorted(
                p.terms, key=key, reverse=True)


def test_kernel_stays_off_its_slow_paths():
    """Over a cold verify-all no frame of `poly` enters
    `ABCMeta.__instancecheck__`, which an isinstance test against Fraction
    does, and neither `at_q_one` nor an embedding `substitute` reads the
    `.terms` view: both move keys."""
    abc_check = abc.ABCMeta.__instancecheck__.__code__
    view = MultiPoly.terms.fget.__code__
    kernel = view.co_filename
    moves = (linalg.at_q_one.__code__, MultiPoly.substitute.__code__)
    slow = []

    def record(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is abc_check and \
                frame.f_back.f_code.co_filename == kernel:
            slow.append("isinstance in " + frame.f_back.f_code.co_name)
        elif frame.f_code is view:
            caller = frame.f_back
            while caller is not None:
                if caller.f_code in moves and (
                        caller.f_code is moves[0]
                        or not caller.f_locals["images"]):
                    slow.append(".terms in " + caller.f_code.co_name)
                caller = caller.f_back

    with profile_hook(record), contextlib.redirect_stdout(io.StringIO()):
        main(["verify-all", "--seed", "0", "--no-timestamp"])
    assert sorted(set(slow)) == []


def test_nilpotent_context_truncates_everywhere():
    tctx = VarContext(("q", "t"), (2, -1), nilpotent={"t": 2})
    q, t = tctx.var("q"), tctx.var("t")
    assert MultiPoly(tctx, {(1, 2): Fraction(3), (1, 1): Fraction(2)}) \
        == 2 * q * t
    assert (t * t).is_zero() and (q * t * (q + t)).terms == {(2, 1): 1}
    assert (1 + t) ** 3 == 1 + 3 * t
    plain = VarContext(("q", "s"), (2, -1))
    s = plain.var("s")
    image = (s ** 2 + s + plain.var("q") * s ** 3).substitute({"s": t}, tctx)
    assert image == t
    # the truncation belongs to the context, not to the variable name
    assert (s * s).max_power("s") == 2


def test_contexts_mix_by_equality_not_identity():
    a = VarContext(("x", "y"), (1, 2))
    b = VarContext(("x", "y"), (1, 2))
    x, y = a.var("x"), b.var("y")
    assert a is not b
    assert x * y == MultiPoly(a, {(1, 1): Fraction(1)})
    assert x + y == MultiPoly(b, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    for other in (VarContext(("x", "y"), (1, 3)),
                  VarContext(("x", "y"), (1, 2), nilpotent={"y": 2}),
                  VarContext(("y", "x"), (2, 1))):
        with pytest.raises(ValueError):
            x * other.var("y")
        with pytest.raises(ValueError):
            x + other.var("y")


# ---------------------------------------------------------------------------
# MultiPoly against plain {exponent tuple: Fraction} dicts
# ---------------------------------------------------------------------------

ARITHMETIC_CONTEXTS = (
    VarContext(("q",), (2,)),
    VarContext(("q", "uJ11", "uJ2"), (2, 0, 0)),
    VarContext(("q", "t"), (2, -1), nilpotent={"t": 2}),
)


def plain_truncated(ctx, terms):
    return {e: c for e, c in terms.items()
            if c and not any(e[ctx.index[n]] >= order
                             for n, order in ctx.nilpotent.items())}


def plain_combine(ctx, p, q, lam):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + lam * c
    return plain_truncated(ctx, out)


def plain_mul(ctx, p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return plain_truncated(ctx, out)


def plain_str(ctx, p):
    """The rendering rule, restated: terms by weighted grevlex, largest
    first, unit coefficients elided and signs folded into the joins."""
    order = sorted(p, reverse=True, key=lambda e: (
        sum(a * d for a, d in zip(e, ctx.degrees)),
        tuple(-a for a in reversed(e))))
    out = ""
    for n, e in enumerate(order):
        c = p[e]
        factors = "*".join(name if a == 1 else "%s^%d" % (name, a)
                           for name, a in zip(ctx.names, e) if a)
        body = str(abs(c)) if not factors else (
            factors if abs(c) == 1 else "%s*%s" % (abs(c), factors))
        sign = "-" if c < 0 else ""
        out += (sign + body) if n == 0 else (" - " if c < 0 else " + ") + body
    return out or "0"


def plain_evaluate(ctx, p, values):
    total = Fraction(0)
    for e, c in p.items():
        for name, a in zip(ctx.names, e):
            c *= values[name] ** a
        total += c
    return total


def plain_pow(ctx, p, k):
    out = {(0,) * ctx.nvars: Fraction(1)}
    for _ in range(k):
        out = plain_mul(ctx, out, p)
    return out


def plain_substitute(ctx, target, p, images):
    """p with each variable named in `images` sent to its plain image in
    `target`, and every other variable to the variable of its name."""
    out = {}
    for e, c in p.items():
        term = {(0,) * target.nvars: c}
        for name, k in zip(ctx.names, e):
            if name in images:
                term = plain_mul(target, term,
                                 plain_pow(target, images[name], k))
            else:
                term = plain_mul(target, term, {tuple(
                    k if n == name else 0 for n in target.names): 1})
        out = plain_combine(target, out, term, 1)
    return out


def stored_ok(r):
    """The stored form: int numerators, none of them zero, over a positive
    int denominator."""
    return type(r.den) is int and r.den > 0 and all(
        type(n) is int and n for n in r.nums.values())


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# the values a specialization sends a variable to: 0 and 1 are common
values_at = st.one_of(st.sampled_from((Fraction(0), Fraction(1))), rationals)


@st.composite
def plain_polys(draw, ctx, coefficients=rationals):
    exps = st.tuples(*(st.integers(0, 2 if name in ctx.nilpotent else 3)
                       for name in ctx.names))
    # zero and one-term operands are the commonest the kernel sees
    size = draw(st.sampled_from((0, 1, 5)))
    return draw(st.dictionaries(exps, coefficients, min_size=min(size, 1),
                                max_size=size))


@st.composite
def arithmetic_cases(draw):
    ctx = draw(st.sampled_from(ARITHMETIC_CONTEXTS))
    return (ctx, draw(plain_polys(ctx)), draw(plain_polys(ctx)),
            draw(rationals), draw(st.integers(2, 6)),
            {name: draw(rationals) for name in ctx.names},
            draw(st.integers(-4, 4)),
            draw(plain_polys(ctx, st.integers(-30, 30))),
            {name: draw(values_at) for name in draw(
                st.sets(st.sampled_from(ctx.names)))})


@settings(max_examples=200, deadline=None)
@given(arithmetic_cases())
def test_arithmetic_matches_plain_dicts(case):
    ctx, a, b, lam, m, values, k, ints, at = case
    p, q = MultiPoly(ctx, a), MultiPoly(ctx, b)
    a, b = plain_truncated(ctx, a), plain_truncated(ctx, b)
    assert dict(p.terms) == a and dict(q.terms) == b
    assert dict((p + q).terms) == plain_combine(ctx, a, b, 1)
    assert dict((p - q).terms) == plain_combine(ctx, a, b, -1)
    assert dict((p * q).terms) == plain_mul(ctx, a, b)
    assert dict((lam * p).terms) == dict((p * lam).terms) == \
        plain_combine(ctx, {}, a, lam)
    assert (p == q) == (a == b) and (p != q) == (a != b)
    # int scalars, 0 and negative ones included, on either side
    assert dict((k * p).terms) == dict((p * k).terms) == \
        plain_combine(ctx, {}, a, k)
    assert dict((p + k).terms) == dict((k + p).terms) == \
        plain_combine(ctx, a, {(0,) * ctx.nvars: k}, 1)
    assert dict((p - k).terms) == plain_combine(
        ctx, a, {(0,) * ctx.nvars: k}, -1)
    assert dict((k - p).terms) == plain_combine(
        ctx, {(0,) * ctx.nvars: k}, a, -1)
    assert ctx.scalar(k) == k and (ctx.scalar(k) == p) == (
        a == plain_truncated(ctx, {(0,) * ctx.nvars: k}))
    # an operand over p's own denominator, and p against itself
    same = MultiPoly.from_numerators(ctx, {
        ctx.key(e): n for e, n in plain_truncated(ctx, ints).items()},
        p.den, 3)
    c = {e: Fraction(n, p.den) for e, n in plain_truncated(ctx, ints).items()}
    assert dict((p + same).terms) == plain_combine(ctx, a, c, 1)
    assert dict((same - p).terms) == plain_combine(ctx, c, a, -1)
    assert (p - p).is_zero() and dict((p + p).terms) == \
        plain_combine(ctx, a, a, 1)
    results = [p, q, p + q, p - q, q - p, p * q, q * p, lam * p, k * p,
               p * k, p + k, k - p, ctx.scalar(k), p + same, same - p,
               p - p, p + p, p * same]
    assert all(stored_ok(r) for r in results)
    # products come back in lowest terms, so chains of them stay small
    for r in (p * q, lam * p, p * q * lam, k * p, p * same):
        assert math.gcd(r.den, *r.nums.values()) == 1
    assert str(p) == plain_str(ctx, a) and str(p * q) == plain_str(
        ctx, plain_mul(ctx, a, b))
    assert p.evaluate(values) == plain_evaluate(ctx, a, values)
    assert (p * q).evaluate(values) == plain_evaluate(
        ctx, plain_mul(ctx, a, b), values)
    # the same values over larger denominators: equal, same hash, same text
    for r in (p, q, p * q, p - q):
        over = MultiPoly.from_numerators(
            ctx, {k: m * n for k, n in r.nums.items()}, m * r.den, r.bound)
        assert over.den == m * r.den
        assert over == r and r == over and hash(over) == hash(r)
        assert str(over) == str(r) and dict(over.terms) == dict(r.terms)
        assert over.evaluate(values) == r.evaluate(values)
        assert (over == ctx.zero()) == (not dict(r.terms))
    # structure reads on keys, whose signs differ across the contexts
    for r, plain in ((p, a), (p * q, plain_mul(ctx, a, b))):
        if plain:
            top = max(plain, key=lambda e: reference_key(ctx.degrees, e))
            assert r.leading() == (top, plain[top])
        degrees = {ctx.weighted_degree(e) for e in plain}
        assert r.is_homogeneous() == (len(degrees) < 2)
        for d in degrees | {k}:
            assert r.is_homogeneous(d) == (degrees <= {d})
            assert dict(r.graded_part(d).terms) == {
                e: c for e, c in plain.items() if ctx.weighted_degree(e) == d}
        for i, name in enumerate(ctx.names):
            assert r.max_power(name) == max((e[i] for e in plain), default=0)
            assert dict(r.derivative(name).terms) == {
                e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c
                for e, c in plain.items() if e[i]}
            for power in range(4):
                assert dict(r.coefficient_of(name, power).terms) == {
                    e[:i] + (0,) + e[i + 1:]: c
                    for e, c in plain.items() if e[i] == power}
    # context moves: embeddings into an appended context, into one that
    # truncates a kept variable, and into one that shifts every field;
    # then a map with a polynomial image, which multiplies
    for target in (ctx.extended(("z",), (1,)),
                   VarContext(ctx.names + ("w",), ctx.degrees + (-1,),
                              nilpotent={"q": 2, "w": 2}),
                   VarContext(("z",) + ctx.names, (1,) + ctx.degrees,
                              nilpotent=ctx.nilpotent)):
        for r, plain in ((p, a), (p - q, plain_combine(ctx, a, b, -1))):
            moved = r.substitute({}, target)
            assert moved.ctx is target and stored_ok(moved)
            assert dict(moved.terms) == plain_substitute(ctx, target, plain, {})
    image = ctx.var(ctx.names[-1]) + lam
    assert dict(p.substitute({"q": image}, ctx).terms) == plain_substitute(
        ctx, ctx, a, {"q": dict(image.terms)})
    # scalar images: the specialized variables leave the context
    rest = ctx
    for name in at:
        rest = rest.without(name)
    scalars = {name: rest.scalar(v) for name, v in at.items()}
    for r, plain in ((p, a), (p * q, plain_mul(ctx, a, b))):
        moved = r.substitute(scalars, rest)
        assert moved.ctx is rest and stored_ok(moved)
        assert dict(moved.terms) == plain_substitute(ctx, rest, plain, {
            name: {(0,) * rest.nvars: v} for name, v in at.items()})
    # at q = 1, on a graded part of p
    if a:
        d = ctx.weighted_degree(next(iter(a)))
        part = {e: c for e, c in a.items() if ctx.weighted_degree(e) == d}
        one = linalg.at_q_one(p.graded_part(d), d, "part")
        rest = ctx.without("q")
        assert stored_ok(one) and one.ctx is rest
        assert dict(one.terms) == plain_substitute(
            ctx, rest, part, {"q": {(0,) * rest.nvars: 1}})


FLAG_BASE = VarContext(("h", "H", "A"), (1, 1, 2))
FLAG = FLAG_BASE.extended(("u_", "v_"), (1, 1))


@settings(max_examples=60, deadline=None)
@given(plain_polys(FLAG_BASE), rationals)
def test_flag_pullback_passes_other_variables_through(terms, lam):
    """H -> u + v, A -> u v, as the Grassmann pushforward pulls back, on
    classes that also carry a base variable h (J12's stage): h is sent to
    itself, the zero class to zero, and an image over a denominator
    scales every term it enters."""
    u, v = FLAG.var("u_"), FLAG.var("v_")
    p = MultiPoly(FLAG_BASE, terms)
    for images in ({"H": u + v, "A": u * v},
                   {"H": lam * (u + v), "A": u * v * Fraction(1, 3)}):
        for r, plain in ((p, terms), (FLAG_BASE.zero(), {})):
            moved = r.substitute(images, FLAG)
            assert moved.ctx is FLAG and stored_ok(moved)
            assert dict(moved.terms) == plain_substitute(
                FLAG_BASE, FLAG, plain_truncated(FLAG_BASE, plain),
                {name: dict(img.terms) for name, img in images.items()})
    assert FLAG_BASE.var("h").substitute({"H": u + v}, FLAG) == FLAG.var("h")


# ---------------------------------------------------------------------------
# Groebner quotients
# ---------------------------------------------------------------------------


def test_large_finite_quotient_is_counted():
    x, y = CTX.var("x"), CTX.var("y")
    ideal = PolyIdeal([x ** 40, y ** 40])
    assert ideal.quotient_dimension() == 1600
    assert len(ideal.standard_monomials()) == 1600


def test_infinite_quotient_has_no_dimension():
    # no leading monomial is a pure power of y, so y^k survives for all k
    x, y = CTX.var("x"), CTX.var("y")
    ideal = PolyIdeal([x * y, x ** 2])
    assert ideal.quotient_dimension() is None
    with pytest.raises(ValueError, match="infinite"):
        ideal.standard_monomials()


def test_ideal_refuses_exponents_that_would_carry():
    # division never raises the weighted degree, so a generator or a
    # dividend whose degree could reach 2^64 is refused before it runs
    x, y = CTX.var("x"), CTX.var("y")
    with pytest.raises(ValueError, match="would carry"):
        PolyIdeal([x ** 2 - y, y ** 3]).reduce(x ** (2 ** 63))
    with pytest.raises(ValueError, match="would carry"):
        PolyIdeal([x ** (2 ** 63) - y])


@pytest.mark.parametrize("degree", [-1, 0])
def test_ideal_refuses_a_degree_that_is_not_positive(degree):
    # weighted grevlex is not a well-order there: in Q[x, t] with
    # deg t = -1, reducing x by x - x^2 t only raises the power of x
    ctx = VarContext(("x", "t"), (1, degree))
    x, t = ctx.var("x"), ctx.var("t")
    with pytest.raises(ValueError, match="positive"):
        PolyIdeal([x - x ** 2 * t])


def test_buchberger_work_is_pinned(monkeypatch):
    """A cold verify-all reduces exactly this many S-polynomials over all
    its Buchberger runs: the ideals are fixed, so a lost criterion or
    another pair selection shows up here."""
    built = []
    s_polynomial = groebner._s_polynomial

    def counted(*args):
        built.append(args)
        return s_polynomial(*args)

    monkeypatch.setattr(groebner, "_s_polynomial", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify-all", "--seed", "0", "--no-timestamp"])
    assert len(built) == 11
