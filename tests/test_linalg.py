"""The linear algebra kernel skips products with a zero factor without
changing a result, its type or its context, and sums polynomial products
on integer numerators to the same value as term by term; ranks over Q(t)
are read at rational points, and division by leading terms ends in every
grading."""

import math
import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmquantum.certificates import Workspace
from gmquantum.cli import verify_all_certificates
from gmquantum.linalg import (
    Matrix, _dot, matmul, matvec, poly_exact_div, rank_at_points,
)
from gmquantum.poly import MultiPoly, VarContext

CTX = VarContext(("q", "s"), (2, 1))


def test_all_zero_sums_are_zeros_of_the_entry_context():
    q, s, zero = CTX.var("q"), CTX.var("s"), CTX.zero()
    m = Matrix([[q, s], [zero, zero]])
    for product in (matvec(m, [s, q]), matvec(Matrix([[q, s]] * 2), [zero, zero]),
                    matmul(m, Matrix([[s], [q]])).col(0)):
        assert product[1] == zero
        assert isinstance(product[1], MultiPoly) and product[1].ctx == CTX
    assert matvec(m, [s, q])[0] == 2 * q * s
    # a Fraction matrix against polynomials: the zero is still a polynomial
    out = matvec(Matrix([[Fraction(0), Fraction(2)]]), [q, zero])
    assert isinstance(out[0], MultiPoly) and out[0].ctx == CTX
    assert matvec(Matrix([[Fraction(0)]]), [Fraction(3)]) == [Fraction(0)]


# ---------------------------------------------------------------------------
# sums of polynomial products against term by term sums
# ---------------------------------------------------------------------------


DOT_CONTEXTS = (VarContext(("q",), (2,)),
                VarContext(("q", "t"), (2, -1), nilpotent={"t": 2}))


@st.composite
def poly_matrices(draw, ctx, nrows, ncols):
    """Rows of small polynomials, zero entries common; the coefficients'
    denominators differ from entry to entry."""
    exps = st.tuples(*(st.integers(0, 1 if name in ctx.nilpotent else 3)
                       for name in ctx.names))
    coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
    return [[MultiPoly(ctx, draw(st.dictionaries(exps, coeffs, max_size=3)))
             for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def dot_cases(draw):
    ctx = draw(st.sampled_from(DOT_CONTEXTS))
    n, rows, cols = (draw(st.integers(1, 4)) for _ in range(3))
    return (ctx, draw(poly_matrices(ctx, rows, n)),
            draw(poly_matrices(ctx, n, cols)))


def term_by_term(ctx, row, col):
    return sum((x * y for x, y in zip(row, col)), ctx.zero())


def assert_same_sum(ctx, got, want):
    assert got == want and dict(got.terms) == dict(want.terms)
    assert got.ctx == ctx and got.den > 0
    assert all(type(n) is int and n for n in got.nums.values())
    assert math.gcd(got.den, *got.nums.values()) == 1
    assert all(e <= got.bound for k in got.nums for e in ctx.exponent(k))


@settings(max_examples=100, deadline=None)
@given(dot_cases())
def test_products_of_polynomial_matrices_match_term_by_term_sums(case):
    """In Q[q] and in Q[q, t]/(t^2), where a product reaching t^2 drops,
    `_dot`, `matvec` and `matmul` equal sum(x * y) term by term, come
    back reduced in the entries' context, and keep an exponent bound."""
    ctx, a, b = case
    cols = [[row[j] for row in b] for j in range(len(b[0]))]
    for row in a:
        for col in cols:
            assert_same_sum(ctx, _dot(row, col), term_by_term(ctx, row, col))
    for got, row in zip(matvec(Matrix(a), cols[0]), a):
        assert_same_sum(ctx, got, term_by_term(ctx, row, cols[0]))
    product = matmul(Matrix(a), Matrix(b))
    for i, row in enumerate(a):
        for j, col in enumerate(cols):
            assert_same_sum(ctx, product[i, j], term_by_term(ctx, row, col))


def test_dot_edge_cases():
    """Fraction and int rows multiply and add as they are; a row with no
    product left is the zero of its entries' context; exponents that
    could carry are refused."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    got = _dot([half, Fraction(0), Fraction(3)], [Fraction(4), third, third])
    assert got == 3 and type(got) is Fraction
    got = _dot([1, 0, 2], [3, 5, 4])
    assert got == 11 and type(got) is int
    q = CTX.var("q")
    got = _dot([half, Fraction(0)], [q, q])
    assert got == half * q and got.ctx is CTX
    ctx = DOT_CONTEXTS[1]
    t = ctx.var("t")
    zero = _dot([ctx.zero(), t], [ctx.var("q"), ctx.zero()])
    assert zero == ctx.zero() and zero.ctx is ctx and not zero.nums
    # t * t = 0 in Q[q, t]/(t^2): a product that drops leaves zero
    dropped = _dot([t, ctx.zero()], [t, t])
    assert dropped == ctx.zero() and dropped.ctx is ctx
    wide = MultiPoly(CTX, {(2 ** 63, 0): 1})
    with pytest.raises(ValueError, match="would carry"):
        _dot([wide, q], [wide, q])
    with pytest.raises(ValueError, match="would carry"):
        matvec(Matrix([[q, wide]]), [q, wide])


# ---------------------------------------------------------------------------
# ranks over Q(t) by points against sympy
# ---------------------------------------------------------------------------


T_CTX = VarContext(("t",), (-1,))


def t_poly(coeffs):
    """sum_k coeffs[k] t^k; None is the zero entry."""
    return MultiPoly(T_CTX, {(k,): c for k, c in enumerate(coeffs or ())})


def sympy_rank_over_q_t(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    t = sympy.Symbol("t")
    domain = sympy.QQ.frac_field(t)
    rows = [[domain.from_sympy(sum((c * t ** k for (k,), c in x.terms.items()),
                                   sympy.Integer(0)))
             for x in row] for row in m.rows]
    return DomainMatrix(rows, (m.nrows, m.ncols), domain).rank()


entries = st.one_of(st.none(), st.none(),
                    st.lists(st.integers(-3, 3), min_size=1, max_size=3))


@st.composite
def t_matrices(draw):
    """Up to 5 x 5, entries of t-degree at most 2, with zero rows and
    columns drawn in on purpose."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [None] * m
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = None
    return Matrix([[t_poly(e) for e in row] for row in rows])


@settings(max_examples=80, deadline=None)
@given(t_matrices())
def test_rank_at_points_matches_sympy(m):
    assert rank_at_points(m, "t") == sympy_rank_over_q_t(m)


@pytest.mark.parametrize("degree", range(1, 6))
def test_rank_at_points_reaches_the_last_point(degree):
    """prod_{k < D} (t - k) vanishes at every point but t = D, the last
    one a 1-column matrix of degree D is read at."""
    p = math.prod((T_CTX.var("t") - k for k in range(degree)), start=T_CTX.one())
    zero = T_CTX.zero()
    assert rank_at_points(Matrix([[p]]), "t") == 1
    assert rank_at_points(Matrix([[p], [zero]]), "t") == 1
    assert rank_at_points(Matrix([[zero, p, zero]]), "t") == 1


# ---------------------------------------------------------------------------
# division with a variable of negative degree
# ---------------------------------------------------------------------------


def test_inexact_division_with_a_negative_degree_ends():
    """In Q[q, t] with deg t = -1 the monomial order is not a well-order;
    1 / (1 - t) must still be refused, not divided forever."""
    ctx = VarContext(("q", "t"), (2, -1))
    q, t = ctx.var("q"), ctx.var("t")

    def timed_out(signum, frame):
        raise TimeoutError("poly_exact_div did not return")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="not exact"):
            poly_exact_div(ctx.one(), ctx.one() - t)
        assert poly_exact_div((1 - t) * (q + t * t), 1 - t) == q + t * t
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_verify_all_multiplies_by_zero_rarely(monkeypatch):
    """A cold run's polynomial products mostly have two nonzero factors,
    and there are few of them (1,145, 140 with a zero factor): matrix
    entries, the flag pullback, Segre classes and projective pushes sum
    their products on integer numerators.  The bound leaves about 10 %."""
    made = Counter()
    mul = MultiPoly.__mul__

    def counted_mul(self, other):
        made["all"] += 1
        if not self or not other:
            made["zero operand"] += 1
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted_mul)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted_mul)
    assert len(verify_all_certificates(Workspace(), 0)) == 42
    assert made["zero operand"] <= 800
    assert made["all"] <= 1260
