"""The linear algebra kernel skips products with a zero factor without
changing a result, its type or its context; ranks over Q(t) are read at
rational points, and division by leading terms ends in every grading."""

import math
import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmquantum.certificates import Workspace
from gmquantum.cli import verify_all_certificates
from gmquantum.linalg import (
    Matrix, matmul, matvec, poly_exact_div, rank_at_points,
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
    """A cold run's polynomial products mostly have two nonzero factors."""
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
    assert made["all"] <= 3500
