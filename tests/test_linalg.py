"""The linear algebra kernel skips products with a zero factor without
changing a result, its type or its context."""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gmquantum.certificates import Workspace
from gmquantum.cli import verify_all_certificates
from gmquantum.linalg import Matrix, matmul, matvec, rank_bareiss, rank_field
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


coeff = st.integers(-3, 3)
entries = st.one_of(st.just(None), st.just(None),
                    st.tuples(coeff, coeff, coeff))


def polynomial(entry):
    """None is the zero entry; (a, b, c) is a q + b s^2 + c s q."""
    if entry is None:
        return CTX.zero()
    a, b, c = entry
    q, s = CTX.var("q"), CTX.var("s")
    return a * q + b * s * s + c * s * q


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_rank_bareiss_matches_rank_at_random_points(rows):
    m = Matrix([[polynomial(e) for e in row] for row in rows])
    symbolic = rank_bareiss(m)
    rng = random.Random(7)
    evaluated = []
    for _ in range(3):
        point = {name: Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                 for name in CTX.names}
        evaluated.append(rank_field(m.map(lambda x: x.evaluate(point))))
    # a nonzero minor has few rational roots: the generic rank shows up
    assert max(evaluated) == symbolic
    assert all(r <= symbolic for r in evaluated)


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
