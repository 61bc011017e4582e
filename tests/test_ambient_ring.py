"""The six dimensional lattice of restricted classes on the fourfold."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from gmquantum.ambient import (
    AmbientRing, BASIS_DEGREES, BASIS_NAMES, DIM, LIFT_PARTITIONS,
)
from gmquantum.certificates import Workspace
from gmquantum.cli import verify_all_certificates
from gmquantum.linalg import inverse_field, Matrix
from gmquantum.schubert import Grassmannian2


EXPECTED_GRAM = (
    (0, 0, 0, 0, 0, 2),
    (0, 0, 0, 0, 2, 0),
    (0, 0, 4, 2, 0, 0),
    (0, 0, 2, 2, 0, 0),
    (0, 2, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0),
)

EXPECTED_CUP = {
    ("s1", "s1"): {"s2": 1, "s11": 1},
    ("s1", "s2"): {"s3": 3},
    ("s1", "s11"): {"s3": 2},
    ("s1", "s3"): {"s31": 1},
    ("s1", "s31"): {},
    ("s2", "s2"): {"s31": 2},
    ("s2", "s11"): {"s31": 1},
    ("s11", "s11"): {"s31": 1},
    ("s2", "s3"): {},
    ("s3", "s3"): {},
}


@pytest.fixture(scope="module")
def amb():
    return AmbientRing()


def unit(index):
    return tuple(Fraction(1 if i == index else 0) for i in range(DIM))


def basis_vector(name):
    return unit(BASIS_NAMES.index(name))


def cup(amb, a, b):
    """The product of two ambient classes, from the cup table."""
    out = [Fraction(0)] * DIM
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for k, c in enumerate(amb.cup_table[i][j]):
                out[k] += x * y * c
    return tuple(out)


def pairing(amb, a, b):
    """The intersection number of two ambient classes, from the Gram
    matrix."""
    rows = amb.gram().rows
    return sum((x * y * rows[i][j] for i, x in enumerate(a)
                for j, y in enumerate(b)), Fraction(0))


def degree_of(vec):
    """Common degree of the nonzero components; None for zero, raises if mixed."""
    degs = {BASIS_DEGREES[i] for i, c in enumerate(vec) if c}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("ambient class is not homogeneous")
    return degs.pop()


def test_basis_layout():
    assert BASIS_NAMES == ("s0", "s1", "s2", "s11", "s3", "s31")
    assert BASIS_DEGREES == (0, 1, 2, 2, 3, 4)
    assert DIM == 6


def test_gram_matrix(amb):
    gram = amb.gram()
    for i in range(DIM):
        for j in range(DIM):
            assert gram.rows[i][j] == EXPECTED_GRAM[i][j], (i, j)


def test_fourfold_has_degree_ten(amb):
    h = basis_vector("s1")
    h2 = cup(amb, h, h)
    assert pairing(amb, h2, h2) == 10


def test_cup_products_match_frozen(amb):
    for (a, b), spec in EXPECTED_CUP.items():
        want = tuple(Fraction(spec.get(name, 0)) for name in BASIS_NAMES)
        got = amb.cup_table[BASIS_NAMES.index(a)][BASIS_NAMES.index(b)]
        assert got == want, (a, b, got)


def test_cup_is_commutative_and_unital(amb):
    for a in BASIS_NAMES:
        va = basis_vector(a)
        assert cup(amb, basis_vector("s0"), va) == va
        for b in BASIS_NAMES:
            vb = basis_vector(b)
            assert cup(amb, va, vb) == cup(amb, vb, va)


def test_cup_respects_grading(amb):
    for i, a in enumerate(BASIS_NAMES):
        for j, b in enumerate(BASIS_NAMES):
            prod = cup(amb, basis_vector(a), basis_vector(b))
            want = BASIS_DEGREES[i] + BASIS_DEGREES[j]
            deg = degree_of(prod)
            assert deg is None or deg == want


def test_dual_basis_is_dual(amb):
    duals = amb.dual_basis()
    for i in range(DIM):
        for j in range(DIM):
            want = Fraction(1) if i == j else Fraction(0)
            assert pairing(amb, unit(i), duals[j]) == want


def test_point_class_is_half_s31(amb):
    pt = tuple(c / 2 for c in basis_vector("s31"))
    assert pairing(amb, pt, basis_vector("s0")) == 1
    assert pt == (0, 0, 0, 0, 0, Fraction(1, 2))


def test_poincare_pairing_respects_degrees(amb):
    # complementary degrees pair, everything else integrates to zero
    for i in range(DIM):
        for j in range(DIM):
            if BASIS_DEGREES[i] + BASIS_DEGREES[j] != 4:
                assert pairing(amb, unit(i), unit(j)) == 0


def test_degree_of_rejects_mixed():
    with pytest.raises(ValueError):
        degree_of((1, 1, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# the Schubert route as an oracle for the tables
# ---------------------------------------------------------------------------

G25 = Grassmannian2(5)
HYPER2 = G25.power(G25.sigma(1), 2)


def lift(vec):
    """Schubert class on G(2, 5) restricting to the ambient class vec."""
    out = {}
    for coeff, (a, b) in zip(vec, LIFT_PARTITIONS):
        out = G25.add(out, G25.scale(G25.sigma(a, b), coeff))
    return out


def fourfold_integral(*vecs):
    """2 int_G(2,5) of the lifted classes times sigma_1^2, one product at
    a time."""
    prod = HYPER2
    for vec in vecs:
        prod = G25.multiply(prod, lift(vec))
    return 2 * G25.integrate(prod)


def test_triples_match_the_schubert_route(amb):
    for i, j, l in product(range(DIM), repeat=3):
        want = fourfold_integral(unit(i), unit(j), unit(l))
        assert amb.triples[i][j][l] == want, (i, j, l)
        if BASIS_DEGREES[i] + BASIS_DEGREES[j] + BASIS_DEGREES[l] != 4:
            assert want == 0, (i, j, l)


def test_gram_and_cups_match_the_schubert_route(amb):
    gram = Matrix([[fourfold_integral(unit(i), unit(j)) for j in range(DIM)]
                   for i in range(DIM)])
    assert amb.gram().rows == gram.rows
    inv = inverse_field(gram, Fraction(1))
    duals = [tuple(inv.rows[l][k] for l in range(DIM)) for k in range(DIM)]
    for i, j in product(range(DIM), repeat=2):
        want = tuple(fourfold_integral(unit(i), unit(j), d) for d in duals)
        assert amb.cup_table[i][j] == want, (i, j)


def test_verify_all_builds_one_ambient_ring(monkeypatch):
    """A cold run shares one ambient ring between all its quantum rings,
    and its only Schubert products are the seven triple numbers' and the
    tower integrals'."""
    made = Counter()
    init, multiply = AmbientRing.__init__, Grassmannian2.multiply

    def counted_init(self):
        made["ambient"] += 1
        init(self)

    def counted_multiply(self, x, y):
        made["multiply"] += 1
        return multiply(self, x, y)

    monkeypatch.setattr(AmbientRing, "__init__", counted_init)
    monkeypatch.setattr(Grassmannian2, "multiply", counted_multiply)
    assert len(verify_all_certificates(Workspace(), 0)) == 42
    assert made["ambient"] == 1
    assert made["multiply"] <= 40
