"""Schubert calculus on G(2, n): Pieri, Giambelli, duality."""

from fractions import Fraction

import pytest

from schubert_oracle import Grassmannian2


def pair(g, x, y):
    return g.integrate(g.multiply(x, y))


def basis_of_degree(g, d):
    return [p for p in g.partitions if sum(p) == d]


def test_basis_counts_and_dimension():
    g4 = Grassmannian2(4)
    assert g4.dimension == 4
    assert len(g4.partitions) == 6
    g5 = Grassmannian2(5)
    assert g5.dimension == 6
    assert len(g5.partitions) == 10
    with pytest.raises(ValueError):
        Grassmannian2(2)


def test_point_class_integrates_to_one():
    for n in (4, 5, 6):
        g = Grassmannian2(n)
        assert g.integrate(g.sigma(*g.point)) == 1
        assert g.integrate(g.sigma(1)) == 0


def test_degree_of_grassmannian():
    # top self intersections of the hyperplane class
    g4 = Grassmannian2(4)
    assert g4.integrate(g4.power(g4.sigma(1), 4)) == 2
    g5 = Grassmannian2(5)
    assert g5.integrate(g5.power(g5.sigma(1), 6)) == 5


def test_pieri_rule_g25():
    g = Grassmannian2(5)
    assert g.multiply(g.sigma(1), g.sigma(1)) == {(2, 0): 1, (1, 1): 1}
    assert g.multiply(g.sigma(1), g.sigma(2)) == {(3, 0): 1, (2, 1): 1}
    assert g.multiply(g.sigma(1), g.sigma(1, 1)) == {(2, 1): 1}
    # sigma_4 falls outside the 2 x 3 box and is dropped
    assert g.multiply(g.sigma(2), g.sigma(2)) == {(3, 1): 1, (2, 2): 1}
    assert g.multiply(g.sigma(2), g.sigma(1, 1)) == {(3, 1): 1}
    # box truncation: nothing survives above the point class
    assert g.multiply(g.sigma(3, 3), g.sigma(1)) == {}


def test_duality_pairs():
    # complement partitions pair to 1, everything else in the same
    # codimension pairs to 0
    for n in (4, 5):
        g = Grassmannian2(n)
        w = g.width
        for a in range(w + 1):
            for b in range(a + 1):
                comp = (w - b, w - a)
                assert pair(g, g.sigma(a, b), g.sigma(*comp)) == 1
                for (c, d) in basis_of_degree(g, 2 * w - a - b):
                    if (c, d) != comp:
                        assert pair(g, g.sigma(a, b), g.sigma(c, d)) == 0


def test_linearity_helpers():
    g = Grassmannian2(5)
    x = g.add(g.sigma(2), g.scale(g.sigma(1, 1), Fraction(-1, 2)))
    y = g.multiply(x, g.sigma(1))
    direct = g.add(g.multiply(g.sigma(2), g.sigma(1)),
                   g.scale(g.multiply(g.sigma(1, 1), g.sigma(1)),
                           Fraction(-1, 2)))
    assert y == direct


def test_partition_outside_box_rejected():
    g = Grassmannian2(4)
    with pytest.raises(ValueError):
        g.sigma(3)
    with pytest.raises(ValueError):
        g.sigma(2, 3)
