"""Atiyah-Bott localization as an independent check of the tower integrals.

For a torus T acting on a smooth projective X with isolated fixed points,

    int_X c = sum over fixed points p of c|_p / e(T_p X)

for every equivariant class c (Atiyah-Bott, "The moment map and
equivariant cohomology", Topology 23, 1984).  When c has degree dim X the
sum is a rational number, the ordinary integral.  It does not depend on
which polynomial in the generators stands for c: a relation of top degree
integrates to zero equivariantly as well.

Conventions, the same as in `gmquantum.towers`:

- P^1 with hyperplane class h: T scales the two coordinates with weights
  a_0, a_1.  Fixed point k has h|_k = -a_k and tangent weight
  a_(1-k) - a_k.
- P(E) is the bundle of lines in E, and z is the hyperplane class of the
  dual tautological line, so prod_j (z + x_j) = 0 for the Chern roots x_j
  of E.  For E = sum_j O(c_j h), with T scaling the j-th summand by
  weight e_j, the root x_j restricts to c_j h|_k + e_j over base point k.
  Fiber point i has z = -x_i and fiber tangent weights x_j - x_i, j != i.

Level 1, here: the three counts whose towers have only projective stages
are P(E) over P^1.  P^1 x P^2 is P(O^3).  Each count's own integrand, as
it reaches `Tower.integrate`, is evaluated at the fixed points.  This
checks the pushforwards and the relations of the tower code, but not its
Chern classes.  The two Grassmannians over a point are checked the same
way through `grassmann_localization`: I13's integrand on its G(2,4) stage,
and the seven ambient triple numbers on G(2,5), with each Schubert class
restricted by Giambelli in the fixed point's roots rather than by the
formula `gmquantum.ambient` builds them with.  A weight choice with a zero
tangent weight is refused, never divided by.

The same sum gives the chi_y genus of the fourfold X = G(2,5) cut by
O(1) + O(2), from which Lefschetz and Hodge symmetry read the primitive
Hodge numbers that `HodgeModel` posits.
"""

from fractions import Fraction
from itertools import product
from math import prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import grassmann_localization as grass
from gmquantum.ambient import AmbientRing, BASIS_DEGREES, DIM, LIFT_PARTITIONS
from gmquantum.deformation import PRIMITIVE_DIM, HodgeModel
from gmquantum.gwcounts import (
    compute_i11, compute_i12, compute_i13, compute_i2,
)
from gmquantum.poly import VarContext
from gmquantum.towers import Grass2Stage, Tower, grassmann_push

# count -> (computation, fiber variable, twists c_j of E, the integral);
# I2's integral is the invariant before its factor 2
TOWERS = {
    "I11": (compute_i11, "H", (0, 0, 0), 6),
    "I12": (compute_i12, "H", (1, 0, 0, 0), 10),
    "I2": (compute_i2, "l", (0, 0, -2), 6),
}

BASE_WEIGHTS = (0, 1)
FIBER_WEIGHTS = (2, 5, 11, 17)


def fixed_points(twists, base_weights, fiber_weights):
    """(h|_p, z|_p, e(T_p)) at each fixed point of P(E) over P^1."""
    for k in (0, 1):
        h = -base_weights[k]
        roots = [c * h + w for c, w in zip(twists, fiber_weights)]
        for i, x in enumerate(roots):
            weights = [base_weights[1 - k] - base_weights[k]]
            weights += [y - x for j, y in enumerate(roots) if j != i]
            if 0 in weights:
                raise ValueError("zero tangent weight at fixed point (%d, %d)"
                                 % (k, i))
            yield h, -x, prod(weights)


def bott_sum(poly, fiber_var, twists, base_weights=BASE_WEIGHTS,
             fiber_weights=FIBER_WEIGHTS):
    return sum(Fraction(poly.evaluate({"h": h, fiber_var: z})) / euler
               for h, z, euler in fixed_points(twists, base_weights,
                                               fiber_weights))


def integrated(compute):
    """(report, tower, integrand) of one count, as it calls Tower.integrate."""
    with mock.patch.object(Tower, "integrate", autospec=True,
                           side_effect=Tower.integrate) as spy:
        report = compute()
    assert spy.call_count == 1
    (tower, integrand), _ = spy.call_args
    return report, tower, integrand


CAPTURED = {name: integrated(compute)
            for name, (compute, _, _, _) in TOWERS.items()}


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_bott_sum_of_each_integrand(name):
    _, fiber_var, twists, value = TOWERS[name]
    report, tower, integrand = CAPTURED[name]
    assert set(tower.ctx.names) == {"h", fiber_var}
    assert tower.dim == len(twists)
    assert bott_sum(integrand, fiber_var, twists) == value
    assert tower.integrate(integrand) == value
    assert report.value == (2 if name == "I2" else 1) * value


def test_zero_tangent_weight_is_refused():
    _, fiber_var, twists, _ = TOWERS["I12"]
    _, _, integrand = CAPTURED["I12"]
    with pytest.raises(ValueError, match="zero tangent weight"):
        bott_sum(integrand, fiber_var, twists, fiber_weights=(2, 5, 5, 17))
    with pytest.raises(ValueError, match="zero tangent weight"):
        bott_sum(integrand, fiber_var, twists, base_weights=(3, 3))
    # over the second base point the root of O(h) is -1 + 2 = 1 = 0 + 1
    with pytest.raises(ValueError, match="zero tangent weight"):
        bott_sum(integrand, fiber_var, twists, fiber_weights=(2, 1, 5, 17))


weight = st.integers(-30, 30)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TOWERS)), h_power=st.integers(0, 4),
       coeff=st.integers(-5, 5).filter(bool),
       base_weights=st.tuples(weight, weight),
       fiber_weights=st.tuples(weight, weight, weight, weight))
def test_random_top_monomials_match_integrate(name, h_power, coeff,
                                              base_weights, fiber_weights):
    _, fiber_var, twists, _ = TOWERS[name]
    _, tower, _ = CAPTURED[name]
    h_power = min(h_power, tower.dim)
    monomial = coeff * tower.var("h") ** h_power \
        * tower.var(fiber_var) ** (tower.dim - h_power)
    try:
        expected = bott_sum(monomial, fiber_var, twists, base_weights,
                            fiber_weights)
    except ValueError:
        assume(False)
    assert tower.integrate(monomial) == expected


# ---------------------------------------------------------------------------
# the Grassmannians over a point: G(2,4) of I13 and G(2,5) of the ambient ring
# ---------------------------------------------------------------------------

G24_WEIGHTS = (2, 5, 11, 17)
G25_WEIGHTS = (2, 5, 11, 17, 29)
I13 = integrated(compute_i13)


def test_i13_integrand_on_g24():
    report, tower, integrand = I13
    assert tower.base.dim == 0
    [stage] = tower.stages
    assert isinstance(stage, Grass2Stage) and stage.names == ("a1", "a2")
    assert len(list(grass.fixed_points(G24_WEIGHTS))) == 6
    value = grass.bott_sum(
        lambda h, a, _: integrand.evaluate({"a1": h, "a2": a}), G24_WEIGHTS)
    assert value == 3
    assert tower.integrate(integrand) == 3
    assert report.value == 2 * value


def test_ambient_triples_by_localization():
    # T_ijl = 2 int_G(2,5) sigma_i sigma_j sigma_l sigma_1^2
    amb = AmbientRing()
    assert len(list(grass.fixed_points(G25_WEIGHTS))) == 10
    seen = set()
    for ijl in product(range(DIM), repeat=3):
        if sum(BASIS_DEGREES[i] for i in ijl) != 4:
            continue
        parts = [LIFT_PARTITIONS[i] for i in ijl]
        value = 2 * grass.bott_sum(
            lambda h, a, roots: h ** 2 * prod(grass.schubert_at(x, y, roots)
                                              for x, y in parts),
            G25_WEIGHTS)
        assert amb.triples[ijl[0]][ijl[1]][ijl[2]] == value, ijl
        seen.add(tuple(sorted(ijl)))
    assert len(seen) == 7


def test_grassmannian_zero_tangent_weight_is_refused():
    with pytest.raises(ValueError, match="zero tangent weight"):
        grass.bott_sum(lambda h, a, _: h ** 4, (2, 5, 5, 17))


def primitive_numbers(chi):
    """(h31, h22, h13) of the primitive middle cohomology of a fourfold
    cut out of G(2,5) by ample divisors, from the coefficients of chi_y.

    chi_p = chi(X, Omega^p) = sum_q (-1)^q h^{p,q}.  By Lefschetz
    h^{p,q}(X) = h^{p,q}(G(2,5)) for p + q < 4, and Serre duality carries
    that to p + q > 4, so besides the ambient classes h^{p,p} (one per
    basis class of degree p) only h^{p,4-p} is left: chi_p is (-1)^p
    times their sum.
    """
    ambient = [BASIS_DEGREES.count(p) for p in range(5)]
    prim = [(-1) ** p * chi[p] - ambient[p] for p in range(5)]
    assert prim[0] == prim[4] == 0      # h40 = h04 = 0
    assert prim[1] == prim[3]           # Hodge symmetry h13 = h31
    return prim[3], prim[2], prim[1]


@pytest.mark.parametrize("weights", [G25_WEIGHTS, (0, 1, 3, 7, 15)])
def test_chi_y_gives_the_hodge_model(weights):
    """chi_y(X) = 1 - 2y + 22y^2 - 2y^3 + y^4 for X = G(2,5) cut by
    O(1) + O(2), whatever the weights, and its reading is the model's
    (h31, h22, h13) = (1, 20, 1)."""
    chi = grass.chi_y((1, 2), weights)
    assert chi == [1, -2, 22, -2, 1]
    assert primitive_numbers(chi) == HodgeModel.standard().numbers
    # chi_{-1} is the Euler number: 6 ambient classes and 22 primitive
    assert sum((-1) ** p * c for p, c in enumerate(chi)) \
        == DIM + PRIMITIVE_DIM == 28


@pytest.mark.parametrize("normal, chi", [
    ((), [1, -1, 2, -2, 2, -1, 1]),
    ((1, 1), [1, -1, 2, -1, 1]),
    ((2, 2), [1, -21, 132, -21, 1]),
])
def test_chi_y_of_other_zero_loci(normal, chi):
    """G(2,5) itself has one Schubert class in each degree but 2, 3 and 4,
    which have two, and no other cohomology.  The normal-bundle mutants
    O(1) + O(1) and O(2) + O(2) of the fourfold give other polynomials,
    so the fourfold's reading is not forced by the method."""
    assert grass.chi_y(normal, G25_WEIGHTS) == chi
    if normal:
        assert primitive_numbers(chi) != HodgeModel.standard().numbers


def test_chi_y_refuses_a_zero_tangent_weight():
    with pytest.raises(ValueError, match="zero tangent weight"):
        grass.chi_y((1, 2), (2, 5, 5, 17, 29))


G25 = VarContext(("H", "A"), (1, 2))
TRIVIAL5 = [G25.one()] + [G25.zero()] * 5


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([4, 5]), a_power=st.integers(0, 3),
       coeff=st.integers(-5, 5).filter(bool), data=st.data())
def test_random_grassmannian_top_monomials(n, a_power, coeff, data):
    """H^i A^j of top degree on G(2,4) through I13's tower and on G(2,5)
    through `grassmann_push` with the trivial rank 5 bundle."""
    weights = data.draw(st.lists(weight, min_size=n, max_size=n,
                                 unique=True))
    j = min(a_power, n - 2)
    i = 2 * (n - 2) - 2 * j
    expected = grass.bott_sum(lambda h, a, _: coeff * h ** i * a ** j, weights)
    if n == 4:
        tower = I13[1]
        got = tower.integrate(
            coeff * tower.var("a1") ** i * tower.var("a2") ** j)
    else:
        monomial = coeff * G25.var("H") ** i * G25.var("A") ** j
        got = grassmann_push(monomial, "H", "A", TRIVIAL5).scalar_value()
    assert got == expected
