"""Integration on bundle towers against independent oracles.

The tower engine is the workhorse behind every curve count, so it is
checked three ways: against Schubert calculus over a point base (the
test-side oracle in `schubert_oracle`, which shares no code with the
Grassmann pushforward), against closed form Chern identities from formal
roots, and against hand computed intersection numbers on the small bases
used by the counts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmquantum.poly import VarContext
from gmquantum.towers import (
    Dual, ProjBase, Sym2, TautSub, Tower, Trivial, bundle_sum, chern_of,
    grassmann_push, line_bundle, segre_of, twist,
)
from schubert_oracle import Grassmannian2


def theta_tower():
    return Tower(ProjBase([("h", 1)]),
                 [("proj", bundle_sum(Trivial(2), line_bundle({"h": -2})),
                   "l")])


def gamma_tower():
    return Tower(ProjBase([("h", 1)]),
                 [("proj", bundle_sum(line_bundle({"h": 1}), Trivial(3)),
                   "H")])


def g24_tower(names=("H", "A")):
    """G(2,4) as the Grassmann stage of the trivial rank 4 bundle over a
    point."""
    return Tower(ProjBase([]), [("grass2", Trivial(4), names)])


def sigma_tower():
    return Tower(ProjBase([("h", 1)]),
                 [("grass2", bundle_sum(line_bundle({"h": 1}), Trivial(3)),
                   ("H", "al"))])


# ---------------------------------------------------------------------------
# Grassmann bundle over a point against Schubert calculus
# ---------------------------------------------------------------------------


def presentation(tower, point):
    """Rank data of the presented ring and the integral of the point
    class, the monomial `point` in the tower's variables."""
    sm = tower.ideal.standard_monomials()
    return {
        "quotient_rank": len(sm),
        "top_degree_rank": sum(1 for m in sm
                               if tower.ctx.weighted_degree(m) == tower.dim),
        "point_integral": tower.integrate(point),
    }


def test_point_base_grass_bundle_matches_schubert_everywhere():
    tower = g24_tower()
    g = Grassmannian2(4)
    H, A = tower.var("H"), tower.var("A")
    for i in range(5):
        for j in range(3):
            if i + 2 * j > 4:
                continue
            got = tower.integrate(H ** i * A ** j)
            cls = g.power(g.sigma(1), i)
            for _ in range(j):
                cls = g.multiply(g.sigma(1, 1), cls)
            assert got == g.integrate(cls), (i, j)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_grassmann_push_matches_schubert_on_g2n(n):
    # G(2, n) as the Grassmann bundle of the trivial rank n bundle
    ctx = VarContext(("H", "A"), (1, 2))
    trivial = [ctx.one()] + [ctx.zero()] * n
    g = Grassmannian2(n)
    for j in range(n - 1):
        i = g.dimension - 2 * j
        got = grassmann_push(ctx.var("H") ** i * ctx.var("A") ** j,
                             "H", "A", trivial)
        cls = g.power(g.sigma(1), i)
        for _ in range(j):
            cls = g.multiply(g.sigma(1, 1), cls)
        assert got == ctx.scalar(g.integrate(cls)), (n, i, j)
    # classes off the top degree push to zero
    assert grassmann_push(ctx.var("H") ** (g.dimension - 1), "H", "A",
                          trivial).is_zero()


def test_point_base_quotient_variables():
    tower = g24_tower()
    H, A = tower.var("H"), tower.var("A")
    # the dual quotient has c(Q^v) = 1/(1+H+A) = 1 + Hp + Ap, and its
    # classes of degree 3 and 4 vanish
    Hp, Ap = -H, H ** 2 - A
    whitney = (1 + H + A) * (1 + Hp + Ap)
    for d in range(1, 5):
        assert tower.normal_form(whitney.graded_part(d)).is_zero(), d
    # the quotient side carries the dual classes
    assert tower.integrate(Hp ** 4) == 2
    assert tower.integrate(Ap ** 2) == 1
    assert tower.integrate(H ** 2 * Ap) == 1
    rep = presentation(tower, tower.var("A") ** 2)
    assert rep == {"quotient_rank": 6, "top_degree_rank": 1,
                   "point_integral": Fraction(1)}


# ---------------------------------------------------------------------------
# the bases used by the curve counts
# ---------------------------------------------------------------------------


def test_gamma_tower_integrals():
    gamma = gamma_tower()
    h, H = gamma.var("h"), gamma.var("H")
    assert gamma.dim == 4
    assert gamma.integrate(h * H ** 3) == 1
    assert gamma.integrate(H ** 4) == -1
    assert presentation(gamma, h * H ** 3) == {
        "quotient_rank": 8, "top_degree_rank": 1,
        "point_integral": Fraction(1)}


def test_theta_tower_integrals():
    theta = theta_tower()
    h, l = theta.var("h"), theta.var("l")
    assert theta.integrate(h * l ** 2) == 1
    assert theta.integrate(l ** 3) == 2


def test_g24_base_del_pezzo_degree():
    tower = g24_tower(("a1", "a2"))
    a1 = tower.var("a1")
    assert tower.integrate(a1 ** 4) == 2
    assert presentation(tower, tower.var("a2") ** 2) == {
        "quotient_rank": 6, "top_degree_rank": 1,
        "point_integral": Fraction(1)}


def test_product_base_lines_through_point():
    tower = Tower(ProjBase([("h", 1), ("H", 2)]))
    h, H = tower.var("h"), tower.var("H")
    assert tower.integrate(2 * (h + H) ** 3) == 6


# ---------------------------------------------------------------------------
# sheaf expressions against hand expansions
# ---------------------------------------------------------------------------


def test_gamma_sheaf_classes():
    gamma = gamma_tower()
    h, H = gamma.var("h"), gamma.var("H")
    u2 = bundle_sum(line_bundle({"h": -1}), TautSub(0))
    rank, c = chern_of(u2, gamma)
    assert rank == 2
    assert c[1] == -(h + H)
    s = segre_of(c, gamma, 2)
    assert s[2] == gamma.normal_form(H ** 2 + h * H)
    integrand = 2 * c[1] ** 2 * (s[2] + c[1] ** 2)
    assert gamma.integrate(integrand) == 10


def test_theta_sheaf_classes():
    theta = theta_tower()
    h, l = theta.var("h"), theta.var("l")
    l2 = bundle_sum(Trivial(1), line_bundle({"h": -1}))
    rank, c = chern_of(Sym2(Dual(l2)), theta)
    assert rank == 3
    assert c[1] == 3 * h


def test_g24_restriction_integrand():
    tower = g24_tower(("a1", "a2"))
    a1, a2 = tower.var("a1"), tower.var("a2")
    rank, c = chern_of(TautSub(0), tower)
    assert rank == 2 and c[1] == -a1 and c[2] == a2
    s = segre_of(c, tower, 2)
    integrand = s[2] + c[1] ** 2
    assert tower.normal_form(integrand) == \
        tower.normal_form(2 * a1 ** 2 - a2)
    assert tower.integrate(integrand * a1 ** 2) == 3


def test_sigma_tower_j12_classes():
    sigma = sigma_tower()
    h, H, al = sigma.var("h"), sigma.var("H"), sigma.var("al")
    assert sigma.dim == 5
    assert sigma.integrate(al ** 2 * h) == 1
    assert sigma.integrate(al ** 2 * H) == -1
    assert sigma.integrate(al * h * H ** 2) == 1
    pl = Dual(twist(TautSub(0), {"h": -1}))
    rank, c = chern_of(pl, sigma)
    assert rank == 2
    assert c[2] == sigma.normal_form(al + h * H)
    rank3, c3 = chern_of(Sym2(pl), sigma)
    assert rank3 == 3
    assert c3[3] == sigma.normal_form(4 * h * H ** 2 + 8 * al * h
                                      + 4 * al * H)
    assert sigma.integrate(c[2] * c3[3]) == 12


# ---------------------------------------------------------------------------
# splitting principle oracle: Sym2 from formal roots
# ---------------------------------------------------------------------------


line_coeffs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=25, deadline=None)
@given(st.lists(line_coeffs, min_size=2, max_size=3))
def test_sym2_matches_formal_roots(pairs):
    theta = theta_tower()
    h, l = theta.var("h"), theta.var("l")
    roots = [a * h + b * l for a, b in pairs]
    bundle = bundle_sum(*[line_bundle({"h": a, "l": b}) for a, b in pairs])
    r = len(pairs)

    rank_s, c_sym = chern_of(Sym2(bundle), theta)
    assert rank_s == r * (r + 1) // 2
    oracle = theta.ctx.one()
    for i in range(r):
        for j in range(i, r):
            oracle = oracle * (1 + roots[i] + roots[j])
    for k in range(len(c_sym)):
        assert c_sym[k] == theta.normal_form(oracle.graded_part(k)), k


def test_sym2_closed_form_rank2():
    # c3(Sym2 of a rank 2 bundle) = 4 c1 c2
    sigma = sigma_tower()
    pl = Dual(twist(TautSub(0), {"h": -1}))
    _, c = chern_of(pl, sigma)
    _, c3 = chern_of(Sym2(pl), sigma)
    assert c3[3] == sigma.normal_form(4 * c[1] * c[2])


def test_sym2_of_a_rank3_bundle_has_rank6():
    theta = theta_tower()
    e3 = bundle_sum(Trivial(1), line_bundle({"h": -1}),
                    line_bundle({"h": -2}))
    rank_s, _ = chern_of(Sym2(e3), theta)
    assert rank_s == 6


def test_sym2_needs_rank_two_or_three():
    with pytest.raises(ValueError, match="rank 2 or 3"):
        chern_of(Sym2(Trivial(4)), theta_tower())


# ---------------------------------------------------------------------------
# error contracts and tracing
# ---------------------------------------------------------------------------


def test_twist_rank_cap():
    gamma = gamma_tower()
    with pytest.raises(ValueError):
        chern_of(twist(Trivial(4), {"h": 1}), gamma)


def test_grass2_stage_needs_rank_four():
    with pytest.raises(ValueError):
        Tower(ProjBase([("h", 1)]), [("grass2", Trivial(5), ("a", "b"))])


def test_negative_rank_stage_bundle():
    with pytest.raises(ValueError, match="negative rank"):
        Tower(ProjBase([("h", 1)]), [("proj", Trivial(-1), "z")])


def test_stage_bundle_sees_only_lower_stages():
    base = ProjBase([("h", 1)])
    # its own stage
    with pytest.raises(ValueError, match="out of range"):
        Tower(base, [("proj", bundle_sum(TautSub(0), Trivial(1)), "z")])
    # a later stage
    with pytest.raises(ValueError, match="out of range"):
        Tower(base, [("proj", bundle_sum(TautSub(1), Trivial(1)), "z"),
                     ("proj", Trivial(2), "w")])
    # the stage below is fine
    tower = Tower(base, [("proj", Trivial(2), "z"),
                         ("proj", bundle_sum(TautSub(0), Trivial(1)), "w")])
    assert tower.dim == 3


def test_unknown_stage_kind():
    with pytest.raises(ValueError, match="unknown stage kind"):
        Tower(ProjBase([("h", 1)]), [("flag", Trivial(3), "z")])


def test_integrate_records_stage_trace():
    sigma = sigma_tower()
    trace = []
    val = sigma.integrate(sigma.var("al") ** 2 * sigma.var("h"), trace=trace)
    assert val == 1
    assert len(trace) == 2
    assert all(isinstance(line, str) and line for line in trace)
