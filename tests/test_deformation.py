"""First order deformation of the hyperplane action and its Jordan data."""

from fractions import Fraction

import pytest

from gmquantum.ambient import DIM
from gmquantum.deformation import (
    PRIMITIVE_DIM, AtomStatistics, HodgeModel, _columns_matrix,
    assemble_full_operator, at_t_zero, atom_statistics, build_deformed_matrix,
    eigenvalue, homogeneity_failures, irrationality_criterion, jordan_pair,
    specialization_failures, truncated_context, verify_jordan_pair,
)
from gmquantum.linalg import (
    Matrix, RatFunc, char_poly, mat_add, matmul, matvec, nullspace_field,
    poly_exact_div, poly_gcd, scalar_matrix, solve_field,
)
from gmquantum.poly import MultiPoly
from gmquantum.quantum import perturbed_ring, quantum_context, standard_ring

DEFORMED = (
    ("0", "12*q", "240*q^2*t", "156*q^2*t", "48*q^2", "880*q^3*t"),
    ("2", "10*q*t", "20*q", "12*q", "180*q^2*t", "48*q^2"),
    ("-t", "2", "8*q*t", "8*q*t", "8*q", "84*q^2*t"),
    ("0", "2", "12*q*t", "4*q*t", "4*q", "72*q^2*t"),
    ("0", "-3*t", "6", "4", "10*q*t", "12*q"),
    ("0", "0", "-2*t", "-t", "2", "0"),
)


@pytest.fixture(scope="module")
def ring():
    return standard_ring()


@pytest.fixture(scope="module")
def operator(ring):
    return build_deformed_matrix(ring)


def test_truncated_context_kills_t_squared():
    tctx = truncated_context()
    t = tctx.var("t")
    assert (t * t).is_zero()
    assert not (tctx.var("q") * t).is_zero()


def test_deformed_matrix_frozen(operator):
    rendered = tuple(tuple(str(operator[i, j]) for j in range(6))
                     for i in range(6))
    assert rendered == DEFORMED
    assert (operator.nrows, operator.ncols) == (6, 6)


def test_t_zero_slice_is_twice_the_h_action(operator, ring):
    m0 = at_t_zero(operator)
    for i in range(6):
        for j in range(6):
            lifted = ring.h_matrix[i, j] * 2
            assert str(m0[i, j]) == str(lifted), (i, j)


def test_operator_is_homogeneous(operator):
    assert homogeneity_failures(operator) == []
    assert specialization_failures(operator, standard_ring()) == []


def test_homogeneity_check_refuses_the_full_operator(operator):
    full = assemble_full_operator(operator)
    with pytest.raises(ValueError, match="ambient operator"):
        homogeneity_failures(full)
    with pytest.raises(ValueError, match="ambient operator"):
        specialization_failures(full, standard_ring())


def test_jordan_pair_refuses_the_full_operator(operator):
    with pytest.raises(ValueError, match="ambient operator"):
        verify_jordan_pair(assemble_full_operator(operator))


def test_build_rejects_wrong_rings(ring):
    bad_ctx_ring = standard_ring()
    # a ring rebuilt over extra symbols is refused
    from gmquantum.gwcounts import CountSet
    from gmquantum.quantum import QuantumRing
    ctx = quantum_context(("u",))
    counts = CountSet.from_geometry()
    symbolic = QuantumRing(counts, ring.amb, Fraction(24), Fraction(12),
                           Fraction(32), ctx=ctx)
    with pytest.raises(ValueError):
        build_deformed_matrix(symbolic)
    with pytest.raises(ValueError):
        build_deformed_matrix(perturbed_ring(ring))


def test_eigenvalue_and_pair_shapes():
    tctx = truncated_context()
    assert str(eigenvalue(tctx)) == "-4*q*t"
    alpha, beta = jordan_pair(tctx)
    assert [str(x) for x in alpha] == ["-2*q", "0", "2", "-3", "0", "0"]
    assert [str(x) for x in beta] == \
        ["-4*q^2", "-16*q^2*t", "-2*q", "0", "-4*q*t", "1"]


def test_jordan_pair_verifies(operator):
    rep = verify_jordan_pair(operator)
    assert rep.ok and bool(rep)
    assert all(r.is_zero() for r in rep.residual_alpha)
    assert all(r.is_zero() for r in rep.residual_beta)
    assert rep.alpha_classical_kernel


def test_jordan_pair_detects_mutation(operator):
    rows = operator.copy_rows()
    rows[2][0] = rows[2][0] + operator[0, 0].ctx.var("t")
    mutated = Matrix(rows)
    rep = verify_jordan_pair(mutated)
    assert not rep.ok
    assert any(not r.is_zero() for r in rep.residual_alpha)


def test_hodge_model_shape():
    model = HodgeModel.standard()
    assert len(model.primitive_tags) == 22
    assert model.h31() == 1
    assert model.matches_diamond()
    control = model.without_h31()
    assert control.h31() == 0
    assert not control.matches_diamond()
    # non-diamond tag distributions are allowed as controls, but length
    # and tag vocabulary are enforced
    skew = HodgeModel(((3, 1),) * 22)
    assert skew.h31() == 22 and not skew.matches_diamond()
    with pytest.raises(ValueError):
        HodgeModel(((4, 0),) + ((2, 2),) * 21)
    with pytest.raises(ValueError):
        HodgeModel(((2, 2),) * 5)


def test_full_operator_block_structure(operator):
    full = assemble_full_operator(operator)
    assert (full.nrows, full.ncols) == (28, 28)
    lam = eigenvalue(operator[0, 0].ctx)
    for i in range(28):
        for j in range(28):
            if i < 6 and j < 6:
                assert full[i, j] == operator[i, j]
            elif i == j:
                assert full[i, j] == lam
            else:
                assert full[i, j].is_zero(), (i, j)
    with pytest.raises(ValueError):
        assemble_full_operator(full)


def test_atom_statistics(operator):
    model = HodgeModel.standard()
    full = assemble_full_operator(operator)
    stats = atom_statistics(full, model)
    assert (stats.nu, stats.nu_prime, stats.gamma, stats.rho) == (1, 0, 1, 2)
    d = stats.details
    assert d["multiplicity"] == 24
    assert d["e_dimension"] == 24
    assert d["kernel_in_e_dimension"] == 23
    assert d["size_two_blocks"] == 1
    assert d["image_on_beta_line"] is True
    assert d["primitive_columns_killed"] == 22
    assert d["ambient_kernel_dim_t0"] == 2
    assert d["beta_in_kernel"] is True
    assert d["alpha_has_nonzero_image"] is True


# ---------------------------------------------------------------------------
# oracle: generic Q(q) elimination on the whole 28 dimensional operator
# ---------------------------------------------------------------------------


def poly_to_ratfunc(p):
    """A polynomial in q alone as an element of Q(q)."""
    i = p.ctx.index["q"]
    coeffs = [Fraction(0)] * (p.max_power("q") + 1)
    for exp, c in p.terms.items():
        assert not any(e for j, e in enumerate(exp) if j != i)
        coeffs[exp[i]] += c
    return RatFunc(coeffs)


def ratfunc_matrix(m):
    return m.map(poly_to_ratfunc)


def _lcm(a, b):
    return poly_exact_div(a * b, poly_gcd(a, b))


def column_to_polys(order0, order1, plain):
    """One Q(q) basis column cleared of denominators, over Q[q, t]."""
    den = RatFunc.one().den
    for r in list(order0) + list(order1):
        den = _lcm(den, r.den)
    out = []
    for pair in zip(order0, order1):
        terms = {}
        for t, r in enumerate(pair):
            for (k,), c in (r.num * poly_exact_div(den, r.den)).terms.items():
                terms[(k, t)] = c
        out.append(MultiPoly(plain, terms))
    return out


def sympy_expr(p):
    """p as a sympy expression in symbols named after its variables."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(p.ctx.names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([g ** e for g, e in zip(gens, exp)])
                for exp, c in p.terms.items()), sympy.Integer(0))


def sympy_rank(m):
    """Rank over Q(q, t) of a matrix of polynomials in q and t, taken by
    sympy's `DomainMatrix`."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    domain = sympy.QQ.frac_field(*sympy.symbols("q t"))
    rows = [[domain.from_sympy(sympy_expr(x)) for x in row] for row in m.rows]
    return DomainMatrix(rows, (m.nrows, m.ncols), domain).rank()


def sympy_squarefree_profile(p, var):
    """{multiplicity: degree} of the squarefree decomposition of p, a
    polynomial in q and var, in var over Q(q), computed by sympy."""
    sympy = pytest.importorskip("sympy")
    expr = sympy_expr(p)
    domain = sympy.QQ.frac_field(sympy.Symbol("q"))
    _, factors = sympy.Poly(expr, sympy.Symbol(var), domain=domain).sqf_list()
    return {mult: f.degree() for f, mult in factors}


def _drop_rows(m, rows):
    keep = [i for i in range(m.nrows) if i not in set(rows)]
    return Matrix([m.rows[i] for i in keep])


def full_atom_statistics(op, model):
    """Jordan data of -4qt by elimination on all 28 classes at once.

    Assumes nothing about the block structure: E is the order zero
    kernel of (K - lambda)^2 over Q(q) on the full operator, lifted to
    first order, and every overlap is a rank over Q(q, t), taken by
    sympy so that no rank code is shared with the package.
    """
    assert (op.nrows, op.ncols) == (28, 28)
    tctx = op[0, 0].ctx
    plain = tctx.without_truncation()
    lam = eigenvalue(tctx)
    n = op.nrows
    shifted = Matrix([[op[i, j] - (lam if i == j else tctx.zero())
                       for j in range(n)] for i in range(n)])

    amb = Matrix([[shifted[i, j] for j in range(DIM)] for i in range(DIM)])
    hpoly = char_poly(amb, var="Y")
    low_vanish = (hpoly.coefficient_of("Y", 0).is_zero()
                  and hpoly.coefficient_of("Y", 1).is_zero())
    assert low_vanish
    assert not hpoly.coefficient_of("Y", 2).coefficient_of("t", 0).is_zero()
    multiplicity = 2 + PRIMITIVE_DIM
    y = hpoly.ctx.var("Y")
    cof0 = sum((hpoly.coefficient_of("Y", k).coefficient_of("t", 0)
                * y ** (k - 2) for k in range(2, 7)), hpoly.ctx.zero())
    cofactor_profile = sympy_squarefree_profile(cof0, "Y")

    n0 = shifted.map(lambda e: e.coefficient_of("t", 0))
    n1 = shifted.map(lambda e: e.coefficient_of("t", 1))
    sq_rf = ratfunc_matrix(matmul(n0, n0))
    cross_rf = ratfunc_matrix(mat_add(matmul(n0, n1), matmul(n1, n0)))
    columns = []
    for e in nullspace_field(sq_rf, RatFunc.one()):
        f = solve_field(sq_rf, [-x for x in matvec(cross_rf, e)])
        assert f is not None
        columns.append(column_to_polys(e, f, plain))

    images = []
    for col in columns:
        w = matvec(shifted, [c.substitute({}, tctx) for c in col])
        assert all(c.is_zero() for c in matvec(shifted, w))
        images.append([c.substitute({}, plain) for c in w])

    basis = _columns_matrix(columns)
    e_dim = sympy_rank(basis)
    image_mat = _columns_matrix(images)
    gamma = sympy_rank(image_mat)
    image_in_ambient = all(image_mat[i, j].is_zero()
                           for i in range(DIM, n)
                           for j in range(image_mat.ncols))
    alpha, beta = jordan_pair(tctx)
    beta_full = ([b.coefficient_of("t", 0).substitute({}, plain)
                  for b in beta] + [plain.zero()] * PRIMITIVE_DIM)
    on_beta_line = True
    for j in range(image_mat.ncols):
        col = image_mat.col(j)
        if all(c.is_zero() for c in col):
            continue
        span = Matrix([[col[i], beta_full[i]] for i in range(n)])
        if sympy_rank(span) != 1:
            on_beta_line = False
    pad = [tctx.zero()] * PRIMITIVE_DIM
    beta_killed = all(c.is_zero() for c in matvec(shifted, beta + pad))
    alpha_moves = any(not c.is_zero() for c in matvec(shifted, alpha + pad))
    primitive_killed = sum(
        1 for j in range(len(columns))
        if all(columns[j][i].is_zero() for i in range(DIM))
        and all(image_mat[i, j].is_zero() for i in range(n)))

    rho = e_dim - sympy_rank(_drop_rows(basis, range(DIM)))
    h31_rows = [DIM + i for i, tag in enumerate(model.primitive_tags)
                if tag == (3, 1)]
    nu = (e_dim - sympy_rank(_drop_rows(basis, h31_rows))
          if h31_rows else 0)
    details = {
        "multiplicity": multiplicity,
        "e_dimension": e_dim,
        "kernel_in_e_dimension": e_dim - gamma,
        "size_two_blocks": gamma,
        "image_in_ambient": image_in_ambient,
        "image_on_beta_line": on_beta_line,
        "beta_in_kernel": beta_killed,
        "alpha_has_nonzero_image": alpha_moves,
        "primitive_columns_killed": primitive_killed,
        "ambient_kernel_dim_t0": DIM - sympy_rank(
            Matrix([[n0[i, j] for j in range(DIM)] for i in range(DIM)])),
        "ambient_char_low_coeffs_vanish": low_vanish,
        "cofactor_squarefree_profile_t0": cofactor_profile,
    }
    return AtomStatistics(lam, nu, 0, gamma, rho, details)


TWO_H31 = HodgeModel(((3, 1),) * 2 + ((2, 2),) * 19 + ((1, 3),))


@pytest.mark.parametrize("model", [
    HodgeModel.standard(), HodgeModel.standard().without_h31(), TWO_H31,
], ids=["standard", "without-h31", "two-h31"])
def test_block_route_matches_full_oracle(operator, model):
    full = assemble_full_operator(operator)
    block = atom_statistics(full, model)
    oracle = full_atom_statistics(full, model)
    assert block.lambda0 == oracle.lambda0
    assert ((block.nu, block.nu_prime, block.gamma, block.rho)
            == (oracle.nu, oracle.nu_prime, oracle.gamma, oracle.rho))
    assert block.details == oracle.details
    assert block.nu == model.h31()


def _mutated_full(operator, i, j, delta):
    rows = assemble_full_operator(operator).copy_rows()
    rows[i][j] = rows[i][j] + delta
    return Matrix(rows)


@pytest.mark.parametrize("i, j", [(2, 6), (6, 2), (27, 0), (0, 27)])
def test_atom_statistics_rejects_block_mixing(operator, i, j):
    q = operator[0, 0].ctx.var("q")
    with pytest.raises(ValueError, match="mixes"):
        atom_statistics(_mutated_full(operator, i, j, q), HodgeModel.standard())


@pytest.mark.parametrize("i, j", [(6, 6), (27, 27), (7, 20)])
def test_atom_statistics_rejects_nonscalar_primitive_block(operator, i, j):
    t = operator[0, 0].ctx.var("t")
    with pytest.raises(ValueError, match="primitive block"):
        atom_statistics(_mutated_full(operator, i, j, t),
                        HodgeModel.standard())


def test_atom_statistics_rejects_the_ambient_operator(operator):
    with pytest.raises(ValueError):
        atom_statistics(operator, HodgeModel.standard())


def test_irrationality_criterion(operator):
    model = HodgeModel.standard()
    crit = irrationality_criterion(at_t_zero(operator), model)
    assert crit.satisfied
    assert crit.profile == {1: 4, 2: 1}
    assert crit.max_multiplicity == 2
    assert crit.zero_multiplicity == 2
    assert crit.simple_nonzero == 4
    assert crit.h31 == 1


def test_criterion_controls_fail(operator):
    model = HodgeModel.standard()
    scalar = scalar_matrix(6, Fraction(2))
    flat = irrationality_criterion(scalar, model)
    assert not flat.satisfied
    assert flat.max_multiplicity == 6
    no31 = irrationality_criterion(at_t_zero(operator), model.without_h31())
    assert not no31.satisfied
    assert no31.h31 == 0


def test_criterion_counts_a_simple_zero_apart():
    """diag(0, 1, 1, -2): 0 is a simple root, so it is not among the
    simple nonzero eigenvalues."""
    m = Matrix([[Fraction(int(i == j) * v) for j in range(4)]
                for i, v in enumerate((0, 1, 1, -2))])
    crit = irrationality_criterion(m, HodgeModel.standard())
    assert crit.profile == {1: 2, 2: 1}
    assert crit.zero_multiplicity == 1
    assert crit.simple_nonzero == 1
    assert crit.satisfied
