"""Independent Q(q) oracles, computed with sympy, for what q = 1 reports.

The package never eliminates over Q(q): it reads every rank, kernel,
squarefree profile and Groebner basis at q = 1.  These tests redo each of
those questions over sympy's QQ.frac_field(q) and compare the answers.
"""

import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.orderings import MonomialOrder  # noqa: E402

from gmquantum import cli  # noqa: E402
from gmquantum.certificates import Workspace  # noqa: E402
from gmquantum.deformation import (  # noqa: E402
    HodgeModel, assemble_full_operator, at_t_zero, atom_statistics,
    irrationality_criterion,
)
from gmquantum.groebner import PolyIdeal  # noqa: E402
from gmquantum.linalg import (  # noqa: E402
    RATFUNC_CONTEXT, Matrix, RatFunc, char_poly, poly_gcd, squarefree_profile,
)
from gmquantum.poly import MultiPoly, VarContext  # noqa: E402
from gmquantum.quantum import (  # noqa: E402
    _presentation_ideal, kernel_basis, presentation_relations,
    presentation_report, spectral_report,
)

Q = sympy.Symbol("q")
QQ_Q = sympy.QQ.frac_field(Q)


@pytest.fixture(scope="module")
def ws():
    return Workspace()


def to_sympy(p):
    """A MultiPoly as a sympy expression in symbols of the same names."""
    gens = sympy.symbols(p.ctx.names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([g ** e for g, e in zip(gens, exp)])
                for exp, c in p.terms.items()), sympy.Integer(0))


def sqf_profile(expr, var, domain):
    """{multiplicity: degree} of the squarefree decomposition over domain."""
    _, factors = sympy.Poly(expr, var, domain=domain).sqf_list()
    return {mult: f.degree() for f, mult in factors}


def over_qq_q(m):
    """A matrix of polynomials in q as a DomainMatrix over Q(q)."""
    rows = [[to_sympy(x) for x in row] for row in m.rows]
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(QQ_Q)


def test_spectral_profile_over_qq_q(ws):
    x = sympy.Symbol("X")
    cp = to_sympy(char_poly(ws.ring.h_matrix, var="X"))
    assert sympy.expand(cp - (x ** 6 - 44 * Q * x ** 4
                              - 16 * Q ** 2 * x ** 2)) == 0
    assert sqf_profile(cp, x, QQ_Q) == {1: 4, 2: 1}
    assert spectral_report(ws.ring)["squarefree_profile"] == {1: 4, 2: 1}


def test_h_kernel_over_qq_q(ws):
    rep = kernel_basis(ws.ring)
    null = over_qq_q(ws.ring.h_matrix).nullspace()
    assert null.shape[0] == 2 == rep["dimension"]
    closed = over_qq_q(Matrix([rep["alpha"], rep["beta"]]))
    assert closed.rank() == 2
    assert closed.vstack(null).rank() == 2
    assert rep["independent"] and rep["spans_nullspace"]


def quotient_dimension(gens):
    """dim over Q(q) of Q(q)[s11, h] / (gens); None when infinite."""
    s11, h = sympy.symbols("s11 h")
    basis = sympy.groebner(gens, s11, h, order="grevlex", domain=QQ_Q)
    if not basis.is_zero_dimensional:
        return None
    leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    box = [max(m[i] for m in leads if not m[1 - i]) for i in (0, 1)]
    return sum(1 for a in range(box[0]) for b in range(box[1])
               if not any(a >= m[0] and b >= m[1] for m in leads))


def test_quotient_dimensions_over_qq_q(ws):
    r1, r2, r3 = (to_sympy(p) for p in presentation_relations().values())
    dims = {"all": quotient_dimension([r1, r2, r3]),
            "without R3": quotient_dimension([r1, r2]),
            "without R2": quotient_dimension([r1, r3]),
            "without R1": quotient_dimension([r2, r3])}
    assert dims == {"all": 6, "without R3": 6, "without R2": None,
                    "without R1": 10}
    rep = presentation_report(ws.ring)
    assert rep["quotient_rank"] == dims["all"]
    assert rep["necessity"] == {
        k: "infinite" if v is None else v for k, v in dims.items()
        if k != "all"}


class WeightedGrevlex(MonomialOrder):
    """Grevlex graded by the variables' weights: the package's order."""

    alias = "wgrevlex"
    is_global = True

    def __init__(self, weights):
        self.weights = tuple(weights)

    def __call__(self, monomial):
        return (sum(w * e for w, e in zip(self.weights, monomial)),
                tuple(-e for e in reversed(monomial)))

    def __eq__(self, other):
        return (isinstance(other, WeightedGrevlex)
                and other.weights == self.weights)

    def __hash__(self):
        return hash((WeightedGrevlex, self.weights))


def test_groebner_basis_over_qq_q():
    """The reduced basis of (R1, R2, R3) over Q(q), deg s11 = 2, deg h = 1,
    has the package's leading terms and is the package's basis at q = 1."""
    s11, h = sympy.symbols("s11 h")
    order = WeightedGrevlex((2, 1))
    rels = [to_sympy(p) for p in presentation_relations().values()]
    basis = sympy.groebner(rels, s11, h, order=order, domain=QQ_Q)
    polys = sorted(basis.polys, key=lambda p: order(p.monoms(order=order)[0]))
    assert [p.monoms(order=order)[0] for p in polys] == [(1, 1), (2, 0),
                                                         (0, 5)]
    ideal = PolyIdeal(_presentation_ideal())
    assert ideal.leading_exponents() == [(1, 1), (2, 0), (0, 5)]
    assert [sympy.expand(p.as_expr().subs(Q, 1)) for p in polys] == \
        [sympy.expand(to_sympy(g)) for g in ideal.basis]


def test_criterion_and_cofactor_profiles_over_qq_q(ws):
    x = sympy.Symbol("X")
    m0 = at_t_zero(ws.operator)
    cp = to_sympy(char_poly(m0, var="X"))
    crit = irrationality_criterion(m0, HodgeModel.standard())
    assert sqf_profile(cp, x, QQ_Q) == crit.profile == {1: 4, 2: 1}
    # at t = 0 the eigenvalue -4qt is 0, so the shifted characteristic
    # polynomial is cp itself; its Y^0 and Y^1 coefficients vanish
    cofactor = sympy.Poly(cp, x).exquo(sympy.Poly(x ** 2, x)).as_expr()
    stats = atom_statistics(assemble_full_operator(ws.operator),
                            ws.model)
    assert (sqf_profile(cofactor, x, QQ_Q)
            == stats.details["cofactor_squarefree_profile_t0"] == {1: 4})


# ---------------------------------------------------------------------------
# polynomials in one variable: the squarefree route and Q(x)
# ---------------------------------------------------------------------------

X_ONLY = VarContext(("X",), (1,))
T_AND_X = VarContext(("t", "X"), (-1, 1), nilpotent={"t": 2})
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero = rationals.filter(bool)
# (a, b, c) is a X^2 + b X + c: linear when a = 0
factor = st.tuples(rationals, rationals, rationals).filter(
    lambda f: f[0] or f[1])
products = st.tuples(nonzero, st.integers(0, 3), st.lists(
    st.tuples(factor, st.integers(1, 3)), max_size=3))


def product_poly(ctx, product):
    """c X^k prod f_i^e_i in ctx, from a drawn (c, k, [(f_i, e_i)])."""
    const, k, factors = product
    x = ctx.var("X")
    p = const * x ** k
    for (a, b, c), e in factors:
        p = p * (a * x * x + b * x + c) ** e
    return p


def in_x(p):
    """p, a polynomial in X alone, as a sympy Poly over QQ."""
    i = p.ctx.index["X"]
    return sympy.Poly.from_dict(
        {(e[i],): sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, sympy.Symbol("X"), domain=sympy.QQ)


@settings(max_examples=30, deadline=None)
@given(products, products)
@example((Fraction(3), 0, []), (Fraction(-1, 2), 2, []))
def test_squarefree_profile_and_gcd_match_sympy(first, second):
    a, b = product_poly(X_ONLY, first), product_poly(X_ONLY, second)
    want = {mult: f.degree() for f, mult in in_x(a).sqf_list()[1]}
    assert squarefree_profile(a, "X") == want
    # the criterion's context: t occurs nowhere, t^2 = 0 all the same
    assert squarefree_profile(product_poly(T_AND_X, first), "X") == want
    if a.is_scalar():
        assert want == {}
    assert in_x(poly_gcd(a, b)) == in_x(a).gcd(in_x(b)).monic()


def test_squarefree_profile_refuses_a_second_variable():
    t, x = T_AND_X.var("t"), T_AND_X.var("X")
    with pytest.raises(ValueError, match="not a polynomial in X alone"):
        squarefree_profile(x * x + t, "X")


RATFUNC_PAIRS = (
    (([-1, 0, 1], [2, 1]), ([1, 1], [4, 4, 1])),
    (([3], [0, 2]), ([-1, 1], [0, 0, 1])),
    (([Fraction(1, 2), 0, 3], [1]), ([0, 1, 1], [Fraction(-2, 3), 1])),
    (([0], [1, 1]), ([5, 0, -1], [1, 0, 0, 7])),
)


def ratfunc_to_sympy(r):
    x = sympy.Symbol("x")
    assert r.num.ctx == r.den.ctx == RATFUNC_CONTEXT
    gcd = sympy.gcd(to_sympy(r.num), to_sympy(r.den))
    lead = sympy.Poly(to_sympy(r.den), x).LC()
    assert gcd.is_number and lead == 1, (str(r.num), str(r.den))
    return to_sympy(r.num) / to_sympy(r.den)


@pytest.mark.parametrize("pair", range(len(RATFUNC_PAIRS)))
def test_ratfunc_arithmetic_matches_sympy_cancel(pair):
    (an, ad), (bn, bd) = RATFUNC_PAIRS[pair]
    x = sympy.Symbol("x")

    def expr(coeffs):
        return sum(sympy.Rational(c) * x ** k for k, c in enumerate(coeffs))

    a, b = RatFunc(an, ad), RatFunc(bn, bd)
    sa, sb = expr(an) / expr(ad), expr(bn) / expr(bd)
    results = {"+": (a + b, sa + sb), "-": (a - b, sa - sb),
               "*": (a * b, sa * sb)}
    if b:
        results["/"] = (a / b, sa / sb)
    for op, (got, want) in results.items():
        assert sympy.cancel(ratfunc_to_sympy(got) - sympy.cancel(want)) == 0, op


def sparse_matrices():
    """Named sparse matrices: the zero entries the cofactor expansion skips
    must still move the sign of the columns after them."""
    tctx = VarContext(("q", "t"), (2, -1), nilpotent={"t": 2})
    q, t = tctx.var("q"), tctx.var("t")
    f = Fraction
    jordan = [[f(int(j == i + 1)) for j in range(5)] for i in range(5)]
    return {
        "permutation": [[f(int(j == (2 * i + 1) % 5)) for j in range(5)]
                        for i in range(5)],
        "nilpotent jordan block": jordan,
        "zero row": [[f(0)] * 4] + [[f(i + 2), f(i - 2), f(0), f(2 * i)]
                                    for i in range(1, 4)],
        "zero column": [[f(0), f(i), f(i * i), f(1 - i)] for i in range(4)],
        "repeated diagonal": [[f(3) if i == j else f(int(j == i + 2))
                               for j in range(6)] for i in range(6)],
        "t^2 = 0 entries": [[q, t, tctx.zero(), q * t],
                            [tctx.zero(), tctx.zero(), 1 + t, tctx.zero()],
                            [t, tctx.zero(), tctx.zero(), q],
                            [tctx.zero(), q + t, tctx.zero(), tctx.zero()]],
    }


def truncated_in_t(expr):
    """expr modulo t^2."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(sympy.expand(expr), t)
    return poly.coeff_monomial(1) + t * poly.coeff_monomial(t)


@pytest.mark.parametrize("name", sorted(sparse_matrices()))
def test_char_poly_of_sparse_matrices_matches_sympy(name):
    rows = sparse_matrices()[name]
    x = sympy.Symbol("X")
    want = sympy.Matrix([[to_sympy(e) if isinstance(e, MultiPoly)
                          else sympy.Rational(e.numerator, e.denominator)
                          for e in row] for row in rows]).charpoly(x).as_expr()
    got = to_sympy(char_poly(Matrix(rows), var="X"))
    if name == "t^2 = 0 entries":
        want = truncated_in_t(want)
    assert sympy.expand(got - want) == 0, name


# ---------------------------------------------------------------------------
# --at against sympy over Q
# ---------------------------------------------------------------------------


Q_VALUES = st.one_of(
    st.just("0"),
    st.fractions().map(str),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 40)).map(str),
    st.integers(4301, 6000).map(lambda n: "-" + "7" * n),
)


def run_at(ws, command, spec):
    """(exit code, stdout, stderr) of `command --at spec` on ws."""
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--format", "json", "--no-timestamp"]
    if spec is not None:
        argv += ["--at", spec]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "Workspace", lambda: ws):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=1000)
@given(Q_VALUES)
def test_criterion_at_matches_sympy(ws, value):
    code, out, err = run_at(ws, "criterion", "q=" + value)
    if code == 2:
        assert err.startswith("error: --at "), err
        return
    assert code == 0, err
    qval = sympy.Rational(value)
    m0 = at_t_zero(ws.operator)
    numeric = sympy.Matrix([[to_sympy(e).subs({"q": qval, "t": 0})
                             for e in row] for row in m0.rows])
    x = sympy.Symbol("X")
    want = sqf_profile(numeric.charpoly(x).as_expr(), x, sympy.QQ)
    got = json.loads(out)["at_report"]["profile"]
    assert got == {str(k): v for k, v in sorted(want.items())}


@pytest.fixture(scope="module")
def unspecialized(ws):
    """Each command's payload without --at, its strings read by sympy."""
    payloads = {}
    for command in ("matrix", "table", "deform"):
        code, out, err = run_at(ws, command, None)
        assert code == 0, err
        payload = json.loads(out)
        computed = {c["claim"]: c["computed"] for c in payload["certificates"]}
        payloads[command] = (payload["summary"], computed)
    summary, computed = payloads["matrix"]
    table, _ = payloads["table"]
    summary_d, computed_d = payloads["deform"]
    return {
        "h_matrix": sympy.Matrix(computed["matrix.h-action"]),
        "char_poly": sympy.sympify(summary["char_poly"]),
        "table": {key.replace(" ", ""): sympy.sympify(value)
                  for key, value in table.items() if " * " in key},
        "operator": sympy.Matrix(computed_d["deform.operator"]),
        "eigenvalue": sympy.sympify(summary_d["eigenvalue"]),
    }


def specialized(ws, command, values):
    """The at_report of `command --at values`, or None after an --at error."""
    spec = ",".join("%s=%s" % kv for kv in values.items())
    code, out, err = run_at(ws, command, spec)
    if code == 2:
        assert err.startswith("error: --at "), err
        return None
    assert code == 0, err
    return json.loads(out)["at_report"]


@settings(max_examples=25, deadline=1000)
@given(Q_VALUES)
@example("0")
def test_matrix_at_matches_sympy(ws, unspecialized, value):
    rep = specialized(ws, "matrix", {"q": value})
    if rep is None:
        return
    qval = sympy.Rational(value)
    want = unspecialized["h_matrix"].subs(Q, qval)
    assert sympy.Matrix(rep["matrix"]) == want
    # X^6 + c4 X^4 + c2 X^2 with T = X^2 is T (T^2 + c4 T + c2)
    x, t_sq = sympy.symbols("X T")
    cp = sympy.Poly(unspecialized["char_poly"].subs(Q, qval), x)
    quadratic = t_sq ** 2 + cp.coeff_monomial(x ** 4) * t_sq \
        + cp.coeff_monomial(x ** 2)
    assert sympy.expand(sympy.sympify(rep["eigenvalue_square_equation"])
                        - quadratic) == 0
    if qval == 0:
        assert rep["eigenvalue_squares"] == ["0 (double root)"]
        assert rep["roots_verified"] is False
        assert "degenerate" in rep["note"]
        assert quadratic == t_sq ** 2
        return
    roots = [sympy.sympify(r) for r in rep["eigenvalue_squares"]]
    assert set(roots) == set(sympy.roots(quadratic, t_sq))
    assert len(roots) == 2 and rep["roots_verified"] is True
    assert "note" not in rep


@settings(max_examples=25, deadline=1000)
@given(Q_VALUES)
def test_table_at_matches_sympy(ws, unspecialized, value):
    rep = specialized(ws, "table", {"q": value})
    if rep is None:
        return
    qval = sympy.Rational(value)
    want = {key: expr.subs(Q, qval)
            for key, expr in unspecialized["table"].items()}
    got = {key: sympy.sympify(vec) for key, vec in rep["products"].items()}
    assert got.keys() == want.keys()
    assert all(sympy.expand(got[k] - want[k]) == 0 for k in want)


@settings(max_examples=25, deadline=1000)
@given(Q_VALUES, Q_VALUES)
@example("0", "0")
def test_deform_at_matches_sympy(ws, unspecialized, qvalue, tvalue):
    rep = specialized(ws, "deform", {"q": qvalue, "t": tvalue})
    if rep is None:
        return
    point = {Q: sympy.Rational(qvalue), sympy.Symbol("t"): sympy.Rational(tvalue)}
    assert sympy.Matrix(rep["matrix"]) == unspecialized["operator"].subs(point)
    assert sympy.Rational(rep["eigenvalue"]) == \
        unspecialized["eigenvalue"].subs(point)
