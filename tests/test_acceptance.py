"""Ten gate checks over the whole pipeline, one printed line each.

Each test prints exactly one line, ACCEPTANCE n: PASS or FAIL with a
short detail, and then asserts.  Run pytest with -s (or check captured
output) to read the lines.
"""

import random

import pytest

from gmquantum.ambient import BASIS_NAMES
from gmquantum.certificates import Workspace
from gmquantum.deformation import (
    HodgeModel, at_t_zero, build_deformed_matrix, irrationality_criterion,
    verify_jordan_pair,
)
from gmquantum.gwcounts import CountSet, all_reports, derive_j11
from gmquantum.quantum import (
    associativity_failures, classical_limit_failures, degree_two_closed_form,
    frobenius_failures, kernel_basis, presentation_report, spectral_report,
)
from gmquantum.towers import (
    Dual, ProjBase, Sym2, TautSub, Tower, Trivial, bundle_sum, chern_of,
    line_bundle, twist,
)
from schubert_oracle import Grassmannian2
from test_quantum import reference_random_identity_failures

WS = Workspace()


def report(n, ok, detail):
    print("ACCEPTANCE %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok


def test_criterion_01_geometric_counts():
    reps = all_reports()
    want = {"I11": 6, "I12": 10, "I13": 6, "I2": 12, "J12": 12}
    got = {k: reps[k].value for k in want}
    report(1, got == want,
           "geometric counts " + " ".join(
               "%s=%s" % (k, got[k]) for k in ("I11", "I12", "I13",
                                               "I2", "J12")))


def test_criterion_02_derived_counts():
    counts = CountSet.from_geometry()
    direct = derive_j11(counts.I11, counts.I13, counts.J12).value
    solved = WS.solve
    closed = degree_two_closed_form(counts, solved.j11)
    ok = (direct == 24 and (solved.j11, solved.j2) == (24, 32)
          and closed == 32)
    report(2, ok, "J11=24 and J2=32 on all three routes (identity,"
           " associativity solve, closed formula)")


def test_criterion_03_matrix_and_spectrum():
    sr = spectral_report(WS.ring)
    a, b = sr["quadratic_at_q1"]
    rows = tuple(tuple(str(e) for e in row) for row in WS.ring.h_matrix.rows)
    expected_rows = (
        ("0", "6*q", "0", "0", "24*q^2", "0"),
        ("1", "0", "10*q", "6*q", "0", "24*q^2"),
        ("0", "1", "0", "0", "4*q", "0"),
        ("0", "1", "0", "0", "2*q", "0"),
        ("0", "0", "3", "2", "0", "6*q"),
        ("0", "0", "0", "0", "1", "0"),
    )
    ok = (rows == expected_rows
          and str(sr["char_poly"]) == "-16*q^2*X^2 - 44*q*X^4 + X^6"
          and sr["kernel"]["dimension"] == 2
          and a * a - 4 * b == 2000
          and b == -16)
    report(3, ok, "h action matrix frozen, char poly X^6 - 44q X^4 -"
           " 16q^2 X^2, kernel rank 2, T^2 - 44T - 16 squarefree with"
           " nonzero constant term")


TEN_PRODUCTS = {
    ("s2", "s2"): "80*q^2*s0 + 8*q*s2 + 12*q*s11 + 2*s31",
    ("s2", "s11"): "52*q^2*s0 + 8*q*s2 + 4*q*s11 + s31",
    ("s11", "s11"): "32*q^2*s0 + 6*q*s2 + s31",
    ("s2", "s3"): "60*q^2*s1 + 10*q*s3",
    ("s11", "s3"): "40*q^2*s1 + 6*q*s3",
    ("s3", "s3"): "120*q^3*s0 + 20*q^2*s2 + 20*q^2*s11",
    ("s2", "s31"): "176*q^3*s0 + 28*q^2*s2 + 24*q^2*s11",
    ("s11", "s31"): "112*q^3*s0 + 20*q^2*s2 + 12*q^2*s11",
    ("s3", "s31"): "120*q^3*s1 + 24*q^2*s3",
    ("s31", "s31"): "368*q^4*s0 + 64*q^3*s2 + 48*q^3*s11",
}


def test_criterion_04_table_and_axioms():
    ring = WS.ring
    index = {name: i for i, name in enumerate(BASIS_NAMES)}
    shown = all(
        ring.format(ring.table[tuple(sorted((index[a], index[b])))]) == rhs
        for (a, b), rhs in TEN_PRODUCTS.items())
    # every associator: each sorted triple, and a second one for each
    # triple of distinct classes
    triples = sum(1 for i in range(6) for j in range(i, 6)
                  for k in range(j, 6)) + sum(
        1 for i in range(6) for j in range(i + 1, 6) for k in range(j + 1, 6))
    ok = (shown and triples == 76
          and associativity_failures(ring) == []
          and frobenius_failures(ring) == []
          and classical_limit_failures(ring) == [])
    report(4, ok, "ten completed products verbatim, associativity on 76"
           " associators, Frobenius symmetry, classical limit at q=0")


def test_criterion_05_presentation():
    rep = presentation_report(WS.ring)
    nec = rep["necessity"]
    true_clauses = (
        rep["relations_vanish"] == {"R1": True, "R2": True, "R3": True}
        and rep["monomial_basis_ok"] and rep["quotient_rank"] == 6
        and rep["minimal_polynomial_ok"]
        and nec["without R1"] == 10 and nec["without R2"] == "infinite")
    report(5, true_clauses,
           "relations vanish, monomial basis of rank 6, matrix minimal"
           " polynomial; dropping R1 or R2 changes the quotient, while"
           " R3 is implied by R1 and R2 (see the xfail companion test)")


@pytest.mark.xfail(
    strict=True,
    reason="R3 = (5*s11 + 2*h^2 + 6*q)*R1 - 5*h*R2, so dropping R3"
           " keeps the quotient rank at 6; the universal form of the"
           " necessity clause is not satisfiable")
def test_unsatisfiable_universal_necessity_clause():
    nec = presentation_report(WS.ring)["necessity"]

    def above_six(v):
        return v == "infinite" or (isinstance(v, int) and v > 6)

    assert all(above_six(v) for v in nec.values())


def test_criterion_06_kernel():
    rep = kernel_basis(WS.ring)
    alpha = [str(e) for e in rep["alpha"]]
    beta = [str(e) for e in rep["beta"]]
    ok = (rep["dimension"] == 2 and rep["spans_nullspace"]
          and alpha == ["-2*q", "0", "2", "-3", "0", "0"]
          and beta == ["-4*q^2", "0", "-2*q", "0", "0", "1"])
    report(6, ok, "kernel is spanned by 2 s2 - 3 s11 - 2q and"
           " s31 - 2q s2 - 4q^2 over Q(q)")


def test_criterion_07_deformation():
    op = WS.operator
    expected = (
        ("0", "12*q", "240*q^2*t", "156*q^2*t", "48*q^2", "880*q^3*t"),
        ("2", "10*q*t", "20*q", "12*q", "180*q^2*t", "48*q^2"),
        ("-t", "2", "8*q*t", "8*q*t", "8*q", "84*q^2*t"),
        ("0", "2", "12*q*t", "4*q*t", "4*q", "72*q^2*t"),
        ("0", "-3*t", "6", "4", "10*q*t", "12*q"),
        ("0", "0", "-2*t", "-t", "2", "0"),
    )
    rows = tuple(tuple(str(op[i, j]) for j in range(6))
                 for i in range(6))
    pair = verify_jordan_pair(op)
    ok = rows == expected and pair.ok
    report(7, ok, "deformed operator matches the first order matrix and"
           " K alpha = -4qt alpha - t beta(t), K beta = -4qt beta(t)"
           " hold exactly mod t^2")


def test_criterion_08_atom_statistics():
    stats = WS.statistics
    d = stats.details
    ok = ((stats.nu, stats.nu_prime, stats.gamma, stats.rho) == (1, 0, 1, 2)
          and d["multiplicity"] == 24 and d["e_dimension"] == 24
          and d["size_two_blocks"] == 1 and d["image_in_ambient"]
          and d["image_on_beta_line"])
    report(8, ok, "lambda0 = -4qt has a 24 dimensional generalized"
           " eigenspace, (nu, nu', gamma, rho) = (1, 0, 1, 2), one"
           " ambient Jordan block of size two with image on the beta"
           " line")


def test_criterion_09_irrationality_flag():
    op = build_deformed_matrix(WS.ring)
    crit = irrationality_criterion(at_t_zero(op), HodgeModel.standard())
    ok = (crit.satisfied and crit.profile == {1: 4, 2: 1}
          and crit.zero_multiplicity == 2 and crit.simple_nonzero == 4
          and crit.h31 == 1)
    report(9, ok, "four simple nonzero eigenvalues, zero with"
           " multiplicity two, h31 = 1, criterion satisfied")


def test_criterion_10_oracle_suites():
    # (a) Grassmann bundle over a point against Schubert calculus
    tower = Tower(ProjBase([]),
                  [("grass2", Trivial(4), ("H", "A"))])
    g4 = Grassmannian2(4)
    H, A = tower.var("H"), tower.var("A")
    schubert_ok = True
    for i in range(5):
        for j in range(3):
            if i + 2 * j > 4:
                continue
            cls = g4.power(g4.sigma(1), i)
            for _ in range(j):
                cls = g4.multiply(g4.sigma(1, 1), cls)
            if tower.integrate(H ** i * A ** j) != g4.integrate(cls):
                schubert_ok = False

    # (b) Sym2 against the formal roots oracle
    theta = Tower(ProjBase([("h", 1)]),
                  [("proj", bundle_sum(Trivial(2), line_bundle({"h": -2})),
                    "l")])
    h, l = theta.var("h"), theta.var("l")
    split_ok = True
    for coeffs in ([(1, 0), (0, 1)], [(1, 1), (-1, 0), (0, -1)]):
        roots = [a * h + b * l for a, b in coeffs]
        bundle = bundle_sum(*[line_bundle({"h": a, "l": b})
                              for a, b in coeffs])
        _, c = chern_of(Sym2(bundle), theta)
        oracle = theta.ctx.one()
        for i in range(len(roots)):
            for j in range(i, len(roots)):
                oracle = oracle * (1 + roots[i] + roots[j])
        for k in range(len(c)):
            if c[k] != theta.normal_form(oracle.graded_part(k)):
                split_ok = False
    sigma = Tower(ProjBase([("h", 1)]),
                  [("grass2", bundle_sum(line_bundle({"h": 1}), Trivial(3)),
                    ("H", "al"))])
    pl = Dual(twist(TautSub(0), {"h": -1}))
    _, c2 = chern_of(pl, sigma)
    _, c3 = chern_of(Sym2(pl), sigma)
    split_ok = split_ok and c3[3] == sigma.normal_form(4 * c2[1] * c2[2])

    # (c) duality on G(2, 4) and G(2, 5)
    duality_ok = True
    for n in (4, 5):
        g = Grassmannian2(n)
        w = g.width
        for (a, b) in g.partitions:
            comp = (w - b, w - a)
            val = g.integrate(g.multiply(g.sigma(a, b), g.sigma(*comp)))
            if val != 1:
                duality_ok = False

    # (d) one hundred randomized ring identity samples, seed controlled
    rng = random.Random(20240822)
    random_ok = reference_random_identity_failures(WS.ring, rng, 100) == []

    ok = schubert_ok and split_ok and duality_ok and random_ok
    report(10, ok, "Schubert oracle on G(2,4), splitting principle"
           " oracle for Sym2, duality on G(2,4) and G(2,5),"
           " 100 seeded random ring identity samples")
