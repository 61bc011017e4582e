"""Quantum product table, spectral data, kernel, and presentation."""

import contextlib
import dataclasses
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from gmquantum import certificates, gwcounts, quantum
from gmquantum.ambient import BASIS_NAMES, DIM, AmbientRing
from gmquantum.cli import main
from gmquantum.deformation import build_deformed_matrix
from gmquantum.gwcounts import CountSet
from gmquantum.linalg import Matrix, rref
from gmquantum.poly import MultiPoly, VarContext
from gmquantum.quantum import (
    QuantumRing, associativity_failures, classical_limit_failures,
    degree_two_closed_form, frobenius_failures, grading_failures,
    kernel_basis, perturbed_ring, presentation_relations,
    presentation_report, product_table, quantum_context,
    ring_from_solve, solve_three_point_invariants, spectral_report, squarefree_part,
    standard_ring, star_h_matrix, surd_roots, surd_split,
)

# the full table, frozen as rendered strings; every later claim about
# the product is anchored here
FULL_TABLE = {
    ("s0", "s0"): "s0",
    ("s0", "s1"): "s1",
    ("s0", "s2"): "s2",
    ("s0", "s11"): "s11",
    ("s0", "s3"): "s3",
    ("s0", "s31"): "s31",
    ("s1", "s1"): "6*q*s0 + s2 + s11",
    ("s1", "s2"): "10*q*s1 + 3*s3",
    ("s1", "s11"): "6*q*s1 + 2*s3",
    ("s1", "s3"): "24*q^2*s0 + 4*q*s2 + 2*q*s11 + s31",
    ("s1", "s31"): "24*q^2*s1 + 6*q*s3",
    ("s2", "s2"): "80*q^2*s0 + 8*q*s2 + 12*q*s11 + 2*s31",
    ("s2", "s11"): "52*q^2*s0 + 8*q*s2 + 4*q*s11 + s31",
    ("s2", "s3"): "60*q^2*s1 + 10*q*s3",
    ("s2", "s31"): "176*q^3*s0 + 28*q^2*s2 + 24*q^2*s11",
    ("s11", "s11"): "32*q^2*s0 + 6*q*s2 + s31",
    ("s11", "s3"): "40*q^2*s1 + 6*q*s3",
    ("s11", "s31"): "112*q^3*s0 + 20*q^2*s2 + 12*q^2*s11",
    ("s3", "s3"): "120*q^3*s0 + 20*q^2*s2 + 20*q^2*s11",
    ("s3", "s31"): "120*q^3*s1 + 24*q^2*s3",
    ("s31", "s31"): "368*q^4*s0 + 64*q^3*s2 + 48*q^3*s11",
}

H_MATRIX = (
    ("0", "6*q", "0", "0", "24*q^2", "0"),
    ("1", "0", "10*q", "6*q", "0", "24*q^2"),
    ("0", "1", "0", "0", "4*q", "0"),
    ("0", "1", "0", "0", "2*q", "0"),
    ("0", "0", "3", "2", "0", "6*q"),
    ("0", "0", "0", "0", "1", "0"),
)


@pytest.fixture(scope="module")
def ring():
    return standard_ring()


def test_full_product_table(ring):
    assert len(ring.table) == 21
    for (i, j), vec in ring.table.items():
        key = (BASIS_NAMES[i], BASIS_NAMES[j])
        assert ring.format(vec) == FULL_TABLE[key], key


def test_star_h_matrix_frozen():
    counts = CountSet.from_geometry()
    mat = star_h_matrix(counts, AmbientRing(), quantum_context())
    rendered = tuple(tuple(str(e) for e in row) for row in mat.rows)
    assert rendered == H_MATRIX


def test_unit_and_commutativity(ring):
    one = ring.basis_element("s0")
    for name in BASIS_NAMES:
        x = ring.basis_element(name)
        assert ring.star(one, x) == x
    for a in BASIS_NAMES:
        for b in BASIS_NAMES:
            assert ring.star(ring.basis_element(a), ring.basis_element(b)) \
                == ring.star(ring.basis_element(b), ring.basis_element(a))


def test_structural_scanners_empty(ring):
    assert grading_failures(ring) == []
    assert associativity_failures(ring) == []
    assert frobenius_failures(ring) == []
    assert classical_limit_failures(ring) == []


def shifted_ring(ring, a, b, c, delta):
    """`ring` with `delta` added to the c component of the table's a*b."""
    i, j = sorted((BASIS_NAMES.index(a), BASIS_NAMES.index(b)))
    table = dict(ring.table)
    vec = list(table[(i, j)])
    vec[BASIS_NAMES.index(c)] += delta
    table[(i, j)] = tuple(vec)
    return QuantumRing(ring.amb, table)


def test_grading_scan_names_an_off_degree_component(ring):
    # a degree 0 term where s1*s2 owes its s1 component degree 2
    bad = shifted_ring(ring, "s1", "s2", "s1", ring.ctx.one())
    assert grading_failures(bad) == ["s1*s2 component s1"]


def test_classical_limit_scan_names_a_changed_cup_component(ring):
    # a degree 0 s3 term is in grade but moves the q^0 part of s1*s2
    bad = shifted_ring(ring, "s1", "s2", "s3", ring.ctx.one())
    assert grading_failures(bad) == []
    assert classical_limit_failures(bad) == ["s1*s2 component s3"]


def test_classical_limit_scan_lists_every_component_of_a_product(ring):
    bad = shifted_ring(shifted_ring(ring, "s1", "s2", "s3", ring.ctx.one()),
                       "s1", "s2", "s31", ring.ctx.one())
    assert classical_limit_failures(bad) == ["s1*s2 component s3",
                                             "s1*s2 component s31"]


def test_solver_recovers_both_unknowns():
    counts = CountSet.from_geometry()
    rep = solve_three_point_invariants(counts)
    assert rep.j11 == Fraction(24)
    assert rep.j2 == Fraction(32)
    assert rep.equations == 23
    assert rep.rank == 2
    assert rep.residuals_checked == 21


def test_solver_tracks_its_inputs():
    # the solved values are a function of the two point counts, not
    # constants: shifting an input shifts the output
    counts = CountSet.from_geometry()
    shifted = CountSet(counts.I11, counts.I12, counts.I13 + 1,
                       counts.I2, counts.J11, counts.J12)
    rep = solve_three_point_invariants(shifted)
    assert (rep.j11, rep.j2) == (Fraction(32), Fraction(189, 5))
    rep2 = solve_three_point_invariants(
        dataclasses.replace(counts, J12=counts.J12 + 1))
    assert (rep2.j11, rep2.j2) == (Fraction(23), Fraction(33))
    # the returned ring is the symbolic table specialised at the solution:
    # the table built afresh there, exactly, at the rational J2 too
    for c, r in ((shifted, rep), (rep2.counts, rep2)):
        assert dict(r.ring.table) == product_table(
            c, r.ring.amb, r.j11, r.j2, quantum_context())


def test_degree_two_closed_form_agrees():
    counts = CountSet.from_geometry()
    assert degree_two_closed_form(counts, Fraction(24)) == Fraction(32)
    rep = solve_three_point_invariants(counts)
    assert degree_two_closed_form(counts, rep.j11) == rep.j2


def test_spectral_report(ring):
    rep = spectral_report(ring)
    assert str(rep["char_poly"]) == "-16*q^2*X^2 - 44*q*X^4 + X^6"
    assert rep["only_even_powers"] is True
    assert rep["quadratic_in_Xsq"] == "T^2 + (-44) T + (-16)"
    assert rep["squarefree_profile"] == {1: 4, 2: 1}
    assert rep["kernel"]["dimension"] == 2
    assert rep["roots_at_q1"] == "22 +- 10 sqrt(5)"
    assert rep["roots_verified"] is True
    a, b = rep["quadratic_at_q1"]
    assert (a, b) == (-44, -16)
    assert a * a - 4 * b == Fraction(2000)
    assert rep["surd_at_q1"] == (22, 10, 5)


def test_ring_from_solve_checks_j11(ring):
    counts = CountSet.from_geometry()
    rep = solve_three_point_invariants(counts)
    assert ring_from_solve(counts, rep) is rep.ring
    assert rep.ring.table == ring.table
    wrong = dataclasses.replace(counts, J11=counts.J11 + 1)
    with pytest.raises(ValueError):
        ring_from_solve(wrong, rep)


def test_ring_from_solve_refuses_a_report_of_other_inputs():
    counts = CountSet.from_geometry()
    # solved from shifted counts, or from another J12, the report's ring
    # is not the ring of `counts`, even where the solved J11 agrees
    shifted = dataclasses.replace(counts, I2=counts.I2 + 1)
    other_j12 = solve_three_point_invariants(
        dataclasses.replace(counts, J12=counts.J12 + 1))
    for rep in (solve_three_point_invariants(shifted),
                other_j12, dataclasses.replace(other_j12, j11=counts.J11)):
        with pytest.raises(ValueError, match="other counts"):
            ring_from_solve(counts, rep)


def test_route_residuals_are_not_tautological():
    """In the symbolic ring the route residuals for x = s2, s11 and s31
    are nonzero affine polynomials, so the s2 chain constrains J11 and J2;
    for x = s3 the table stores s3 * s3 through that chain, so the
    residual vanishes by construction."""
    sym = symbolic_ring()
    residuals = quantum._route_residuals(sym, CountSet.from_geometry())
    by_x = {name: residuals[DIM * k:DIM * (k + 1)]
            for k, name in enumerate(("s2", "s11", "s3", "s31"))}
    assert len(residuals) == 4 * DIM
    assert all(p.is_zero() for p in by_x["s3"])
    for name in ("s2", "s11", "s31"):
        nonzero = [p for p in by_x[name] if not p.is_zero()]
        assert nonzero, name
        for p in nonzero:
            assert quantum._affine_split(p, ("uJ11", "uJ2"))
            assert any(p.max_power(u) for u in ("uJ11", "uJ2")), str(p)
    assert "30*q - 5/4*q*uJ11" in [str(p) for p in by_x["s2"]]


def test_solver_refuses_a_residual_that_is_not_affine(monkeypatch):
    # a residual quadratic in an unknown cannot enter the linear system,
    # and dropping it would hide the equation it carries
    routes = quantum._route_residuals
    monkeypatch.setattr(
        quantum, "_route_residuals",
        lambda ring, counts: routes(ring, counts)
        + [ring.ctx.var("uJ11") ** 2])
    with pytest.raises(ValueError, match="not affine"):
        solve_three_point_invariants(CountSet.from_geometry())


def test_solver_refusals_keep_their_order(monkeypatch):
    """The solve tells the three refusals apart: equations that no
    solution satisfies, a rank below 2 (checked first, even when the
    equations also disagree), and no equation."""
    counts = CountSet.from_geometry()
    routes = quantum._route_residuals
    monkeypatch.setattr(
        quantum, "_route_residuals",
        lambda ring, c: routes(ring, c) + [ring.ctx.var("uJ11") - 1000])
    with pytest.raises(ValueError, match="inconsistent associativity"):
        solve_three_point_invariants(counts)
    # the n-th residual becomes uJ11 + n = 0: rank 1, and inconsistent
    split = []

    def only_j11(p, unknowns):
        split.append(p)
        return {0: [Fraction(len(split)), Fraction(1), Fraction(0)]}

    monkeypatch.setattr(quantum, "_affine_split", only_j11)
    with pytest.raises(ValueError, match="does not pin both unknowns"):
        solve_three_point_invariants(counts)
    assert len(split) > 2
    monkeypatch.setattr(quantum, "_affine_split", lambda p, unknowns: {})
    with pytest.raises(ValueError, match="no usable equations"):
        solve_three_point_invariants(counts)


@pytest.fixture(scope="module")
def live_rows():
    """The integer rows (a, b, c), a J11 + b J2 + c = 0, that the solver
    hands to its elimination for the geometric counts."""
    rows = []
    solve = quantum._solve_affine_pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantum, "_solve_affine_pair",
                   lambda r: rows.extend(r) or solve(r))
        solve_three_point_invariants(CountSet.from_geometry())
    return rows


def test_integer_solve_agrees_with_rref(live_rows):
    assert len(live_rows) == 23
    assert all(type(x) is int for row in live_rows for x in row)
    red, pivots = rref(Matrix([[Fraction(a), Fraction(b), Fraction(-c)]
                               for a, b, c in live_rows]))
    assert pivots == [0, 1]
    assert quantum._solve_affine_pair(live_rows) == (
        red.rows[0][2], red.rows[1][2]) == (24, 32)


def test_integer_solve_refuses_a_rank_one_system():
    rows = [(3 * k, 5 * k, -7 * k) for k in (1, -2, 4)]
    with pytest.raises(ValueError, match="does not pin both unknowns"):
        quantum._solve_affine_pair(rows)
    # rank 1 is refused before any disagreement, and rows without an
    # unknown add no rank
    rows += [(6, 10, 1), (0, 0, 0), (0, 0, 9)]
    with pytest.raises(ValueError, match="does not pin both unknowns"):
        quantum._solve_affine_pair(rows)
    with pytest.raises(ValueError, match="does not pin both unknowns"):
        quantum._solve_affine_pair([(0, 0, 0), (0, 0, 5)])


def test_integer_solve_refuses_one_shifted_constant(live_rows):
    for n in range(len(live_rows)):
        rows = list(live_rows)
        a, b, c = rows[n]
        rows[n] = (a, b, c + 1)
        with pytest.raises(ValueError, match="inconsistent associativity"):
            quantum._solve_affine_pair(rows)


def test_integer_solve_refuses_an_empty_system():
    with pytest.raises(ValueError, match="no usable equations"):
        quantum._solve_affine_pair([])


def test_associativity_is_scanned_once_per_ring(monkeypatch, ring):
    """The associativity and Frobenius scans each compose the ring's
    structure constants on the first call only; every call returns a
    copy of the failures.  The commutativity scan is stored alike."""
    passes = []
    sides = quantum._table_sides
    monkeypatch.setattr(quantum, "_table_sides", lambda r, ijk, tensor: (
        passes.append((r, tensor)) or sides(r, ijk, tensor)))
    broken = perturbed_ring(ring)
    for scan in (associativity_failures, frobenius_failures):
        first = scan(broken)
        assert first and scan(broken) == first
        # the stored result cannot be edited through a copy
        first.clear()
        assert scan(broken) != []
    assert passes == [(broken, broken._product_tensor),
                      (broken, broken._gram_tensor)]
    assert quantum.commutativity_failures(broken) == []
    assert sorted(broken._scans) == [
        "associativity", "commutativity", "frobenius"]


def test_workspace_ring_reuses_counts_and_solve(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((certificates, "all_reports"),
                         (gwcounts, "all_reports"),
                         (certificates, "solve_three_point_invariants"),
                         (quantum, "solve_three_point_invariants")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    ring = certificates.Workspace().ring
    assert calls == ["all_reports", "solve_three_point_invariants"]
    assert ring.table == standard_ring().table


@pytest.mark.parametrize("n, split", [
    (1, (1, 1)), (2, (1, 2)), (4, (2, 1)), (8, (2, 2)), (2000, (20, 5)),
    (3 * 3 * 7 * 7 * 11, (21, 11)), (101 * 103, (1, 101 * 103)),
    (101 ** 2 * 6, (101, 6)), (10 ** 12 + 39, (1, 10 ** 12 + 39)),
])
def test_squarefree_part(n, split):
    s, d = squarefree_part(n)
    assert (s, d) == split
    assert s * s * d == n


def test_squarefree_part_rejects_non_positive():
    for n in (0, -5):
        with pytest.raises(ValueError):
            squarefree_part(n)


def _surd_roots(a: Fraction, b: Fraction):
    return surd_roots(a, b, surd_split(a, b))


def test_surd_roots():
    assert _surd_roots(Fraction(-44), Fraction(-16)) == ("22 +- 10 sqrt(5)",
                                                         True)
    # disc = 1/9 + 4/7 = 43/63, sqrt = sqrt(301)/21
    assert _surd_roots(Fraction(1, 3), Fraction(-1, 7)) == \
        ("-1/6 +- 1/42 sqrt(301)", True)


@pytest.mark.parametrize("a, b, phrase", [
    (0, 1, "-4 <= 0"), (-4, 4, "0 <= 0"),
    (-5, 6, "the roots 5/2 +- 1/2 are rational"),
])
def test_surd_roots_degenerate_note(monkeypatch, ring, a, b, phrase):
    note, ok = _surd_roots(Fraction(a), Fraction(b))
    assert note.startswith("no surd pair") and phrase in note
    assert ok is False
    # a spectrum with this quadratic at q = 1 stores no surd pair, and
    # its roots_at_q1 is the note
    cp1 = MultiPoly(VarContext(("X",), (1,)), {(6,): 1, (4,): a, (2,): b})
    monkeypatch.setattr(quantum, "at_q_one", lambda *args: cp1)
    rep = spectral_report(ring)
    assert rep["quadratic_at_q1"] == (a, b)
    assert (rep["roots_at_q1"], rep["surd_at_q1"]) == (note, None)


def test_kernel_basis_exact(ring):
    rep = kernel_basis(ring)
    assert rep["dimension"] == 2
    assert rep["independent"] and rep["killed"] and rep["spans_nullspace"]
    alpha = [str(e) for e in rep["alpha"]]
    beta = [str(e) for e in rep["beta"]]
    # alpha = 2 s2 - 3 s11 - 2q s0, beta = s31 - 2q s2 - 4q^2 s0
    assert alpha == ["-2*q", "0", "2", "-3", "0", "0"]
    assert beta == ["-4*q^2", "0", "-2*q", "0", "0", "1"]
    for vec in (rep["alpha"], rep["beta"]):
        image = ring.star_h(list(vec))
        assert all(e.is_zero() for e in image)


def test_kernel_basis_detects_a_moved_nullspace(ring):
    # h * s2 gains an s3 term: the pair is no longer killed, and the
    # nullspace, still two dimensional, leaves span(alpha, beta)
    rep = kernel_basis(shifted_ring(ring, "s1", "s2", "s3", ring.ctx.one()))
    assert (rep["killed"], rep["independent"], rep["dimension"],
            rep["spans_nullspace"]) == (False, True, 2, False)


def test_presentation_report(ring):
    rep = presentation_report(ring)
    assert rep["relations_vanish"] == {"R1": True, "R2": True, "R3": True}
    assert rep["monomial_basis_ok"] is True
    assert rep["quotient_rank"] == 6
    assert rep["word_map_bijective"] is True
    assert rep["word_map_multiplicative"] is True
    assert rep["minimal_polynomial_ok"] is True
    assert rep["standard_monomials"] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0)]
    assert rep["necessity"] == {
        "without R1": 10, "without R2": "infinite", "without R3": 6}
    assert rep["r3_dependence_residual"].is_zero()


def test_presentation_checks_fail_on_a_shifted_h_column(ring):
    """Shifting s1*s3 by q^2 s0 changes the h-matrix M and the product, so
    R3(M) no longer vanishes and the word map stops being multiplicative;
    the shift keeps every entry homogeneous, so no guard refuses it."""
    s1, s3 = BASIS_NAMES.index("s1"), BASIS_NAMES.index("s3")
    table = dict(ring.table)
    entry = list(table[(s1, s3)])
    entry[0] = entry[0] + ring.ctx.var("q") ** 2
    table[(s1, s3)] = tuple(entry)
    rep = presentation_report(QuantumRing(ring.amb, table))
    assert rep["minimal_polynomial_ok"] is False
    assert rep["word_map_multiplicative"] is False
    assert presentation_report(ring)["minimal_polynomial_ok"] is True


def test_presentation_builds_its_relations_once(monkeypatch, ring):
    """A presentation report builds R1-R3 once, and the dependence
    certificate reads R3's cofactor residual from the report."""
    calls = []
    build = quantum.presentation_relations
    monkeypatch.setattr(quantum, "presentation_relations",
                        lambda: calls.append(1) or build())
    ws = certificates.Workspace()
    ws._cache["ring"] = ring
    certs = {c.claim: c for c in certificates.presentation_certificates(ws)}
    assert len(calls) == 1
    dep = certs["presentation.dependence.R3"]
    assert (dep.status, dep.computed) == (certificates.VERIFIED, "0")
    ws._cache["presentation"] = dict(
        ws.presentation, r3_dependence_residual=build()["R1"])
    certs = {c.claim: c for c in certificates.presentation_certificates(ws)}
    assert certs["presentation.dependence.R3"].status == certificates.FAILED


def test_r3_is_a_consequence_of_r1_r2():
    # R3 = (5 s11 + 2 h^2 + 6 q) R1 - 5 h R2 in the free graded ring
    ctx = VarContext(("q", "s11", "h"), (2, 2, 1))
    qv, sv, hv = ctx.var("q"), ctx.var("s11"), ctx.var("h")
    r1 = 5 * hv * sv - 2 * hv ** 3 + 14 * qv * hv
    r2 = (5 * sv ** 2 + 20 * qv * sv - hv ** 4 + 12 * qv * hv ** 2
          + 20 * qv ** 2)
    r3 = hv ** 5 - 44 * qv * hv ** 3 - 16 * qv ** 2 * hv
    combo = (5 * sv + 2 * hv ** 2 + 6 * qv) * r1 - 5 * hv * r2
    assert r3 - combo == ctx.zero()
    # the one definition every presentation check reads
    assert presentation_relations() == {"R1": r1, "R2": r2, "R3": r3}


def test_perturbed_ring_breaks_only_associativity(ring):
    bad = perturbed_ring(ring)
    assert associativity_failures(bad) != []
    assert classical_limit_failures(bad) == []


def test_table_is_read_only(ring):
    with pytest.raises(TypeError):
        ring.table[(0, 0)] = ring.basis_element("s1")


# ---------------------------------------------------------------------------
# the structure-constant engine against the slot-by-slot product
# ---------------------------------------------------------------------------


def reference_star(ring, x, y):
    """x * y one table entry at a time, with MultiPoly arithmetic."""
    out = list(ring.zero())
    for i in range(DIM):
        if x[i].is_zero():
            continue
        for j in range(DIM):
            if y[j].is_zero():
                continue
            entry = ring.table[(min(i, j), max(i, j))]
            coeff = x[i] * y[j]
            for k in range(DIM):
                out[k] = out[k] + coeff * entry[k]
    return tuple(out)


def reference_pairing(ring, x, y):
    """<x, y> one Gram entry at a time, with MultiPoly arithmetic."""
    gram = ring.amb.gram()
    out = ring.ctx.zero()
    for i in range(DIM):
        if x[i].is_zero():
            continue
        for j in range(DIM):
            g = gram.rows[i][j]
            if not g or y[j].is_zero():
                continue
            out = out + x[i] * y[j] * g
    return out


def symbolic_ring():
    """The solver's ring: uJ11 and uJ2 stand in for J11 and J2."""
    counts = CountSet.from_geometry()
    ctx = quantum_context(("uJ11", "uJ2"))
    amb = AmbientRing()
    return QuantumRing(amb, product_table(counts, amb, ctx.var("uJ11"),
                                          ctx.var("uJ2"), ctx))


RINGS = {
    "standard": standard_ring,
    "symbolic": symbolic_ring,
    "perturbed": lambda: perturbed_ring(standard_ring()),
}


def draw_coefficient(rng, kind):
    if kind == "long":
        return Fraction(rng.randrange(-10 ** 24, 10 ** 24),
                        rng.randrange(10 ** 11, 10 ** 12))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def draw_element(ring, rng, kind):
    """A vector of the given kind; "poly" slots are polynomials in every
    variable of the ring's context."""
    ctx = ring.ctx
    if kind == "zero":
        return ring.zero()
    if kind == "sparse":
        slots = rng.sample(range(DIM), rng.randint(1, 2))
        return tuple(ctx.scalar(draw_coefficient(rng, "small")) if k in slots
                     else ctx.zero() for k in range(DIM))
    if kind == "poly":
        return tuple(MultiPoly(ctx, {
            tuple(rng.randint(0, 2) for _ in ctx.names):
                draw_coefficient(rng, "small") for _ in range(3)})
            for _ in range(DIM))
    return tuple(ctx.scalar(draw_coefficient(rng, kind)) for _ in range(DIM))


ELEMENT_KINDS = ("small", "long", "sparse", "zero", "poly")


def plain(p):
    """p as a plain {exponent tuple: Fraction} dict."""
    return dict(p.terms)


def over_larger_denominator(x, m=3):
    """The same vector with every numerator and denominator times m."""
    return tuple(MultiPoly.from_numerators(
        p.ctx, {k: m * n for k, n in p.nums.items()}, m * p.den, p.bound)
        for p in x)


def check_contraction_path(ring, x, y, lam=Fraction(-7, 3)):
    """star, pairing, x + lam y and == against slot-by-slot and plain
    dict references, for one pair of vectors."""
    xy = ring.star(x, y)
    assert xy == reference_star(ring, x, y)
    assert ring.pairing(x, y) == reference_pairing(ring, x, y)
    want = []
    for a, b in zip(x, y):
        terms = plain(a)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) + lam * c
        want.append({e: c for e, c in terms.items() if c})
    assert [plain(a + lam * b) for a, b in zip(x, y)] == want
    # == agrees with the plain terms, on this pair, on each vector against
    # itself, and on the same value over a larger denominator
    assert (x == y) == ([plain(a) for a in x] == [plain(b) for b in y])
    assert (x != y) == ([plain(a) for a in x] != [plain(b) for b in y])
    zero = ring.zero()
    for v in (x, y, xy):
        over = over_larger_denominator(v)
        assert [p.den for p in over] == [3 * p.den for p in v]
        assert over == v and v == over
        assert [hash(p) for p in over] == [hash(p) for p in v]
        assert [str(p) for p in over] == [str(p) for p in v]
        assert (over == zero) == (v == zero) == all(not plain(p) for p in v)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_engine_matches_reference(name):
    ring = RINGS[name]()
    rng = random.Random(name)
    for kx in ELEMENT_KINDS:
        for ky in ELEMENT_KINDS:
            x = draw_element(ring, rng, kx)
            y = draw_element(ring, rng, ky)
            assert ring.star(x, y) == reference_star(ring, x, y), (kx, ky)
            assert ring.pairing(x, y) == reference_pairing(ring, x, y), \
                (kx, ky)
            check_contraction_path(ring, x, y)
            check_contraction_path(ring, x, x)
    # products of products carry several q powers per slot
    x, y = (draw_element(ring, rng, "small") for _ in range(2))
    xy = ring.star(x, y)
    assert ring.star(xy, xy) == reference_star(ring, xy, xy)
    assert ring.pairing(xy, y) == reference_pairing(ring, xy, y)
    check_contraction_path(ring, xy, ring.star(y, x))
    check_contraction_path(ring, xy, ring.zero())


fractions = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 15))
slots = st.one_of(st.just(Fraction(0)), fractions)


@settings(max_examples=40, deadline=None)
@given(st.lists(slots, min_size=DIM, max_size=DIM),
       st.lists(slots, min_size=DIM, max_size=DIM),
       st.integers(0, 3), st.integers(0, 3))
def test_engine_matches_reference_hypothesis(ring, xs, ys, dx, dy):
    # each vector is scaled by a power of q so inputs of every degree occur
    qx = ring.ctx.var("q") ** dx
    qy = ring.ctx.var("q") ** dy
    x = tuple(qx * c for c in xs)
    y = tuple(qy * c for c in ys)
    assert ring.star(x, y) == reference_star(ring, x, y)
    assert ring.pairing(x, y) == reference_pairing(ring, x, y)
    check_contraction_path(ring, x, y, Fraction(xs[0] or 1))


def test_star_and_pairing_do_no_polynomial_multiplication(ring, monkeypatch):
    rng = random.Random(11)
    a, b, c = (draw_element(ring, rng, "small") for _ in range(3))
    ab = ring.star(a, b)   # dense, with several q powers per slot
    calls = []
    original = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    ring.star(ab, c)
    ring.pairing(ab, c)
    assert calls == []


def test_star_refuses_exponents_that_would_carry():
    """Each variable owns a 64-bit field of the monomial key: an exponent
    that could carry into the next field raises instead of returning a
    wrong product, and exponents up to 2^61 still round-trip."""
    ring = symbolic_ring()
    q, u11, u2 = (ring.ctx.var(v) for v in ("q", "uJ11", "uJ2"))
    with pytest.raises(ValueError, match="would carry"):
        MultiPoly(ring.ctx, {(2 ** 64, 0, 0): 1})
    with pytest.raises(ValueError, match="would carry"):
        q ** (2 ** 64)
    big = ring.element({"s0": q ** (2 ** 63)})
    s1 = ring.basis_element("s1")
    assert ring.star(big, s1) == reference_star(ring, big, s1)
    with pytest.raises(ValueError, match="would carry"):
        ring.star(big, big)
    with pytest.raises(ValueError, match="would carry"):
        ring.pairing(big, big)
    x = ring.element({"s0": q ** (2 ** 61) * u11 + u2 ** (2 ** 61),
                      "s11": 3 * u11 ** (2 ** 61) - q})
    y = ring.element({"s2": q ** (2 ** 61) * u2 ** 5, "s3": u11 - 2})
    assert tuple(MultiPoly(ring.ctx, p.terms) for p in x) == x
    assert ring.star(x, y) == reference_star(ring, x, y)
    assert ring.pairing(x, y) == reference_pairing(ring, x, y)
    # bounds add up along a chain of products until one could carry
    p = ring.star(x, x)             # bound 2^62 + the tensor's
    p = ring.star(p, p)             # bound 2^63 + 3 times the tensor's
    with pytest.raises(ValueError, match="would carry"):
        ring.star(p, p)


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def reference_random_identity_failures(ring, rng, samples):
    """The ring identities of `generic_identity_failures` on
    seeded random triples of rational vectors, with MultiPoly products and
    comparisons; each failure reads "sample <n>: <identity>"."""
    bad = []
    for n in range(samples):
        a, b, c = (ring.element({name: random_rational(rng)
                                 for name in BASIS_NAMES}) for _ in range(3))
        lam = random_rational(rng)
        ab = ring.star(a, b)
        if ring.star(ab, c) != ring.star(a, ring.star(b, c)):
            bad.append("sample %d: associativity" % n)
        if ab != ring.star(b, a):
            bad.append("sample %d: commutativity" % n)
        if ring.pairing(ab, c) != ring.pairing(a, ring.star(b, c)):
            bad.append("sample %d: frobenius" % n)
        shifted = tuple(x + lam * y for x, y in zip(b, c))
        lhs = ring.star(a, shifted)
        rhs = tuple(x + lam * y for x, y in
                    zip(ab, ring.star(a, c)))
        if lhs != rhs:
            bad.append("sample %d: linearity" % n)
    return bad


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_random_identities_match_the_multipoly_sample(ring, seed):
    """Each sample specializes the generic check, so the seeded sample
    flags an identity only if the generic check flags it; both flag
    something on the perturbed ring and nothing on the true one."""
    broken = perturbed_ring(ring)
    for r in (ring, broken):
        sampled = reference_random_identity_failures(r, random.Random(seed),
                                                     100)
        generic = generic_identity_failures(r)
        assert {bad.split(": ")[1] for bad in sampled} <= set(generic)
        assert (sampled != []) == (generic != []) == (r is broken)


def empty_product_tensor_entries(monkeypatch, pairs):
    """Make every product tensor built from now on forget the images of
    the ordered basis pairs `pairs`."""
    init = quantum.StructureTensor.__init__

    def emptied(self, ctx, width, images):
        init(self, ctx, width, images)
        if width == DIM:
            for i, j in pairs:
                self.rows[i][j] = []

    monkeypatch.setattr(quantum.StructureTensor, "__init__", emptied)


EMPTIED_ENTRIES = [
    ([(1, 2)], ["associativity", "commutativity", "frobenius"]),
    ([(1, 2), (2, 1)], ["associativity", "frobenius"]),
]


@pytest.mark.parametrize("pairs, flagged", EMPTIED_ENTRIES)
def test_generic_check_fails_on_an_emptied_tensor_entry(
        ring, monkeypatch, pairs, flagged):
    """A product tensor that forgets the image of (e_i, e_j) fails the
    generic check; forgetting it in both orders keeps the product
    commutative and still breaks associativity and Frobenius."""
    empty_product_tensor_entries(monkeypatch, pairs)
    assert generic_identity_failures(ring) == flagged


@pytest.mark.parametrize("pairs, flagged", EMPTIED_ENTRIES)
def test_table_scans_fail_on_an_emptied_tensor_entry(
        ring, monkeypatch, pairs, flagged):
    """The basis scans of `table_certificates` read the product tensor,
    not the table: an entry it forgets fails the same identities as in
    the generic check, and the checks that read the table still pass."""
    empty_product_tensor_entries(monkeypatch, pairs)
    ws = certificates.Workspace()
    ws._cache["ring"] = QuantumRing(ring.amb, ring.table)
    status = {c.claim: c.status for c in certificates.table_certificates(ws)}
    assert sorted(claim for claim, verdict in status.items()
                  if verdict == certificates.FAILED) == \
        ["table." + name for name in flagged]
    assert status["table.control.perturbed"] == certificates.VERIFIED


def test_table_scans_refuse_exponents_that_would_carry(ring):
    """The composed scans guard the sum of the two tensors' exponent
    bounds once: below 2^64 they agree with products of basis vectors,
    and a table whose products could carry is refused."""
    s11 = BASIS_NAMES.index("s11")
    q = ring.ctx.var("q")

    def shifted(power):
        table = dict(ring.table)
        table[(s11, s11)] = (table[(s11, s11)][0] + q ** power,) \
            + table[(s11, s11)][1:]
        return QuantumRing(ring.amb, table)

    wide = shifted(2 ** 62)         # products of two entries: bound 2^63
    assert associativity_failures(wide) == \
        reference_associativity_failures(wide) != []
    assert frobenius_failures(wide) == [
        names for names, lhs, rhs in reference_frobenius_sides(
            wide, product(range(DIM), repeat=3)) if lhs != rhs] != []
    carrying = shifted(2 ** 63)     # two entries' bounds add up to 2^64
    with pytest.raises(ValueError, match="would carry"):
        associativity_failures(carrying)
    with pytest.raises(ValueError, match="would carry"):
        generic_identity_failures(carrying)
    # the Gram tensor is constant, so the Frobenius scan stays in range
    assert frobenius_failures(carrying) != []


def basis_triples(ring, triples):
    """(names, (e_i, e_j, e_k)) for each index triple, as basis vectors."""
    basis = [ring.basis_element(name) for name in BASIS_NAMES]
    for ijk in triples:
        yield (tuple(BASIS_NAMES[i] for i in ijk),
               tuple(basis[i] for i in ijk))


# every associator of a commutative table, in the scan's order: the
# sorted triples, then the second associator (i, k, j) of three distinct
# classes i < j < k
ASSOCIATORS = list(combinations_with_replacement(range(DIM), 3)) + [
    (i, k, j) for i, j, k in combinations(range(DIM), 3)]


def reference_associativity_failures(ring):
    """The associativity scan with every product of basis vectors made
    through `star`."""
    star = ring.star
    return [names for names, (a, b, c) in basis_triples(ring, ASSOCIATORS)
            if star(star(a, b), c) != star(a, star(b, c))]


def reference_frobenius_sides(ring, triples):
    """(names, <a*b, c>, <a, b*c>) with both products made through `star`."""
    star, pairing = ring.star, ring.pairing
    return [(names, pairing(star(a, b), c), pairing(a, star(b, c)))
            for names, (a, b, c) in basis_triples(ring, triples)]


@pytest.mark.parametrize("kind", ["standard", "perturbed", "symbolic"])
def test_table_scans_agree_with_basis_vector_products(ring, kind):
    """The scans compose structure constants; multiplying the basis
    vectors through `star` and `pairing` instead gives the same witnesses
    in the same order.  The symbolic ring's signed constants cancel
    inside some sides, which must then compare as the values they are."""
    r = {"standard": ring, "perturbed": perturbed_ring(ring),
         "symbolic": symbolic_ring()}[kind]
    assoc = reference_associativity_failures(r)
    frob = [names for names, lhs, rhs in reference_frobenius_sides(
                r, product(range(DIM), repeat=3)) if lhs != rhs]
    assert associativity_failures(r) == assoc
    assert frobenius_failures(r) == frob
    assert bool(assoc) == bool(frob) == (kind != "standard")


def blind_spot_ring(amb):
    """A commutative table that every sorted basis triple finds
    associative although it is not: s0 s1 = s11, s1 s2 = s3,
    s2 s11 = s31, s0 s3 = s31 and every other product 0, so
    (s0 s2) s1 = 0 while s0 (s2 s1) = s31."""
    ctx = quantum_context()
    idx = {name: i for i, name in enumerate(BASIS_NAMES)}
    table = {(i, j): tuple(ctx.zero() for _ in range(DIM))
             for i, j in combinations_with_replacement(range(DIM), 2)}
    for a, b, c in (("s0", "s1", "s11"), ("s1", "s2", "s3"),
                    ("s2", "s11", "s31"), ("s0", "s3", "s31")):
        table[(idx[a], idx[b])] = tuple(
            ctx.scalar(int(k == idx[c])) for k in range(DIM))
    return QuantumRing(amb, table)


# the indeterminate coordinates of generic elements a, b, c and scalar lam
GENERIC = tuple("%s%d" % (v, k) for v in "abc" for k in range(DIM)) + ("lam",)


def generic_identity_failures(ring):
    """Which of associativity, commutativity, Frobenius and linearity fail
    for `ring`'s product.  Each is multilinear in (a, b, c, lam), so one
    comparison through `star` and `pairing` at the indeterminates GENERIC,
    of degree 0, settles it for all vectors.  This lifts the whole table
    into Q[q, a0..c5, lam]: an oracle for the basis scans that reaches
    the product along a second path, `StructureTensor.contract`."""
    ext = ring.ctx.extended(GENERIC, (0,) * len(GENERIC))
    gen = QuantumRing(ring.amb, {
        ij: tuple(p.substitute({}, ext) for p in vec)
        for ij, vec in ring.table.items()})
    star, pairing, var = gen.star, gen.pairing, ext.var
    a, b, c = (tuple(var("%s%d" % (v, k)) for k in range(DIM)) for v in "abc")
    scaled = tuple(var("lam") * x for x in c)
    ab, bc = star(a, b), star(b, c)
    sides = (("associativity", star(ab, c), star(a, bc)),
             ("commutativity", ab, star(b, a)),
             ("frobenius", pairing(ab, c), pairing(a, bc)),
             ("linearity", star(a, tuple(map(sum, zip(b, scaled)))),
              tuple(map(sum, zip(ab, star(a, scaled))))))
    return [name for name, lhs, rhs in sides if lhs != rhs]


def test_generic_check_flags_the_blind_spot_table(ring):
    r = blind_spot_ring(ring.amb)
    s0, s1, s2 = (r.basis_element(name) for name in ("s0", "s1", "s2"))
    assert r.star(r.star(s0, s2), s1) == r.zero()
    assert r.star(s0, r.star(s2, s1)) == r.basis_element("s31")
    assert generic_identity_failures(r) == ["associativity", "frobenius"]


def test_associativity_scan_flags_the_blind_spot_table(ring):
    """The sorted triple (s0, s1, s2) compares s31 with s31; its second
    associator (s0, s2, s1) compares 0 with s31."""
    assert associativity_failures(blind_spot_ring(ring.amb)) == [
        ("s0", "s2", "s1")]


def test_deformation_refuses_the_blind_spot_table(ring):
    with pytest.raises(ValueError, match="must be associative"):
        build_deformed_matrix(blind_spot_ring(ring.amb))


def test_solver_refuses_a_blind_spot_table(monkeypatch):
    """A table whose every residual vanishes at (J11, J2) = (24, 32) and
    whose solved form, s0 s31 = s2, s2 s2 = s2 - s11 and every other
    product 0, passes every sorted triple: only the second associator
    (s0, s31, s2) shows that (s0 s31) s2 = s2 - s11 is not
    s0 (s31 s2) = 0."""
    idx = {name: i for i, name in enumerate(BASIS_NAMES)}

    def table(counts, amb, j11, j2, ctx):
        t = {(i, j): tuple(ctx.zero() for _ in range(DIM))
             for i, j in combinations_with_replacement(range(DIM), 2)}
        for (a, b), vec in ((("s0", "s31"), {"s2": ctx.one()}),
                            (("s2", "s2"), {"s2": ctx.one(),
                                            "s11": -ctx.one()}),
                            (("s11", "s3"), {"s1": j11 - 24}),
                            (("s3", "s31"), {"s1": j2 - 32})):
            t[(idx[a], idx[b])] = tuple(vec.get(name, ctx.zero())
                                        for name in BASIS_NAMES)
        return t

    monkeypatch.setattr(quantum, "product_table", table)
    with pytest.raises(ValueError, match=r"still fails associativity: "
                       r"\[\('s0', 's31', 's2'\)\]"):
        solve_three_point_invariants(CountSet.from_geometry())


SPARSE_ENTRY = st.tuples(
    st.sampled_from(list(combinations_with_replacement(range(DIM), 2))),
    st.integers(0, DIM - 1), st.integers(-3, 3), st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.lists(SPARSE_ENTRY, max_size=4))
def test_scans_flag_what_the_generic_check_flags(ring, standard, entries):
    """On a sparse commutative table over Q[q], on its own or added to the
    standard table, the generic route and the three basis scans flag the
    same identities, and the property certificate lists them."""
    ctx = ring.ctx
    table = {ij: vec if standard else tuple(ctx.zero() for _ in vec)
             for ij, vec in ring.table.items()}
    for ij, k, c, d in entries:
        vec = list(table[ij])
        vec[k] += c * ctx.var("q") ** d
        table[ij] = tuple(vec)
    r = QuantumRing(ring.amb, table)
    flagged = generic_identity_failures(r)
    assert [name for name, failures in (
        ("associativity", associativity_failures(r)),
        ("commutativity", quantum.commutativity_failures(r)),
        ("frobenius", frobenius_failures(r))) if failures] == flagged
    ws = certificates.Workspace()
    ws._cache["ring"] = r
    [cert] = certificates.property_certificates(ws)
    assert (cert.witness or "") == "; ".join(flagged)


def test_solver_frobenius_residuals_agree_with_basis_vector_products(
        monkeypatch):
    """Every nonzero residual the solver splits into equations, in order:
    the route residuals, then <a*b, c> - <a, b*c> over the 56 sorted
    triples of the symbolic ring.  A zero residual adds no equation."""
    split = []
    affine_split = quantum._affine_split

    def recorded(p, unknowns):
        split.append(p)
        return affine_split(p, unknowns)

    monkeypatch.setattr(quantum, "_affine_split", recorded)
    solve_three_point_invariants(CountSet.from_geometry())
    sym = symbolic_ring()
    route = [p for p in quantum._route_residuals(sym, CountSet.from_geometry())
             if not p.is_zero()]
    frob = [lhs - rhs for _, lhs, rhs in reference_frobenius_sides(
                sym, combinations_with_replacement(range(DIM), 3))]
    frob = [p for p in frob if not p.is_zero()]
    assert len(frob) == 17
    assert split == route + frob


def test_property_certificate_fails_on_a_perturbed_ring(ring):
    ws = certificates.Workspace()
    ws._cache["ring"] = perturbed_ring(ring)
    [cert] = certificates.property_certificates(ws)
    assert cert.status == certificates.FAILED
    assert cert.computed == 2
    assert cert.witness == "associativity; frobenius"


def test_identity_checks_stay_packed(ring, monkeypatch):
    """The table scans compose the structure constants as integer
    numerators and compare those: no MultiPoly product and no Fraction
    view of a result."""
    fresh, broken = QuantumRing(ring.amb, ring.table), perturbed_ring(ring)
    calls = []
    for name in ("__mul__", "__rmul__"):
        original = getattr(MultiPoly, name)

        def counted(self, other, name=name, original=original):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(MultiPoly, name, counted)
    view = MultiPoly.terms
    monkeypatch.setattr(MultiPoly, "terms", property(
        lambda self: calls.append("terms") or view.fget(self)))
    frobenius_failures(fresh)
    frobenius_failures(broken)
    associativity_failures(broken)
    assert calls == []


def test_only_star_and_pairing_contract(monkeypatch):
    """In a cold verify-all every structure-tensor contraction is made by
    `QuantumRing.star` or `QuantumRing.pairing`, and there are exactly
    23 of them, all `star`.  The ring identities are read off the basis
    scans, which compose structure constants, so no pairing is left: the
    property check takes 3 stars for its one bilinearity comparison."""
    callers = Counter()
    contract = quantum.StructureTensor.contract

    def recorded(self, x, y):
        callers[sys._getframe(1).f_code] += 1
        return contract(self, x, y)

    monkeypatch.setattr(quantum.StructureTensor, "contract", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify-all", "--seed", "0", "--no-timestamp"])
    allowed = {QuantumRing.star.__code__, QuantumRing.pairing.__code__}
    assert set(callers) <= allowed, sorted(
        "%s:%d" % (c.co_name, c.co_firstlineno)
        for c in set(callers) - allowed)
    # the work is deterministic: the presentation's words take 20 stars
    # and the property check's bilinearity 3, while the basis scans and
    # the solver's residuals compose structure constants, so a scan that
    # multiplies basis vectors again shows up here
    assert {c.co_name: n for c, n in callers.items()} == {"star": 23}


def test_j12_moves_sigma11_square_by_its_dual(ring):
    """Shifting J12 by 1 adds q dual(s11) to s11 * s11 in the table."""
    counts = CountSet.from_geometry()
    shifted = dataclasses.replace(counts, J12=counts.J12 + 1)
    s11 = BASIS_NAMES.index("s11")
    before, after = (product_table(c, ring.amb, counts.J11, 32, ring.ctx)
                     [(s11, s11)] for c in (counts, shifted))
    q = ring.ctx.var("q")
    dual = ring.amb.dual_basis()[s11]
    assert any(dual)
    assert tuple(b - a for a, b in zip(before, after)) == \
        tuple(q * d for d in dual)


def test_scan_sizes_count_the_scanned_triples(monkeypatch, ring):
    """ASSOCIATIVITY_TRIPLES and FROBENIUS_TRIPLES, which the certificates
    and the table summary print, are the number of triples each scan
    compares."""
    seen = []
    sides = quantum._table_sides

    def counted(r, ijk, tensor):
        seen.append(0)
        for compared in sides(r, ijk, tensor):
            seen[-1] += 1
            yield compared

    monkeypatch.setattr(quantum, "_table_sides", counted)
    fresh = QuantumRing(ring.amb, ring.table)
    associativity_failures(fresh)
    frobenius_failures(fresh)
    assert seen == [quantum.ASSOCIATIVITY_TRIPLES, quantum.FROBENIUS_TRIPLES]
    assert seen == [56 + 20, 216]
