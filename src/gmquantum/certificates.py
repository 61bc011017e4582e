"""Machine checkable certificates for every claim the engine verifies.

A certificate records a single claim: a stable identifier, the inputs it
depends on, the value the engine computed, the value it was expected to
match, and a single grounding tag saying where the expectation comes
from.  Builders are grouped by report (counts, matrix, table,
presentation, deformation, criterion) and each group is deterministic,
so two runs serialize to identical JSON.

Status semantics: "verified" means computed and expected agree exactly,
"failed" means they do not (the certificate then carries a witness), and
"model-axiom" marks data that is posited rather than computed, such as
the primitive block of the 28 dimensional operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ambient import BASIS_NAMES, DIM
from .deformation import (
    AMBIENT, HodgeModel, PRIMITIVE_DIM, assemble_full_operator, at_t_zero,
    atom_statistics, build_deformed_matrix, criterion_verdict, eigenvalue,
    homogeneity_failures, irrationality_criterion, specialization_failures,
    verify_jordan_pair,
)
from .gwcounts import CountSet, EXPECTED_VALUES, all_reports
from .linalg import scalar_matrix
from .quantum import (
    ASSOCIATIVITY_TRIPLES, FROBENIUS_TRIPLES,
    associativity_failures, classical_limit_failures,
    commutativity_failures, degree_two_closed_form, frobenius_failures,
    grading_failures, perturbed_ring, presentation_report,
    ring_from_solve, solve_three_point_invariants, spectral_report,
)

SCHEMA_VERSION = "1.0"

VERIFIED = "verified"
FAILED = "failed"
MODEL_AXIOM = "model-axiom"

# grounding tags: exactly one per certificate
FROZEN = "frozen-constant"            # expected value fixed in this repository
REDERIVED = "independent-derivation"  # expected value recomputed along a second route
IDENTITY = "algebraic-identity"       # exact polynomial identity, expected side is zero or trivial
EXHAUSTIVE = "exhaustive-check"       # finite property checked on every instance
AXIOM = "model-axiom"                 # posited by the model, not computed


@dataclass(frozen=True)
class Certificate:
    claim: str
    status: str
    grounding: str
    inputs: Tuple[Tuple[str, str], ...]
    computed: object
    expected: object
    trace: Tuple[str, ...] = ()
    witness: Optional[str] = None


def _plain(v):
    """Mirror a value into JSON friendly data with exact rationals as strings."""
    if isinstance(v, Fraction):
        return str(v)
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in
                sorted(v.items(), key=lambda kv: str(kv[0]))}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return str(v)


def make(claim: str, computed, expected, grounding: str,
         inputs: Sequence[Tuple[str, object]] = (),
         trace: Sequence[str] = (),
         status: Optional[str] = None,
         ok: Optional[bool] = None,
         witness: Optional[str] = None) -> Certificate:
    comp = _plain(computed)
    exp = _plain(expected)
    if status is None:
        if ok is None:
            ok = comp == exp
        status = VERIFIED if ok else FAILED
    if status == FAILED:
        if witness is None:
            witness = "computed %s but expected %s" % (
                json.dumps(comp, sort_keys=True),
                json.dumps(exp, sort_keys=True))
    else:
        witness = None
    return Certificate(claim, status, grounding,
                       tuple((str(k), str(_plain(v))) for k, v in inputs),
                       comp, exp, tuple(trace), witness)


def scan_certificate(claim: str, failures: Sequence, grounding: str,
                     trace: Sequence[str], show: Callable[[object], str],
                     inputs: Sequence[Tuple[str, object]] = ()
                     ) -> Certificate:
    """The claim that a scan found nothing: the number of failures must be
    0, and a failed certificate lists each as `show` prints it."""
    return make(claim, len(failures), 0, grounding, inputs=inputs,
                trace=trace, witness="; ".join(map(show, failures)))


def certificate_to_dict(cert: Certificate) -> Dict[str, object]:
    out: Dict[str, object] = {
        "claim": cert.claim,
        "status": cert.status,
        "grounding": cert.grounding,
        "inputs": {k: v for k, v in cert.inputs},
        "computed": cert.computed,
        "expected": cert.expected,
        "trace": list(cert.trace),
    }
    if cert.witness is not None:
        out["witness"] = cert.witness
    return out


def merge(groups: Sequence[Sequence[Certificate]]) -> List[Certificate]:
    """Flatten certificate groups into one list sorted by claim id."""
    merged: Dict[str, Certificate] = {}
    for group in groups:
        for cert in group:
            if cert.claim in merged:
                raise ValueError("duplicate certificate claim %r" % cert.claim)
            merged[cert.claim] = cert
    return [merged[k] for k in sorted(merged)]


# ---------------------------------------------------------------------------
# frozen expectations
# ---------------------------------------------------------------------------

FROZEN_H_MATRIX = (
    ("0", "6*q", "0", "0", "24*q^2", "0"),
    ("1", "0", "10*q", "6*q", "0", "24*q^2"),
    ("0", "1", "0", "0", "4*q", "0"),
    ("0", "1", "0", "0", "2*q", "0"),
    ("0", "0", "3", "2", "0", "6*q"),
    ("0", "0", "0", "0", "1", "0"),
)

FROZEN_CHAR_POLY = "-16*q^2*X^2 - 44*q*X^4 + X^6"

FROZEN_TABLE = {
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

FROZEN_DEFORMED = (
    ("0", "12*q", "240*q^2*t", "156*q^2*t", "48*q^2", "880*q^3*t"),
    ("2", "10*q*t", "20*q", "12*q", "180*q^2*t", "48*q^2"),
    ("-t", "2", "8*q*t", "8*q*t", "8*q", "84*q^2*t"),
    ("0", "2", "12*q*t", "4*q*t", "4*q", "72*q^2*t"),
    ("0", "-3*t", "6", "4", "10*q*t", "12*q"),
    ("0", "0", "-2*t", "-t", "2", "0"),
)

# the degree 5 relation is implied by the other two with these cofactors
R3_COFACTOR_IDENTITY = "R3 = (5*s11 + 2*h^2 + 6*q)*R1 - 5*h*R2"


# ---------------------------------------------------------------------------
# shared workspace
# ---------------------------------------------------------------------------


# Each node maps to the nodes it reads and its builder.  A builder looks
# its function up in this module when it runs, not when the table is
# made: the tracer in bench/spans.py rebinds module names such as
# `all_reports` to count their calls, and a function captured here would
# escape it.
NODES: Dict[str, Tuple[Tuple[str, ...], Callable[..., object]]] = {
    "reports": ((), lambda: all_reports()),
    "counts": (("reports",), lambda reports: CountSet.from_reports(reports)),
    "solve": (("counts",),
              lambda counts: solve_three_point_invariants(counts)),
    "ring": (("counts", "solve"),
             lambda counts, solve: ring_from_solve(counts, solve)),
    "spectrum": (("ring",), lambda ring: spectral_report(ring)),
    "presentation": (("ring",), lambda ring: presentation_report(ring)),
    "operator": (("ring",), lambda ring: build_deformed_matrix(ring)),
    "model": ((), lambda: HodgeModel.standard()),
    "full_operator": (("operator",), lambda op: assemble_full_operator(op)),
    "statistics": (("full_operator", "model"),
                   lambda full, model: atom_statistics(full, model)),
    "criterion": (("operator", "model"), lambda op, model:
                  irrationality_criterion(at_t_zero(op), model)),
}


class Workspace:
    """The nodes of NODES, each built once on first read.

    Every node is a property of the same name.  A node reads its inputs
    as attributes, so the build of one node nests inside the reads of
    those it depends on.
    """

    def __init__(self):
        self._cache: Dict[str, object] = {}

    def _get(self, name: str):
        if name not in self._cache:
            inputs, build = NODES[name]
            self._cache[name] = build(*(getattr(self, n) for n in inputs))
        return self._cache[name]


for _node in NODES:
    setattr(Workspace, _node, property(partial(Workspace._get, name=_node)))
del _node


# ---------------------------------------------------------------------------
# certificate groups
# ---------------------------------------------------------------------------


def gw_certificates(ws: Workspace) -> List[Certificate]:
    reps = ws.reports
    certs = []
    for name in ("I11", "I12", "I13", "I2", "J12"):
        rep = reps[name]
        certs.append(make(
            "gw.count.%s" % name, rep.value, EXPECTED_VALUES[name], FROZEN,
            inputs=(("bracket", rep.bracket),),
            trace=rep.trace))
    rep = reps["J11"]
    certs.append(make(
        "gw.identity.J11", rep.value, EXPECTED_VALUES["J11"], IDENTITY,
        inputs=(("bracket", rep.bracket),),
        trace=rep.trace))
    solved = ws.solve
    certs.append(make(
        "gw.solve.J11", solved.j11, rep.value, REDERIVED,
        inputs=(("equations", solved.equations), ("rank", solved.rank)),
        trace=("associativity of the symbolic table pins J11 without the"
               " divisor identity; both routes must agree",
               "linear system: %d equations of rank %d, every equation"
               " satisfied by the unique solution" % (solved.equations,
                                                      solved.rank))))
    certs.append(make(
        "gw.solve.J2", solved.j2, EXPECTED_VALUES["J2"], FROZEN,
        inputs=(("equations", solved.equations), ("rank", solved.rank)),
        trace=("J2 has no direct tower computation; associativity of the"
               " full table determines it together with J11",
               "solved table re-checked on all %d products"
               % solved.residuals_checked)))
    closed = degree_two_closed_form(ws.counts, ws.counts.J11)
    certs.append(make(
        "gw.formula.J2", closed, solved.j2, REDERIVED,
        inputs=tuple((k, getattr(ws.counts, k)) for k in
                     ("I11", "I12", "I13", "I2", "J11")),
        trace=("closed combination of the degree 1 counts and J11,"
               " checked against the associativity solve",
               "J2 = I11*(2*I13-I12)"
               " + (1/5)*(2*I12-3*I13)*(2*I12+9*I13-(5/2)*J11)"
               " + (6/5)*I2",)))
    return certs


def matrix_certificates(ws: Workspace) -> List[Certificate]:
    ring = ws.ring
    certs = [make(
        "matrix.h-action", ring.h_matrix.map(str).rows, FROZEN_H_MATRIX,
        FROZEN,
        inputs=(("basis", ", ".join(BASIS_NAMES)),),
        trace=("columns list h * e_b in the basis (s0, s1, s2, s11, s3, s31)",
               "entries come from the divisor axiom applied to the two"
               " point counts"))]
    sp = ws.spectrum
    certs.append(make(
        "matrix.char-poly", sp["char_poly"], FROZEN_CHAR_POLY, FROZEN,
        trace=("characteristic polynomial of the h action over Q[q]",
               "only even powers of X appear: %s" % sp["only_even_powers"])))
    certs.append(make(
        "matrix.squarefree-factor",
        {"profile": sp["squarefree_profile"],
         "quadratic_in_Xsq": sp["quadratic_in_Xsq"]},
        {"profile": {1: 4, 2: 1},
         "quadratic_in_Xsq": "T^2 + (-44) T + (-16)"},
        FROZEN,
        trace=("squarefree profile over Q(q): the factor X carries"
               " multiplicity 2, the quartic X^4 - 44*q*X^2 - 16*q^2 is"
               " squarefree with nonzero constant term",
               "the quadratic is displayed at q = 1")))
    certs.append(make(
        "matrix.spectral-at-q1",
        {"roots": sp.get("roots_at_q1"), "verified": sp.get("roots_verified")},
        {"roots": "22 +- 10 sqrt(5)", "verified": True},
        FROZEN,
        trace=("eigenvalue squares at q = 1 solve T^2 - 44*T - 16 = 0",
               "both surds are substituted back exactly")))
    ker = sp["kernel"]
    certs.append(make(
        "matrix.kernel",
        {"dimension": ker["dimension"], "killed": ker["killed"],
         "independent": ker["independent"],
         "spans_nullspace": ker["spans_nullspace"]},
        {"dimension": 2, "killed": True, "independent": True,
         "spans_nullspace": True},
        IDENTITY,
        trace=("alpha = " + ring.format(ker["alpha"]),
               "beta = " + ring.format(ker["beta"]),
               "h * alpha = h * beta = 0 as polynomial identities; the"
               " pair spans the Q(q) nullspace of the h action")))
    return certs


def table_certificates(ws: Workspace) -> List[Certificate]:
    ring = ws.ring
    computed = {}
    for (i, j), vec in sorted(ring.table.items()):
        computed["%s*%s" % (BASIS_NAMES[i], BASIS_NAMES[j])] = ring.format(vec)
    expected = {"%s*%s" % k: v for k, v in FROZEN_TABLE.items()}
    certs = [make(
        "table.products", computed, expected, FROZEN,
        inputs=(("entries", len(computed)),),
        trace=("all 21 unordered basis products of the quantum table",))]
    certs.append(scan_certificate(
        "table.commutativity", commutativity_failures(ring), EXHAUSTIVE,
        ("a*b = b*a on all 36 ordered basis pairs",), str,
        inputs=(("ordered_pairs", DIM * DIM),)))
    certs.append(scan_certificate(
        "table.associativity", associativity_failures(ring), EXHAUSTIVE,
        ("(a*b)*c = a*(b*c) on all %d associators of unordered basis"
         " triples" % ASSOCIATIVITY_TRIPLES,), "*".join,
        inputs=(("unordered_triples", ASSOCIATIVITY_TRIPLES),)))
    certs.append(scan_certificate(
        "table.frobenius", frobenius_failures(ring), EXHAUSTIVE,
        ("<a*b, c> = <a, b*c> on all %d ordered basis triples"
         % FROBENIUS_TRIPLES,), "*".join,
        inputs=(("ordered_triples", FROBENIUS_TRIPLES),)))
    certs.append(scan_certificate(
        "table.grading", grading_failures(ring), EXHAUSTIVE,
        ("every component of a*b is homogeneous of degree"
         " deg(a) + deg(b) - deg(component) with deg q = 2",), str))
    certs.append(scan_certificate(
        "table.classical-limit", classical_limit_failures(ring), EXHAUSTIVE,
        ("setting q = 0 in every product recovers the cup product"
         " of the ambient lattice",), str))
    broken = perturbed_ring(ring)
    bad = associativity_failures(broken)
    certs.append(make(
        "table.control.perturbed", len(bad) > 0, True, REDERIVED,
        inputs=(("failing_triples", len(bad)),),
        trace=("control: shifting s11*s11 by q^2 must break associativity,"
               " so the scan above is not vacuous",
               "first failing triple: " +
               ("*".join(bad[0]) if bad else "none"))))
    return certs


def presentation_certificates(ws: Workspace) -> List[Certificate]:
    rep = ws.presentation
    certs = [make(
        "presentation.relations-vanish", rep["relations_vanish"],
        {"R1": True, "R2": True, "R3": True}, IDENTITY,
        trace=("R1 = 5*h*s11 - 2*h^3 + 14*q*h",
               "R2 = 5*s11^2 + 20*q*s11 - h^4 + 12*q*h^2 + 20*q^2",
               "R3 = h^5 - 44*q*h^3 - 16*q^2*h",
               "each relation is rewritten through iterated star products"
               " and must land on the zero vector"))]
    certs.append(make(
        "presentation.monomial-basis",
        {"rank": rep["quotient_rank"], "basis_ok": rep["monomial_basis_ok"]},
        {"rank": 6, "basis_ok": True}, FROZEN,
        trace=("standard monomials of (R1, R2, R3) in Q(q)[s11, h] under"
               " the graded order: 1, h, h^2, h^3, h^4, s11",)))
    certs.append(make(
        "presentation.word-map",
        {"bijective": rep["word_map_bijective"],
         "multiplicative": rep["word_map_multiplicative"]},
        {"bijective": True, "multiplicative": True}, IDENTITY,
        trace=("the map sending h, s11 to the quantum classes takes the"
               " six standard monomials to a basis and intertwines"
               " normal form multiplication with the star product",)))
    certs.append(make(
        "presentation.matrix-identity", rep["minimal_polynomial_ok"], True,
        IDENTITY,
        trace=("M^5 - 44*q*M^3 - 16*q^2*M = 0 for the h action matrix M",)))
    nec = rep["necessity"]
    for drop, left in (("R1", "(R2, R3), whose quotient"),
                       ("R2", "(R1, R3), both multiples of h, so the"
                              " quotient contains a polynomial line and")):
        rank = nec["without " + drop]
        certs.append(make(
            "presentation.necessity." + drop, "rank %s" % rank,
            "rank above 6", FROZEN,
            ok=rank == "infinite" or (isinstance(rank, int) and rank > 6),
            inputs=(("quotient_rank", rank),),
            trace=("dropping %s leaves %s has rank %s" % (drop, left, rank),)))
    # R3 is not necessary: explicit cofactors place it inside (R1, R2)
    certs.append(make(
        "presentation.dependence.R3", str(rep["r3_dependence_residual"]), "0",
        IDENTITY,
        inputs=(("quotient_rank_without_R3", nec["without R3"]),),
        trace=(R3_COFACTOR_IDENTITY,
               "the cofactors are polynomial, so R3 lies in the ideal"
               " (R1, R2) and dropping it keeps the quotient rank at %s"
               % nec["without R3"],
               "the presentation is therefore correct but not minimal")))
    return certs


def deform_certificates(ws: Workspace) -> List[Certificate]:
    op = ws.operator
    certs = [make(
        "deform.operator", op.map(str).rows, FROZEN_DEFORMED, FROZEN,
        inputs=(("basis", AMBIENT),),
        trace=("first order deformation of the degree operator on the"
               " ambient classes: K = 2*M_h + t*D with D scaling the"
               " degree d layer of s2 * (-) by 2d - 1",))]
    certs.append(scan_certificate(
        "deform.homogeneity", homogeneity_failures(op), EXHAUSTIVE,
        ("entry (i, j) is homogeneous of degree"
         " deg(col) - deg(row) + 1 for deg q = 2, deg t = -1",),
        lambda ij: "(%d, %d)" % ij))
    certs.append(scan_certificate(
        "deform.specialization", specialization_failures(op, ws.ring),
        IDENTITY, ("setting t = 0 recovers twice the h action matrix",),
        lambda ij: "(%d, %d)" % ij))
    certs.append(make(
        "deform.eigenvalue", str(eigenvalue(op[0, 0].ctx)), "-4*q*t", FROZEN,
        trace=("the distinguished eigenvalue of K modulo t^2",)))
    jp = verify_jordan_pair(op)
    certs.append(make(
        "deform.jordan-pair",
        {"residual_alpha": [str(r) for r in jp.residual_alpha],
         "residual_beta": [str(r) for r in jp.residual_beta],
         "alpha_classical_kernel": jp.alpha_classical_kernel},
        {"residual_alpha": ["0"] * DIM, "residual_beta": ["0"] * DIM,
         "alpha_classical_kernel": True},
        IDENTITY,
        trace=("K*alpha = lambda*alpha - t*beta and K*beta = lambda*beta"
               " modulo t^2 with lambda = -4*q*t",
               "alpha also spans part of the classical h kernel at t = 0")))
    model = ws.model
    certs.append(make(
        "deform.hodge-model",
        {"primitive_dimension": sum(model.numbers),
         "h31": model.h31(), "matches_diamond": model.matches_diamond()},
        {"primitive_dimension": PRIMITIVE_DIM, "h31": 1,
         "matches_diamond": True},
        AXIOM, status=MODEL_AXIOM,
        trace=("the primitive middle cohomology is modeled by its Hodge"
               " numbers (h31, h22, h13) = %s, which add up to %d classes"
               % (model.numbers, sum(model.numbers)),
               "the numbers are input data for the criterion, not computed")))
    full = ws.full_operator
    certs.append(make(
        "deform.primitive-block",
        "(%s) * identity on %d lines" % (full[DIM, DIM], full.nrows - DIM),
        "(-4*q*t) * identity on 22 lines", AXIOM, status=MODEL_AXIOM,
        trace=("the 28 dimensional operator is the ambient 6x6 block plus"
               " the scalar -4*q*t on the primitive block; the primitive"
               " action is posited at first order, not derived",)))
    stats = ws.statistics
    certs.append(make(
        "deform.atom-statistics",
        {"nu": stats.nu, "nu_prime": stats.nu_prime, "gamma": stats.gamma,
         "rho": stats.rho},
        {"nu": 1, "nu_prime": 0, "gamma": 1, "rho": 2},
        FROZEN,
        inputs=sorted((k, v) for k, v in stats.details.items()),
        trace=("statistics of the eigenvalue -4*q*t of the 28 dimensional"
               " operator at first order in t",
               "nu and nu_prime count size 2 Jordan blocks (total and"
               " outside the ambient part), gamma the ambient blocks, rho"
               " the rank of the block map at the deformation direction"
               " t*s2 only",
               "ranks away from t = 0 are taken over the fraction field"
               " Q(q, t); every verified identity is polynomial in q and"
               " t, which is stronger than any single evaluation",)))
    return certs


def criterion_certificates(ws: Workspace) -> List[Certificate]:
    model = ws.model
    rep = ws.criterion
    certs = [make(
        "criterion.squarefree-profile",
        {"profile": rep.profile, "simple_nonzero": rep.simple_nonzero,
         "zero_multiplicity": rep.zero_multiplicity,
         "max_multiplicity": rep.max_multiplicity},
        {"profile": {1: 4, 2: 1}, "simple_nonzero": 4,
         "zero_multiplicity": 2, "max_multiplicity": 2},
        FROZEN,
        trace=("squarefree profile of the characteristic polynomial of"
               " the t = 0 operator 2*M_h over Q(q): four simple nonzero"
               " eigenvalue squares and the eigenvalue 0 with"
               " multiplicity 2",))]
    certs.append(make(
        "criterion.hodge-positivity", model.h31(), 1, AXIOM,
        status=MODEL_AXIOM,
        trace=("the model posits one line of type (3,1); positivity is"
               " required by the criterion",)))
    certs.append(make(
        "criterion.verdict", rep.satisfied, True, REDERIVED,
        inputs=(("notes", " / ".join(rep.notes)),),
        trace=("the criterion holds when no eigenvalue multiplicity"
               " exceeds 2 and the (3,1) slot is nonzero",)))
    scalar = irrationality_criterion(
        scalar_matrix(DIM, Fraction(2)), model)
    certs.append(make(
        "criterion.control.scalar", scalar.satisfied, False, REDERIVED,
        inputs=(("max_multiplicity", scalar.max_multiplicity),),
        trace=("control: 2 * identity has one eigenvalue of multiplicity"
               " 6 and must fail the multiplicity bound",)))
    moved = model.without_h31()
    deaf = criterion_verdict(rep.profile, rep.zero_multiplicity, moved)
    certs.append(make(
        "criterion.control.no-h31", deaf.satisfied, False, REDERIVED,
        inputs=(("h31", deaf.h31),),
        trace=("control: the Hodge numbers (h31, h22, h13) = %s, with the"
               " (3,1) class moved to (2,2), must defeat the criterion"
               " even though the profile is unchanged" % (moved.numbers,),)))
    return certs


def property_certificates(ws: Workspace) -> List[Certificate]:
    """The ring identities as the `table` group's basis scans find them,
    and one bilinearity check of `star`."""
    ring = ws.ring
    s1, s2, s11 = map(ring.basis_element, ("s1", "s2", "s11"))
    lam = ring.ctx.var("q") * Fraction(2, 3)
    mixed, split = [tuple(x + lam * y for x, y in pair) for pair in (
        zip(s1, s11), zip(ring.star(s1, s2), ring.star(s11, s2)))]
    return [scan_certificate(
        "property.random-identities",
        [name for name, failures in (
            ("associativity", associativity_failures(ring)),
            ("commutativity", commutativity_failures(ring)),
            ("frobenius", frobenius_failures(ring)),
            ("linearity", ring.star(mixed, s2) != split)) if failures],
        EXHAUSTIVE,
        ("associativity, commutativity and Frobenius as the table scans"
         " find them on basis classes: each identity is multilinear, so"
         " holding on every basis triple it holds for all vectors",
         "bilinearity of star: (s1 + lam*s11)*s2 = s1*s2 + lam*(s11*s2)"
         " with lam = 2*q/3"), str)]


GROUP_BUILDERS = {
    "gw": gw_certificates,
    "matrix": matrix_certificates,
    "table": table_certificates,
    "presentation": presentation_certificates,
    "deform": deform_certificates,
    "criterion": criterion_certificates,
}
