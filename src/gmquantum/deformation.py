"""First order deformation of the quantum product along the extra direction.

The deformed Euler operator acts on the six ambient classes by the matrix

    K = 2 * (h-matrix) + t * D,

where column b of D reweights each q^d layer of s2 * e_b by a factor of
2d - 1 (so the classical layer d = 0 enters with sign -1).  Everything
lives over the truncated ring Q[q, t]/(t^2) with deg q = 2, deg t = -1,
which keeps every entry homogeneous of degree deg(col) - deg(row) + 1.

On the 22 primitive middle classes the operator is, by the model axiom
of `assemble_full_operator`, the scalar -4qt; the full operator on all
28 even classes is therefore block diagonal.  `HodgeModel` holds the
primitive Hodge numbers (h31, h22, h13), (1, 20, 1) for the fourfold.
On the ambient block the eigenvalue -4qt has the Jordan pair
(alpha, beta(t)) of `jordan_pair`: alpha and beta(0) are the kernel pair
of h * (-) from `quantum.kernel_pair`, and only beta's order t term is
added here.  `atom_statistics` certifies the Jordan structure of the
eigenvalue -4qt of multiplicity 24: its generalized eigenspace E, the
rank of the restriction (one, a single size-two block, living over the
ambient block), and the overlap of E with the h31 classes of type (3, 1).
It first checks the block structure of the full operator exactly (no
ambient/primitive entry, primitive block -4qt times the identity), then
eliminates on the 6 x 6 shifted ambient block only; the 22 primitive
classes enter as unit kernel lines of E with zero image.
`irrationality_criterion` checks the spectral condition on the
undeformed operator in one spectral pass, whose profile `criterion_verdict`
judges: every eigenvalue multiplicity on the ambient block is at most
two while the model keeps h31 > 0.

Every entry is homogeneous (deg t = -1 included), so ranks, kernels and
squarefree profiles over Q(q) are read at q = 1 over Q, and ranks over
Q(q, t) at q = 1 over Q(t), by the conjugation argument in `linalg`,
once `at_q_one` has checked the homogeneity; nothing is claimed beyond
first order.

An operator is a plain `Matrix` over Q[q, t]/(t^2), the context of its
entries.  Its shape is its basis: 6 x 6 on the ambient classes, 28 x 28
with the 22 primitive classes appended; each check refuses the other
shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .ambient import BASIS_DEGREES, BASIS_NAMES, DIM
from .linalg import (
    Matrix, at_q_one, char_poly, matmul,
    matrix_at_q_one, matvec, nullspace_field, poly_exact_div, rank_at_points,
    rank_field, solve_field, squarefree_profile,
    vector_at_q_one,
)
from .poly import MultiPoly, VarContext
from .quantum import QuantumRing, associativity_failures, kernel_pair

AMBIENT = "ambient-6"
PRIMITIVE_DIM = 22
FULL_DIM = DIM + PRIMITIVE_DIM


def truncated_context() -> VarContext:
    """Q[q, t]/(t^2) with deg q = 2 and deg t = -1."""
    return VarContext(("q", "t"), (2, -1), nilpotent={"t": 2})


def at_t_zero(op: Matrix) -> Matrix:
    """The t = 0 part of a matrix over Q[q, t]/(t^2)."""
    return op.map(lambda e: e.coefficient_of("t", 0))


def _entry_failures(op: Matrix, check: str, fails) -> List[Tuple[int, int]]:
    """The entries (i, j) of the ambient operator where fails(i, j, entry)
    holds; `check` names the scan when it refuses another shape."""
    if (op.nrows, op.ncols) != (DIM, DIM):
        raise ValueError("%s check expects the ambient operator" % check)
    return [(i, j) for i in range(DIM) for j in range(DIM)
            if fails(i, j, op[i, j])]


def homogeneity_failures(op: Matrix) -> List[Tuple[int, int]]:
    """Entries not homogeneous of degree deg(col) - deg(row) + 1."""
    degs = BASIS_DEGREES
    return _entry_failures(op, "homogeneity", lambda i, j, e: (
        not e.is_zero() and not e.is_homogeneous(degs[j] - degs[i] + 1)))


def specialization_failures(op: Matrix,
                            ring: QuantumRing) -> List[Tuple[int, int]]:
    """Ambient entries whose t = 0 part differs from twice the h-matrix."""
    return _entry_failures(op, "specialization", lambda i, j, e: (
        e.coefficient_of("t", 0)
        != (ring.h_matrix[i, j] * 2).substitute({}, e.ctx)))


def build_deformed_matrix(ring: QuantumRing) -> Matrix:
    """Ambient matrix of the deformed Euler operator 2h - t s2.

    The q^d t coefficient of the action on e_b is 2d - 1 times the q^d
    layer of s2 * e_b; the t-free part is twice the h-matrix.
    """
    if ring.ctx.names != ("q",):
        raise ValueError("the deformation takes a ring over Q[q] alone")
    if associativity_failures(ring):
        raise ValueError("the product table must be associative")
    tctx = truncated_context()
    s2 = BASIS_NAMES.index("s2")
    rows = [[tctx.zero()] * DIM for _ in range(DIM)]
    for j in range(DIM):
        prod = ring.table[(min(s2, j), max(s2, j))]
        for i in range(DIM):
            entry = (ring.h_matrix[i, j] * 2).substitute({}, tctx)
            rows[i][j] = entry + MultiPoly(tctx, {
                (d, 1): (2 * d - 1) * c for (d,), c in prod[i].terms.items()})
    return Matrix(rows)


# ---------------------------------------------------------------------------
# the Jordan pair on the ambient block
# ---------------------------------------------------------------------------


def eigenvalue(tctx: VarContext) -> MultiPoly:
    """-4qt, the repeated eigenvalue of the deformed operator."""
    return tctx.var("q") * tctx.var("t") * Fraction(-4)


def jordan_pair(tctx: VarContext) -> Tuple[List[MultiPoly], List[MultiPoly]]:
    """The vectors alpha and beta(t) spanning the size-two block.

    alpha and beta(0) are the kernel pair of h * (-) (`kernel_pair`);
    beta(t) adds the order t correction -16q^2 t s1 - 4qt s3.
    """
    q = tctx.var("q")
    t = tctx.var("t")
    alpha, beta = ([coeffs.get(name, tctx.zero()) for name in BASIS_NAMES]
                   for coeffs in kernel_pair(q))
    beta[BASIS_NAMES.index("s1")] += q * q * t * (-16)
    beta[BASIS_NAMES.index("s3")] += q * t * (-4)
    return alpha, beta


@dataclass(frozen=True, eq=False)
class JordanPairReport:
    ok: bool
    residual_alpha: Tuple[MultiPoly, ...]
    residual_beta: Tuple[MultiPoly, ...]
    alpha_classical_kernel: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_jordan_pair(op: Matrix) -> JordanPairReport:
    """Check K alpha = -4qt alpha - t beta(t) and K beta = -4qt beta mod t^2."""
    if (op.nrows, op.ncols) != (DIM, DIM):
        raise ValueError("the Jordan pair lives on the ambient operator")
    tctx = op[0, 0].ctx
    t = tctx.var("t")
    lam = eigenvalue(tctx)
    alpha, beta = jordan_pair(tctx)
    ka = matvec(op, alpha)
    kb = matvec(op, beta)
    res_a = tuple(x - (lam * a - t * b) for x, a, b in zip(ka, alpha, beta))
    res_b = tuple(x - lam * b for x, b in zip(kb, beta))
    classical = all(x.coefficient_of("t", 0).is_zero() for x in ka)
    ok = all(r.is_zero() for r in res_a) and all(r.is_zero() for r in res_b)
    return JordanPairReport(ok, res_a, res_b, classical)


# ---------------------------------------------------------------------------
# the 28 dimensional model
# ---------------------------------------------------------------------------


# (h31, h22, h13) of the primitive middle cohomology: the Hodge numbers of
# H^2 of a K3 surface (Debarre-Kuznetsov, Algebr. Geom. 5, 2018)
DIAMOND = (1, 20, 1)


@dataclass(frozen=True)
class HodgeModel:
    """The primitive middle Hodge numbers (h31, h22, h13), which add up to
    the 22 primitive classes next to the 6 ambient ones."""

    numbers: Tuple[int, int, int]

    def __post_init__(self):
        if min(self.numbers) < 0 or sum(self.numbers) != PRIMITIVE_DIM:
            raise ValueError("expected %d primitive classes and no negative"
                             " Hodge number, not %r"
                             % (PRIMITIVE_DIM, self.numbers))

    @classmethod
    def standard(cls) -> "HodgeModel":
        return cls(DIAMOND)

    def h31(self) -> int:
        return self.numbers[0]

    def matches_diamond(self) -> bool:
        return self.numbers == DIAMOND

    def without_h31(self) -> "HodgeModel":
        """Control: the (3, 1) class moved to (2, 2); breaks the criterion."""
        h31, h22, h13 = self.numbers
        return HodgeModel((0, h22 + h31, h13))


def assemble_full_operator(op: Matrix) -> Matrix:
    """Block diagonal operator on all 28 classes.

    The primitive block is the scalar -4qt (a model axiom; at t = 0 the
    hyperplane annihilates every primitive class, and the first order
    term is the stated scalar).  No ambient/primitive mixing occurs.
    """
    if (op.nrows, op.ncols) != (DIM, DIM):
        raise ValueError("expected the ambient operator")
    lam = eigenvalue(op[0, 0].ctx)
    zero = lam.ctx.zero()
    return Matrix([list(row) + [zero] * PRIMITIVE_DIM for row in op.rows]
                  + [[lam if j == i else zero for j in range(FULL_DIM)]
                     for i in range(DIM, FULL_DIM)])


# ---------------------------------------------------------------------------
# Jordan statistics of the repeated eigenvalue
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AtomStatistics:
    """Computed invariants of the multiplicity 24 eigenvalue -4qt."""

    lambda0: MultiPoly
    nu: int
    nu_prime: int
    gamma: int
    rho: int
    details: Dict[str, object]


def _columns_matrix(cols: Sequence[Sequence[MultiPoly]]) -> Matrix:
    return Matrix([[cols[j][i] for j in range(len(cols))]
                   for i in range(len(cols[0]))])


def _block_structure(op: Matrix) -> Tuple[Matrix, bool, bool]:
    """Split the full operator into its ambient block and two exact checks.

    Returns the 6 x 6 ambient block, whether every ambient/primitive
    entry vanishes, and whether the primitive block equals eigenvalue(ctx)
    times the identity.
    """
    if (op.nrows, op.ncols) != (FULL_DIM, FULL_DIM):
        raise ValueError("expected the full 28 dimensional operator")
    lam = eigenvalue(op[0, 0].ctx)
    rows = op.rows
    unmixed = all(rows[i][j].is_zero() and rows[j][i].is_zero()
                  for i in range(DIM) for j in range(DIM, FULL_DIM))
    scalar = all(rows[i][j] == lam if i == j else rows[i][j].is_zero()
                 for i in range(DIM, FULL_DIM) for j in range(DIM, FULL_DIM))
    return Matrix([r[:DIM] for r in rows[:DIM]]), unmixed, scalar


def atom_statistics(op: Matrix, model: HodgeModel) -> AtomStatistics:
    """Certify the Jordan data of the eigenvalue -4qt on the full operator.

    The block structure is certified first: no ambient/primitive entry
    and a primitive block equal to -4qt times the identity.  The shifted
    operator K - lambda is then zero on the 22 primitive slots, which
    are unit kernel lines of E with zero image, and all elimination runs
    on the 6 x 6 shifted ambient block.  Its entries pass the homogeneity
    guard once and everything after runs at q = 1 over Q[t]/(t^2) (see
    the module docstring): the cofactor profile is read there, E_amb is
    found at order zero and lifted to first order, and ranks away from
    t = 0 are taken over Q(t).  The primitive lines add 22 to dim E and
    lie in the kernel, so E contains the model's h31 lines of type (3, 1):
    nu is h31.
    """
    amb_block, unmixed, scalar = _block_structure(op)
    if not unmixed:
        raise ValueError("the operator mixes ambient and primitive slots")
    if not scalar:
        raise ValueError("the primitive block is not -4*q*t times the identity")
    tctx = op[0, 0].ctx
    lam = eigenvalue(tctx)
    shifted = Matrix([[amb_block[i, j] - (lam if i == j else tctx.zero())
                       for j in range(DIM)] for i in range(DIM)])
    # the guard: entry (i, j) of K - lambda has degree d_j - d_i + 1
    amb = matrix_at_q_one(shifted, 1, BASIS_DEGREES, "K - lambda")
    ctx = tctx.without("q")

    # multiplicity through the shifted characteristic of the ambient block:
    # Y^0 and Y^1 coefficients vanish identically, Y^2 survives at t = 0,
    # so the ambient block carries the eigenvalue exactly twice and the
    # scalar primitive block adds twenty two
    hpoly = char_poly(amb, var="Y")
    low_coeffs_vanish = (hpoly.coefficient_of("Y", 0).is_zero()
                         and hpoly.coefficient_of("Y", 1).is_zero())
    hpoly_t0 = hpoly.coefficient_of("t", 0)
    if not low_coeffs_vanish or hpoly_t0.coefficient_of("Y", 2).is_zero():
        raise ValueError("eigenvalue multiplicity is not 24")
    multiplicity = 2 + PRIMITIVE_DIM

    # the four moving eigenvalue branches stay simple at t = 0
    plain = hpoly.ctx.without_truncation()
    cofactor_profile = squarefree_profile(
        poly_exact_div(hpoly_t0.substitute({}, plain),
                       plain.var("Y") ** 2), "Y")

    # order zero eigenspace, then the first order lift:
    # (N0 + tN1)^2 kills e + tf iff N0^2 e = 0 and
    # N0^2 f = -(N0 N1 + N1 N0) e, read off (K - lambda)^2 over Q[t]/(t^2)
    n0 = amb.map(lambda e: e.coefficient_of("t", 0).scalar_value())
    square = matmul(amb, amb)
    sq, cross = (square.map(lambda e, k=k: e.coefficient_of("t", k)
                            .scalar_value()) for k in (0, 1))
    t = ctx.var("t")
    columns = []
    for e in nullspace_field(sq, Fraction(1)):
        f = solve_field(sq, [-x for x in matvec(cross, e)])
        if f is None:
            raise ValueError("first order lift of the eigenspace is obstructed")
        columns.append([ctx.scalar(a) + t * b for a, b in zip(e, f)])

    # exact check: (K - lambda)^2 annihilates every lifted column mod t^2
    images = []
    for col in columns:
        w = matvec(amb, col)
        if any(not c.is_zero() for c in matvec(amb, w)):
            raise ValueError("lifted basis escapes the generalized eigenspace")
        images.append(w)

    # ranks over Q(t) of the t^2 = 0 representatives, which have degree
    # at most one in t
    e_amb = rank_at_points(_columns_matrix(columns), "t")
    e_dim = e_amb + PRIMITIVE_DIM
    if e_dim != multiplicity:
        raise ValueError("eigenvalue multiplicity is not 24")

    gamma = rank_at_points(_columns_matrix(images), "t")

    # image structure: on the beta line (t beta(t) agrees with t times
    # the t = 0 part of beta modulo t^2); it stays in the ambient slots
    # because the certified off-diagonal blocks vanish.  beta has weight
    # deg s31 = 4.  The line is constant in t, so an image column lies on
    # it over Q(t) exactly when every 2 x 2 minor of [column, beta]
    # vanishes as a polynomial; a zero column passes
    alpha, beta = jordan_pair(tctx)
    beta_line = [ctx.scalar(c) for c in vector_at_q_one(
        [b.coefficient_of("t", 0) for b in beta], 4, BASIS_DEGREES, "beta")]
    on_beta_line = all(
        (col[i] * beta_line[k] - col[k] * beta_line[i]).is_zero()
        for col in images for i, k in combinations(range(DIM), 2))

    # kernel of the restriction: the primitive slots and the beta line
    beta_killed = all(c.is_zero() for c in matvec(shifted, beta))
    alpha_moves = any(not c.is_zero() for c in matvec(shifted, alpha))

    # overlaps of E = E_amb + (primitive slots) with the coordinate
    # subspaces of the model: E meets the ambient slots in E_amb and
    # contains every primitive slot, the (3, 1) ones included
    rho = e_amb
    nu = model.h31()
    # odd cohomology is absent, so the second overlap is empty
    nu_prime = 0

    details = {
        "multiplicity": multiplicity,
        "e_dimension": e_dim,
        "kernel_in_e_dimension": e_dim - gamma,
        "size_two_blocks": gamma,
        "image_in_ambient": unmixed and scalar,
        "image_on_beta_line": on_beta_line,
        "beta_in_kernel": beta_killed,
        "alpha_has_nonzero_image": alpha_moves,
        "primitive_columns_killed": PRIMITIVE_DIM,
        "ambient_kernel_dim_t0": DIM - rank_field(n0),
        "ambient_char_low_coeffs_vanish": low_coeffs_vanish,
        "cofactor_squarefree_profile_t0": cofactor_profile,
    }
    return AtomStatistics(lam, nu, nu_prime, gamma, rho, details)


# ---------------------------------------------------------------------------
# the spectral criterion on the undeformed operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CriterionReport:
    satisfied: bool
    max_multiplicity: int
    zero_multiplicity: int
    simple_nonzero: int
    h31: int
    profile: Dict[int, int]
    notes: Tuple[str, ...]


def irrationality_criterion(m: Matrix, model: HodgeModel) -> CriterionReport:
    """Spectral test on the ambient block of twice the hyperplane action.

    One pass reads the squarefree profile and the zero multiplicity off
    the characteristic polynomial for `criterion_verdict`, which a control
    on another model calls again on the report's profile.  For the
    verified operator the spectrum is four simple nonzero branches plus a
    two dimensional kernel.

    A characteristic polynomial in q is read at q = 1 after the guard; a
    numeric one is read as it is.
    """
    cp = char_poly(m, var="X")
    if "q" in cp.ctx.index:
        cp = at_q_one(cp, m.nrows, "characteristic polynomial")
    zero_mult = next(k for k in range(m.nrows + 1)
                     if cp.coefficient_of("X", k))
    return criterion_verdict(squarefree_profile(cp, "X"), zero_mult, model)


def criterion_verdict(profile: Dict[int, int], zero_mult: int,
                      model: HodgeModel) -> CriterionReport:
    """Satisfied when no multiplicity in `profile` exceeds 2 and h31 > 0."""
    max_mult = max(profile) if profile else 0
    simple_nonzero = profile.get(1, 0) - (1 if zero_mult == 1 else 0)
    h31 = model.h31()
    notes = ["eigenvalue multiplicity profile %r" % (profile,),
             "zero eigenvalue multiplicity %d" % zero_mult,
             "%d simple nonzero eigenvalues" % simple_nonzero]
    satisfied = True
    if max_mult > 2:
        satisfied = False
        notes.append("an eigenvalue has multiplicity %d > 2" % max_mult)
    if h31 == 0:
        satisfied = False
        notes.append("the model has no (3, 1) slot")
    if satisfied:
        notes.append("multiplicities at most two with a (3, 1) class present")
    return CriterionReport(satisfied, max_mult, zero_mult, simple_nonzero,
                           h31, profile, tuple(notes))
