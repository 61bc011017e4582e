"""Exact linear algebra over the rationals and over polynomial rings.

* Division of `MultiPoly` by leading terms, which is exact division in
  several variables and Euclidean division in one; the monic gcd in one
  variable, and from its chain the squarefree profile.
* Matrix routines, split by what they assume of the entries: Gaussian
  elimination needs a field, and the subset cofactor expansion works over
  any commutative ring, truncated rings included.  The rank over Q(t) of
  a matrix of polynomials in t is read at a few rational points: a
  nonzero r x r minor of degree at most r D has at most r D roots.
* Characteristic polynomials, returned as `MultiPoly` in the entry context
  extended by the chosen variable, so their homogeneity can be checked
  against the grading.
* The grading itself: deg q = 2 makes every q-dependent problem here
  conjugate to its value at q = 1, so `at_q_one` checks homogeneity and
  sets q = 1.  No elimination runs over Q(q).

`RatFunc`, the field Q(q), is a pair of `MultiPoly` in one variable:
numerator and monic denominator, coprime.  The package does not use it.
The tests run their generic Q(q) oracle over it; it stays in this module
because the benchmark's tracer hooks `RatFunc.__mul__` and checks that
every hook it lists still resolves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import MultiPoly, VarContext, sum_of_products

# ---------------------------------------------------------------------------
# polynomials in one variable
# ---------------------------------------------------------------------------


def poly_divmod(a: MultiPoly, b: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """(quotient, rest) with a = quotient * b + rest.

    Leading terms are divided while b's divides the rest's, so in one
    variable the rest is the Euclidean remainder.  With a variable of
    negative degree the monomial order is not a well-order, so the loop
    also stops once a quotient exponent exceeds a's degree in that
    variable: an exact quotient never does, and below that bound the
    rest's leading monomials descend through finitely many.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ctx = a.ctx
    if ctx.nilpotent:
        raise ValueError("division needs an untruncated ring")
    quotient = {}
    bexp, bc = b.leading()
    top = [a.max_power(name) for name in ctx.names]
    while a:
        aexp, ac = a.leading()
        if any(x < y for x, y in zip(aexp, bexp)):
            break
        exp = tuple(x - y for x, y in zip(aexp, bexp))
        if any(e > d for e, d in zip(exp, top)):
            break
        quotient[exp] = ac / bc
        a = a - ctx.monomial(exp, quotient[exp]) * b
    return MultiPoly(ctx, quotient), a


def poly_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact quotient a / b in a polynomial ring; raises if not divisible."""
    quotient, rest = poly_divmod(a, b)
    if rest:
        raise ValueError("polynomial division is not exact")
    return quotient


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of two polynomials in one variable; gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a * (1 / a.leading()[1]) if a else a


def squarefree_profile(p: MultiPoly, var: str) -> Dict[int, int]:
    """{multiplicity: number of distinct roots} of p, a polynomial in `var`
    alone over Q (other variables of its context may not occur).

    Along f_0 = p, f_k+1 = gcd(f_k, f_k'), deg f_k - deg f_k+1 counts the
    roots of multiplicity above k.
    """
    if any(p.max_power(name) for name in p.ctx.names if name != var):
        raise ValueError("%s is not a polynomial in %s alone" % (p, var))
    f = p.substitute({}, p.ctx.without_truncation())
    degrees = [f.max_power(var)]
    while degrees[-1]:
        f = poly_gcd(f, f.derivative(var))
        degrees.append(f.max_power(var))
    # above[k]: the number of roots of multiplicity above k
    above = [d - e for d, e in zip(degrees, degrees[1:])] + [0]
    return {k: above[k - 1] - above[k] for k in range(1, len(above))
            if above[k - 1] != above[k]}


# ---------------------------------------------------------------------------
# univariate rational functions over the rationals
# ---------------------------------------------------------------------------


RATFUNC_CONTEXT = VarContext(("x",), (1,))


class RatFunc:
    """Element of Q(x) for a single variable x.

    Stored as a pair of `MultiPoly` over `RATFUNC_CONTEXT`: a numerator
    coprime to a monic denominator.  Nothing in the package computes with
    it: it is the field of the tests' generic Q(q) elimination, which the
    q = 1 route is checked against.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        """From two `MultiPoly` over `RATFUNC_CONTEXT`, or from two lists of
        rational coefficients, low degree first."""
        num, den = (p if isinstance(p, MultiPoly) else MultiPoly(
            RATFUNC_CONTEXT, {(k,): c for k, c in enumerate(p)})
            for p in (num, den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = RATFUNC_CONTEXT.one()
        elif not (num.is_scalar() or den.is_scalar()):
            g = poly_gcd(num, den)
            if not g.is_scalar():
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        lc = den.leading()[1]
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
        self.num, self.den = num, den

    @classmethod
    def one(cls) -> "RatFunc":
        return cls([1])

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc([other])
        return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Rectangular dense matrix, entries of any consistent arithmetic type."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def copy_rows(self) -> List[List]:
        return [list(r) for r in self.rows]

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(x) for x in row] for row in self.rows])

    def col(self, j: int) -> List:
        return [self.rows[i][j] for i in range(self.nrows)]

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


def scalar_matrix(n: int, value) -> Matrix:
    zero = value - value
    return Matrix([[value if i == j else zero for j in range(n)] for i in range(n)])


def _dot(row: Sequence, col: Sequence):
    """sum_k row[k] * col[k], skipping every product with a zero factor.

    When every product left has two `MultiPoly` factors the sum runs on
    their integer numerators (`sum_of_products`); other entries multiply
    and add as they are.  A sum with no product left is 0 in the type the
    products would have had: `ctx.zero()` when an entry is a `MultiPoly`.
    """
    pairs = [(x, y) for x, y in zip(row, col) if x and y]
    if pairs and all(type(x) is MultiPoly and type(y) is MultiPoly
                     for x, y in pairs):
        return sum_of_products(pairs[0][0].ctx, pairs)
    if pairs:
        return sum((x * y for x, y in pairs[1:]), pairs[0][0] * pairs[0][1])
    for z in (*row, *col):
        if isinstance(z, MultiPoly):
            return z.ctx.zero()
    return (row[0] - row[0]) + (col[0] - col[0])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a * b; a product with a zero factor is skipped (see `_dot`)."""
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions differ")
    cols = [b.col(j) for j in range(b.ncols)]
    return Matrix([[_dot(row, col) for col in cols] for row in a.rows])


def matvec(a: Matrix, v: Sequence) -> List:
    """a * v; a product with a zero factor is skipped (see `_dot`)."""
    if a.ncols != len(v):
        raise ValueError("dimension mismatch")
    return [_dot(row, v) for row in a.rows]


# -- field elimination ------------------------------------------------------


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form over a field; returns (rref, pivot columns).
    Row operations skip the zero entries of the pivot row."""
    rows = m.copy_rows()
    nr, nc = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv if x else x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(rows), pivots


def rank_field(m: Matrix) -> int:
    return len(rref(m)[1])


def rank_at_points(m: Matrix, var: str) -> int:
    """Rank over Q(var) of a matrix of `MultiPoly` in `var` alone.

    With D the largest degree of an entry, a nonzero r x r minor has
    degree at most r D <= min(rows, cols) D, so it vanishes at no more
    than that many of the points var = 0, 1, ..., min(rows, cols) D; the
    rank is the largest rank over Q at them, and no point exceeds it, so
    the scan stops at full rank min(rows, cols).  Each entry is read as
    the polynomial it stores (a t^2 = 0 representative included).
    """
    degree = max(x.max_power(var) for row in m.rows for x in row)
    full, rank = min(m.nrows, m.ncols), 0
    for point in range(full * degree + 1):
        rank = max(rank, rank_field(m.map(
            lambda x: x.evaluate({var: Fraction(point)}))))
        if rank == full:
            break
    return rank


def solve_field(a: Matrix, b: Sequence) -> Optional[List]:
    """One solution of a x = b over a field, or None if inconsistent.

    Free variables are set to zero.
    """
    if len(b) != a.nrows:
        raise ValueError("dimension mismatch")
    aug = Matrix([row + [bv] for row, bv in zip(a.copy_rows(), b)])
    red, pivots = rref(aug)
    if a.ncols in pivots:
        return None
    sample = a.rows[0][0]
    zero = sample - sample
    x = [zero] * a.ncols
    for i, c in enumerate(pivots):
        x[c] = red.rows[i][a.ncols]
    return x


def nullspace_field(m: Matrix, one) -> List[List]:
    """Basis of the right kernel over a field."""
    red, pivots = rref(m)
    zero = one - one
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m.ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red.rows[i][fc]
        basis.append(v)
    return basis


def inverse_field(m: Matrix, one) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    zero = one - one
    aug = Matrix([m.rows[i] + [one if j == i else zero for j in range(n)]
                  for i in range(n)])
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([red.rows[i][n:] for i in range(n)])


# -- characteristic polynomials ---------------------------------------------


def _det_cofactor(rows: List[List[MultiPoly]], ctx: VarContext) -> MultiPoly:
    """Subset dynamic program over columns; any commutative ring.

    A cofactor product with a zero factor is skipped, but its column still
    counts towards the sign of the columns after it.
    """
    n = len(rows)
    f = [None] * (1 << n)
    f[0] = ctx.one()
    for mask in range(1, 1 << n):
        r = bin(mask).count("1") - 1
        acc = ctx.zero()
        pos = 0
        for j in range(n):
            if not mask & (1 << j):
                continue
            entry, sub = rows[r][j], f[mask ^ (1 << j)]
            if entry and sub:
                term = entry * sub
                acc = acc - term if (r + pos) % 2 else acc + term
            pos += 1
        f[mask] = acc
    return f[(1 << n) - 1]


def char_poly(m: Matrix, var: str = "X") -> MultiPoly:
    """det(var * I - m) as a MultiPoly in the entry context extended by var.

    The determinant is the subset cofactor expansion, which works over any
    commutative ring (truncated ones included) and is limited to n <= 12.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    if n > 12:
        raise ValueError("cofactor expansion limited to 12 rows")
    base = None
    for row in m.rows:
        for x in row:
            if isinstance(x, MultiPoly):
                base = x.ctx
                break
        if base:
            break
    if base is None:
        ext = VarContext((var,), (1,))
    else:
        if var in base.index:
            raise ValueError("variable %r already used by the entries" % var)
        ext = base.extended((var,), (1,))
    x = ext.var(var)

    def lift(entry):
        if isinstance(entry, MultiPoly):
            return entry.substitute({}, ext)
        return ext.scalar(entry)

    rows = [[(x - lift(m.rows[i][j])) if i == j else -lift(m.rows[i][j])
             for j in range(n)] for i in range(n)]
    return _det_cofactor(rows, ext)



# -- the grading: q = 1 -----------------------------------------------------
#
# deg q = 2.  A matrix whose entry (i, j) is homogeneous of degree
# d_j - d_i + s reads M(q) = q^(s/2) D^-1 M(1) D over Q(sqrt q), with
# D = diag(q^(d_j / 2)); a vector of weight w reads q^(w/2) D^-1 v(1).  So
# ranks, kernels, squarefree profiles and Groebner leading terms over Q(q)
# are those of the value at q = 1, once the guard has checked homogeneity.
# A further variable t of degree e enters as q^(e/2) t: M(q, t) is
# conjugate to q^(s/2) M(1, q^(e/2) t), and t -> q^(e/2) t is a field
# automorphism of Q(sqrt q)(t), so ranks over Q(q, t) are ranks over Q(t)
# at q = 1.


def at_q_one(p: MultiPoly, degree: Optional[int], entry: str) -> MultiPoly:
    """p at q = 1, in its context without q, once p is homogeneous.

    `degree` None accepts any single degree (a generator of a homogeneous
    ideal).  No two terms of a homogeneous p merge.  Raises ValueError
    naming `entry` if p is not homogeneous of `degree`.
    """
    if not p.is_homogeneous(degree):
        raise ValueError("%s is not homogeneous%s: %s"
                         % (entry, "" if degree is None
                            else " of degree %d" % degree, p))
    rest = p.ctx.without("q")
    return p.substitute({"q": rest.one()}, rest)


def vector_at_q_one(vec: Sequence[MultiPoly], weight: int,
                    degrees: Sequence[int], what: str) -> List[Fraction]:
    """A vector of `weight` at q = 1: coordinate j has degree weight - d_j."""
    return [at_q_one(c, weight - d, "%s coordinate %d" % (what, j))
            .scalar_value() for j, (c, d) in enumerate(zip(vec, degrees))]


def matrix_at_q_one(m: Matrix, shift: int, degrees: Sequence[int],
                    what: str) -> Matrix:
    """m at q = 1, entries in their context without q: entry (i, j) has
    degree d_j - d_i + shift."""
    return Matrix([[at_q_one(m.rows[i][j], degrees[j] - degrees[i] + shift,
                             "%s entry (%d, %d)" % (what, i, j))
                    for j in range(m.ncols)] for i in range(m.nrows)])
