"""The six dimensional ambient cohomology algebra of the fourfold.

The ambient part of the cohomology has one basis element in degrees 0,
1, 3, 4 and two in degree 2, in the fixed order (1, h, s2, s11, s3, s31);
each e_i is the restriction of a Schubert class sigma_i of G(2, 5).  The
algebra is its triple intersection numbers T_ijl = int e_i e_j e_l.  The
fourfold is a quadric section of a codimension 2 linear section, so its
class in G(2, 5) is twice the square of the hyperplane class, and

    T_ijl = 2 int_G(2,5) sigma_i sigma_j sigma_l sigma_1^2.

In the Chern classes (H, A) of the dual tautological sub, sigma_{a,b} =
A^b c_{a-b}(Q) with c(Q) = 1 + H + (H^2 - A) + (H^3 - 2HA).  Only the
seven triples i <= j <= l with degrees summing to 4 can be nonzero, and
the factor sigma_1^2 = H^2 leaves them three top monomials H^(6-2b) A^b,
b = 0, 1, 2.  One `grassmann_push` integrates all three, each tagged by
w^b for a variable w of degree 0, and int H^(6-2b) A^b is the
coefficient of w^b in the result.
The rest is read off T: the Gram matrix is T_ij0 (e_0 = 1), and pairing
e_i e_j against the dual basis class dual_k gives the cup table
e_i e_j = sum_k (sum_l T_ijl (dual_k)_l) e_k.

Ambient classes are plain length 6 tuples of rationals.  The point class
is s31 / 2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import List, Tuple

from .linalg import Matrix, inverse_field
from .poly import VarContext
from .towers import grassmann_push

Vec = Tuple[Fraction, ...]

BASIS_NAMES = ("s0", "s1", "s2", "s11", "s3", "s31")
BASIS_DEGREES = (0, 1, 2, 2, 3, 4)
LIFT_PARTITIONS = ((0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (3, 1))
DIM = 6


class AmbientRing:
    """The triple intersection numbers of the ambient classes, with the
    Gram matrix, dual basis and cup table they determine, all computed
    once on construction.

    `triples[i][j][l]` is T_ijl for every ordered triple,
    `cup_table[i][j]` is e_i e_j in the basis and `gram()` is the
    intersection pairing on the basis.
    """

    def __init__(self):
        ctx = VarContext(("H", "A", "w"), (1, 2, 0))
        H, A, w = (ctx.var(name) for name in ctx.names)
        quotient = [ctx.one(), H, H ** 2 - A, H ** 3 - 2 * H * A]
        sigma = [A ** b * quotient[a - b] for a, b in LIFT_PARTITIONS]
        pushed = grassmann_push(sum((H ** (6 - 2 * b) * (w * A) ** b
                                     for b in range(3)), ctx.zero()),
                                "H", "A", [ctx.one()] + [ctx.zero()] * 5)
        # int 2 H^2 x, x of degree 4, weighs x's coefficients of H^(4-2b) A^b
        weight = {ctx.key((4 - 2 * b, b, 0)):
                  2 * pushed.coefficient_of("w", b).scalar_value()
                  for b in range(3)}
        self.triples = [[[Fraction(0)] * DIM for _ in range(DIM)]
                        for _ in range(DIM)]
        for ijl in combinations_with_replacement(range(DIM), 3):
            if sum(BASIS_DEGREES[i] for i in ijl) != 4:
                continue
            i, j, l = ijl
            x = sigma[i] * sigma[j] * sigma[l]
            value = Fraction(sum(n * weight[k] for k, n in x.nums.items()),
                             x.den)
            for a, b, c in permutations(ijl):
                self.triples[a][b][c] = value
        self._gram = Matrix([[self.triples[i][j][0] for j in range(DIM)]
                             for i in range(DIM)])
        inv = inverse_field(self._gram, Fraction(1))
        self._duals = [tuple(inv.rows[l][k] for l in range(DIM))
                       for k in range(DIM)]
        # e_i e_j = sum of T_ijl (row l of the Gram inverse), l in its support
        self.cup_table = [[(Fraction(0),) * DIM] * DIM for _ in range(DIM)]
        for i, j, l in product(range(DIM), repeat=3):
            t, cup = self.triples[i][j][l], self.cup_table[i]
            if t:
                cup[j] = tuple(v + t * x if x else v
                               for v, x in zip(cup[j], inv.rows[l]))

    def gram(self) -> Matrix:
        return self._gram

    def dual_basis(self) -> List[Vec]:
        """Vectors d_j with e_i . d_j = delta_ij under the Gram matrix."""
        return self._duals
