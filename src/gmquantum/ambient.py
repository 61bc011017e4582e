"""The six dimensional ambient cohomology algebra of the fourfold.

The fourfold sits in G(2, 5) as a quadric section of a codimension 2
linear section, so its class there is twice the square of the hyperplane
class.  The ambient part of the cohomology has one basis element in
degrees 0, 1, 3, 4 and two in degree 2; each basis element is the
restriction of a Schubert class, and integrals over the fourfold reduce
to Grassmannian integrals against that fundamental class.

Ambient classes are plain length 6 tuples of rationals, in the fixed
basis order (1, h, s2, s11, s3, s31).  The point class is s31 / 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .linalg import Matrix, inverse_field
from .schubert import Grassmannian2

Vec = Tuple[Fraction, ...]

BASIS_NAMES = ("s0", "s1", "s2", "s11", "s3", "s31")
BASIS_DEGREES = (0, 1, 2, 2, 3, 4)
LIFT_PARTITIONS = ((0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (3, 1))
DIM = 6


def unit(index: int) -> Vec:
    return tuple(Fraction(1 if i == index else 0) for i in range(DIM))


def vec_scale(a: Vec, c) -> Vec:
    c = Fraction(c)
    return tuple(x * c for x in a)


class AmbientRing:
    """Cup products and the intersection pairing on the ambient classes."""

    def __init__(self):
        self.g = Grassmannian2(5)
        self.names = BASIS_NAMES
        self.degrees = BASIS_DEGREES
        self.index = {n: i for i, n in enumerate(BASIS_NAMES)}
        self._hyper2 = self.g.power(self.g.sigma(1), 2)
        self._gram = None
        self._dual = None

    def basis_vector(self, name: str) -> Vec:
        return unit(self.index[name])

    def lift(self, vec: Sequence):
        """Schubert class on G(2, 5) restricting to the given ambient class."""
        out = self.g.zero()
        for coeff, part in zip(vec, LIFT_PARTITIONS):
            if coeff:
                out = self.g.add(out, self.g.sigma(part[0], part[1], coeff))
        return out

    def pairing(self, a: Sequence, b: Sequence) -> Fraction:
        """Intersection number on the fourfold of two ambient classes."""
        prod = self.g.multiply(self.lift(a), self.lift(b))
        return 2 * self.g.integrate(self.g.multiply(prod, self._hyper2))

    def integrate(self, a: Sequence) -> Fraction:
        return self.pairing(a, unit(0))

    def gram(self) -> Matrix:
        if self._gram is None:
            self._gram = Matrix([[self.pairing(unit(i), unit(j))
                                  for j in range(DIM)] for i in range(DIM)])
        return self._gram

    def dual_basis(self) -> List[Vec]:
        """Vectors d_j with pairing(e_i, d_j) = delta_ij."""
        if self._dual is None:
            inv = inverse_field(self.gram(), Fraction(1))
            self._dual = [tuple(inv.rows[i][j] for i in range(DIM))
                          for j in range(DIM)]
        return self._dual

    def cup(self, a: Sequence, b: Sequence) -> Vec:
        """Product of two ambient classes, expanded in the fixed basis.

        The coefficient on e_k is the pairing of the product against the
        k-th dual basis class, and that pairing only needs Grassmannian
        integrals, so no separate restriction formulas enter.
        """
        prod = self.g.multiply(self.lift(a), self.lift(b))
        duals = self.dual_basis()
        out = []
        for k in range(DIM):
            test = self.g.multiply(prod, self.lift(duals[k]))
            out.append(2 * self.g.integrate(self.g.multiply(test, self._hyper2)))
        return tuple(out)

    def point_class(self) -> Vec:
        return vec_scale(unit(self.index["s31"]), Fraction(1, 2))

    def degree_of(self, vec: Sequence):
        """Common degree of the nonzero components; None for zero, raises if mixed."""
        degs = {BASIS_DEGREES[i] for i, c in enumerate(vec) if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("ambient class is not homogeneous")
        return degs.pop()

    def format(self, vec: Sequence) -> str:
        parts = []
        for c, name in zip(vec, BASIS_NAMES):
            if not c:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%s*%s" % (c, name))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out
