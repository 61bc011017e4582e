"""Schubert calculus on the Grassmannian of 2-planes in an n-space.

Classes are indexed by partitions (a, b) with n-2 >= a >= b >= 0 inside
the 2 x (n-2) box.  A cohomology class is a dict partition -> rational.
Products come from the special Pieri rule iterated through the Giambelli
determinant, so only multiplication by the single-row classes is primitive;
terms leaving the box are dropped, which is valid because the structure
constants of the box classes agree with the Littlewood-Richardson numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

Partition = Tuple[int, int]
SchubertClass = Dict[Partition, Fraction]


class Grassmannian2:
    """Cohomology ring of G(2, n) with its Schubert basis."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need an ambient space of dimension at least 3")
        self.width = n - 2
        self.dimension = 2 * (n - 2)
        self.partitions = [(a, b) for a in range(self.width + 1)
                           for b in range(a + 1)]
        self.point = (self.width, self.width)

    def sigma(self, a: int, b: int = 0) -> SchubertClass:
        if not (self.width >= a >= b >= 0):
            raise ValueError("partition (%d, %d) leaves the %d x 2 box"
                             % (a, b, self.width))
        return {(a, b): Fraction(1)}

    def add(self, x: SchubertClass, y: SchubertClass) -> SchubertClass:
        out = dict(x)
        for part, c in y.items():
            acc = out.get(part, Fraction(0)) + c
            if acc:
                out[part] = acc
            else:
                out.pop(part, None)
        return out

    def scale(self, x: SchubertClass, c) -> SchubertClass:
        c = Fraction(c)
        if not c:
            return {}
        return {p: v * c for p, v in x.items()}

    def pieri_row(self, m: int, x: SchubertClass) -> SchubertClass:
        """Multiply by the single-row class of degree m.

        A negative row index means the zero class (used by the Giambelli
        two-term recursion).  Each summand adds a horizontal strip: the new
        partition (mu1, mu2) satisfies mu1 >= lam1 >= mu2 >= lam2 with
        mu1 bounded by the box width.
        """
        if m < 0:
            return {}
        if m == 0:
            return dict(x)
        out: SchubertClass = {}
        for (l1, l2), c in x.items():
            for mu2 in range(l2, l1 + 1):
                mu1 = l1 + l2 + m - mu2
                if mu1 < max(mu2, l1) or mu1 > self.width:
                    continue
                acc = out.get((mu1, mu2), Fraction(0)) + c
                if acc:
                    out[(mu1, mu2)] = acc
                else:
                    out.pop((mu1, mu2), None)
        return out

    def multiply_by(self, part: Partition, x: SchubertClass) -> SchubertClass:
        """Multiply by one Schubert class, via the Giambelli determinant.

        sigma_{a,b} = det [[s_a, s_{a+1}], [s_{b-1}, s_b]] in the single-row
        classes, so sigma_{a,b} * x = s_a(s_b x) - s_{a+1}(s_{b-1} x).
        """
        a, b = part
        first = self.pieri_row(a, self.pieri_row(b, x))
        if b == 0:
            return first
        second = self.pieri_row(a + 1, self.pieri_row(b - 1, x))
        return self.add(first, self.scale(second, -1))

    def multiply(self, x: SchubertClass, y: SchubertClass) -> SchubertClass:
        out: SchubertClass = {}
        for part, c in x.items():
            out = self.add(out, self.scale(self.multiply_by(part, y), c))
        return out

    def power(self, x: SchubertClass, k: int) -> SchubertClass:
        out = self.sigma(0, 0)
        for _ in range(k):
            out = self.multiply(out, x)
        return out

    def integrate(self, x: SchubertClass) -> Fraction:
        """Coefficient of the point class (the full box)."""
        return x.get(self.point, Fraction(0))
