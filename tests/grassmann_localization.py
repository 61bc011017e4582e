"""Atiyah-Bott localization on G(2, n) over a point, an oracle for the
Grassmannian integrals that shares no code with `gmquantum`.

A torus scales the coordinates of an n-space with weights x_0..x_(n-1).
Its fixed points on G(2, n) are the coordinate planes S = <e_i, e_j>.  At
S the dual tautological sub S^v has Chern roots -x_i, -x_j, so
H = -(x_i + x_j) and A = x_i x_j, and the tangent space Hom(S, Q) has
weights x_k - x_m for m in S and k not in S.  A class of degree
dim G(2, n) = 2(n - 2) integrates to the sum over fixed points of its
restriction divided by the product of the tangent weights (Atiyah-Bott,
Topology 23, 1984); classes of other degrees give weight-dependent sums.

The Schubert class sigma_(a,b) restricts to the Giambelli determinant
h_a h_b - h_(a+1) h_(b-1) in the complete symmetric polynomials h_k of the
roots of S^v, since c_k(Q) = h_k there.
"""

from fractions import Fraction
from itertools import combinations
from math import prod


def fixed_points(weights):
    """(roots of S^v, product of tangent weights) at each fixed point;
    a weight choice with a zero tangent weight is refused."""
    n = len(weights)
    for plane in combinations(range(n), 2):
        tangent = [weights[k] - weights[m] for m in plane
                   for k in range(n) if k not in plane]
        if 0 in tangent:
            raise ValueError("zero tangent weight at fixed point %s"
                             % (plane,))
        yield tuple(-weights[m] for m in plane), prod(tangent)


def complete(k, roots):
    """h_k of the two roots, zero for k < 0."""
    y1, y2 = roots
    return sum(y1 ** m * y2 ** (k - m) for m in range(k + 1))


def schubert_at(a, b, roots):
    """sigma_(a,b) at a fixed point, by Giambelli in the roots of S^v."""
    return (complete(a, roots) * complete(b, roots)
            - complete(a + 1, roots) * complete(b - 1, roots))


def bott_sum(restriction, weights):
    """Sum of restriction(H, A, roots) / e(T_p) over the fixed points."""
    total = Fraction(0)
    for roots, euler in fixed_points(weights):
        h, a = sum(roots), prod(roots)
        total += Fraction(restriction(h, a, roots)) / euler
    return total
