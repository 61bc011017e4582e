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

`chi_y` applies the same sum to the chi_y genus of a zero locus X of
O(d_1) + ... + O(d_r) in G(2, n) (Hirzebruch, *Topological Methods in
Algebraic Geometry*): chi_y(X) = sum_p chi(X, Omega^p) y^p is the integral
over X of the product, over the Chern roots x of T_X, of
(1 + y e^-x) x / (1 - e^-x).  In K-theory T_X = T_G - sum_k O(d_k), and
int_X c = int_G c * prod_k d_k H.  At each fixed point the genus is a
power series in the tangent weights; scaling every weight by e, the
integral is the e^(dim G) part, read from a series truncated at
e^(dim X) times the Euler class.  That runs at y = 0, ..., dim X, and
interpolation gives the polynomial.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod


def tangent_weights(weights):
    """(roots of S^v, tangent weights) at each fixed point; a weight
    choice with a zero tangent weight is refused."""
    n = len(weights)
    for plane in combinations(range(n), 2):
        tangent = [weights[k] - weights[m] for m in plane
                   for k in range(n) if k not in plane]
        if 0 in tangent:
            raise ValueError("zero tangent weight at fixed point %s"
                             % (plane,))
        yield tuple(-weights[m] for m in plane), tangent


def fixed_points(weights):
    """(roots of S^v, product of tangent weights) at each fixed point."""
    for roots, tangent in tangent_weights(weights):
        yield roots, prod(tangent)


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


def _times(a, b):
    """Product of two power series, truncated to the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _inverse(a):
    """1 / a for a power series with a nonzero constant term."""
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def genus_series(y, order):
    """(1 + y e^-x) x / (1 - e^-x) through x^order."""
    exp_minus = [Fraction((-1) ** k, factorial(k)) for k in range(order + 1)]
    # (1 - e^-x) / x = sum_k (-1)^k x^k / (k + 1)!
    todd = _inverse([Fraction((-1) ** k, factorial(k + 1))
                     for k in range(order + 1)])
    return _times([1 + y] + [y * c for c in exp_minus[1:]], todd)


def _interpolate(values):
    """Coefficients of the polynomial of degree < len(values) that takes
    values[y] at y = 0, 1, ... (Lagrange)."""
    m = len(values)
    coeffs = [Fraction(0)] * m
    for j, v in enumerate(values):
        basis, denom = [Fraction(1)], 1
        for k in range(m):
            if k != j:
                basis = [a - k * b for a, b in zip([0] + basis, basis + [0])]
                denom *= j - k
        coeffs = [c + v * b / denom for c, b in zip(coeffs, basis)]
    return coeffs


def chi_y(normal_degrees, weights):
    """Coefficients of chi_y(X) in y, for X the zero locus of a section of
    the sum of O(d), d in `normal_degrees`, in G(2, len(weights))."""
    dim = 2 * (len(weights) - 2) - len(normal_degrees)
    values = []
    for y in range(dim + 1):
        genus = genus_series(y, dim)

        def at(root):
            return [c * root ** k for k, c in enumerate(genus)]

        total = Fraction(0)
        for roots, tangent in tangent_weights(weights):
            h = sum(roots)
            series = [Fraction(1)] + [Fraction(0)] * dim
            for w in tangent:
                series = _times(series, at(w))
            for d in normal_degrees:
                series = _times(series, _inverse(at(d * h)))
            euler = prod(d * h for d in normal_degrees)
            total += series[dim] * euler / prod(tangent)
        values.append(total)
    return _interpolate(values)
