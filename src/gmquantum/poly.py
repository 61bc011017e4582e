"""Exact sparse polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one positive
denominator: `nums` maps the int key of each monomial to a nonzero
integer, and the value is sum_key nums[key] * monomial(key) / den.  A
`VarContext` fixes the variable names, their (weighted) degrees, and
optional nilpotency truncations such as t^2 = 0; polynomials from
different contexts never mix.  The context owns the key codec: the
exponent vector (e_0, ..., e_n-1) has key sum_v e_v 2^(64 v), so keys add
as monomials multiply.  No field may carry into the next, so every
exponent lies in [0, 2^64) and each polynomial records a `bound` on its
exponents; a product whose bounds add up to 2^64 raises ValueError.
Products reduce the denominator against the gcd of the numerators.  Sums
keep the lcm of their denominators, and a contraction in `quantum` the
product of its factors' denominators, unreduced, because `==`
cross-multiplies; `str`, `hash` and the read-only `.terms` view
({exponent tuple: Fraction}) reduce.

Variable degrees may be negative (a deformation parameter of degree -1 is
used downstream), so the weighted degree of a monomial is an integer of
either sign.  Every monomial comparison (leading terms, Groebner bases,
printing) uses `weighted_grevlex_key`: weighted degree first, then
reverse lexicographic order in the context's declared variable order.
Each context memoises that key per monomial key.  The same weights decide
the homogeneity checks.  Only a context with nilpotent variables runs the
truncation test, once per term it builds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

Exponent = Tuple[int, ...]

FIELD = 64
MASK = (1 << FIELD) - 1
_new = object.__new__


def weighted_grevlex_key(ctx: "VarContext", expvec: Exponent):
    """Grevlex graded by the declared variable degrees, not raw totals.

    Monomials compare by weighted degree first, so homogeneous ideals in
    rings with degree 2 generators reduce within a single graded piece.
    """
    return ctx.order_key(ctx.key(expvec))


class VarContext:
    """Ordered variables with integer degrees and optional truncations.

    `nilpotent` maps a variable name to the exponent at which it vanishes,
    e.g. {"t": 2} realizes the ring Q[q,t]/(t^2): any term with t-exponent
    >= 2 is dropped on normalization, which is exactly the truncated pair
    product (a0, a1)(b0, b1) = (a0 b0, a0 b1 + a1 b0).
    """

    def __init__(self, names, degrees, nilpotent=None):
        names = tuple(names)
        degrees = tuple(int(d) for d in degrees)
        if len(names) != len(degrees):
            raise ValueError("one degree per variable required")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.degrees = degrees
        self.index = {n: i for i, n in enumerate(names)}
        self.nilpotent = dict(nilpotent or {})
        for n in self.nilpotent:
            if n not in self.index:
                raise ValueError("nilpotent truncation for unknown variable %r" % n)
        self.shifts = tuple(range(0, FIELD * len(names), FIELD))
        self.truncation = tuple((self.shifts[self.index[n]], order)
                                for n, order in self.nilpotent.items())
        self._keys: Dict[Exponent, int] = {}
        self._exponents: Dict[int, Exponent] = {}
        self._order: Dict[int, tuple] = {}
        self._without: Dict[str, VarContext] = {}

    @property
    def nvars(self):
        return len(self.names)

    def weighted_degree(self, expvec: Exponent) -> int:
        return sum(e * d for e, d in zip(expvec, self.degrees))

    # -- the key codec ----------------------------------------------------

    def key(self, expvec: Exponent) -> int:
        """The int key of an exponent vector; refuses one that could carry."""
        key = self._keys.get(expvec)
        if key is None:
            if any(e < 0 or e >> FIELD for e in expvec):
                raise ValueError("exponent %r would carry" % (expvec,))
            key = self._keys[expvec] = sum(
                e << s for e, s in zip(expvec, self.shifts))
        return key

    def exponent(self, key: int) -> Exponent:
        exp = self._exponents.get(key)
        if exp is None:
            exp = self._exponents[key] = tuple((key >> s) & MASK
                                               for s in self.shifts)
        return exp

    def guard(self, bound: int) -> int:
        """`bound` if exponents up to it cannot carry, else ValueError."""
        if bound >> FIELD:
            raise ValueError("exponent bound %d would carry" % bound)
        return bound

    def order_key(self, key: int) -> tuple:
        """weighted_grevlex_key of the monomial with this key, memoised."""
        order = self._order.get(key)
        if order is None:
            exp = self.exponent(key)
            order = self._order[key] = (self.weighted_degree(exp),
                                        tuple(-e for e in reversed(exp)))
        return order

    def truncates(self, key: int) -> bool:
        return any((key >> s) & MASK >= order for s, order in self.truncation)

    # -- constructors -----------------------------------------------------

    def scalar(self, value) -> "MultiPoly":
        coeff = self.coerce_coeff(value)
        return MultiPoly.from_numerators(
            self, {0: coeff.numerator} if coeff else {}, coeff.denominator, 0)

    def coerce_coeff(self, value) -> Fraction:
        return value if isinstance(value, Fraction) else Fraction(value)

    def zero(self) -> "MultiPoly":
        return MultiPoly.from_numerators(self, {}, 1, 0)

    def one(self) -> "MultiPoly":
        return self.scalar(1)

    def var(self, name: str) -> "MultiPoly":
        return MultiPoly.from_numerators(
            self, {1 << self.shifts[self.index[name]]: 1}, 1, 1)

    def monomial(self, expvec: Exponent, coeff=1) -> "MultiPoly":
        return MultiPoly(self, {tuple(expvec): coeff})

    def extended(self, names, degrees) -> "VarContext":
        """New context with extra variables appended, none truncated."""
        return VarContext(self.names + tuple(names), self.degrees + tuple(degrees),
                          nilpotent=self.nilpotent)

    def without_truncation(self) -> "VarContext":
        return VarContext(self.names, self.degrees)

    def without(self, name: str) -> "VarContext":
        """This context with the variable `name` dropped, memoised."""
        rest = self._without.get(name)
        if rest is None:
            i = self.index[name]
            rest = self._without[name] = VarContext(
                self.names[:i] + self.names[i + 1:],
                self.degrees[:i] + self.degrees[i + 1:],
                {n: o for n, o in self.nilpotent.items() if n != name})
        return rest

    def __eq__(self, other):
        return (isinstance(other, VarContext)
                and self.names == other.names
                and self.degrees == other.degrees
                and self.nilpotent == other.nilpotent)

    def __hash__(self):
        return hash((self.names, self.degrees, tuple(sorted(self.nilpotent.items()))))

    def __repr__(self):
        parts = ["%s:%d" % (n, d) for n, d in zip(self.names, self.degrees)]
        return "VarContext(%s)" % ", ".join(parts)


class MultiPoly:
    """Immutable sparse polynomial attached to a VarContext."""

    __slots__ = ("ctx", "nums", "den", "bound")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponent, object]):
        """From {exponent tuple: rational}; zero and truncated terms drop."""
        coeffs = {ctx.key(tuple(e)): ctx.coerce_coeff(c)
                  for e, c in terms.items() if c}
        if ctx.truncation:
            coeffs = {k: c for k, c in coeffs.items() if not ctx.truncates(k)}
        # over the lcm of reduced denominators the numerators stay coprime
        # to it, so the result is in lowest terms
        self.ctx = ctx
        self.den = den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.nums = {k: c.numerator * (den // c.denominator)
                     for k, c in coeffs.items()}
        self.bound = max((max(ctx.exponent(k), default=0) for k in coeffs),
                         default=0)

    @classmethod
    def from_numerators(cls, ctx: VarContext, nums: Dict[int, int], den: int,
                        bound: int) -> "MultiPoly":
        """The polynomial nums / den as stored, not reduced: `nums` maps keys
        of untruncated monomials to nonzero ints, den > 0, and `bound` is at
        least every exponent that occurs."""
        p = _new(cls)
        p.ctx, p.nums, p.den, p.bound = ctx, nums, den, bound
        return p

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only {exponent tuple: Fraction}, each in lowest terms."""
        exponent, den = self.ctx.exponent, self.den
        return MappingProxyType({exponent(k): Fraction(n, den)
                                 for k, n in self.nums.items()})

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_scalar(self) -> bool:
        return not any(self.nums)

    def scalar_value(self):
        """Coefficient of the constant monomial (the whole value if scalar)."""
        if not self.is_scalar():
            raise ValueError("polynomial is not a scalar: %s" % self)
        return Fraction(self.nums.get(0, 0), self.den)

    def _check(self, other: "MultiPoly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mismatched variable contexts: %r vs %r"
                             % (self.ctx, other.ctx))

    # -- ring operations --------------------------------------------------

    def _combine(self, other, sign: int) -> "MultiPoly":
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        self._check(other)
        g = math.gcd(self.den, other.den)
        fs, fo = other.den // g, sign * (self.den // g)
        nums = {k: n * fs for k, n in self.nums.items()}
        for k, n in other.nums.items():
            nums[k] = nums.get(k, 0) + n * fo
        return self.from_numerators(self.ctx, {k: n for k, n in nums.items() if n},
                                    self.den * fs, max(self.bound, other.bound))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self.from_numerators(self.ctx, {k: -n for k, n in self.nums.items()},
                                    self.den, self.bound)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return self.ctx.scalar(other).__sub__(self)

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Fraction)):
            coeff = ctx.coerce_coeff(other)
            nums = {k: n * coeff.numerator
                    for k, n in self.nums.items()} if coeff else {}
            den, bound = self.den * coeff.denominator, self.bound
        else:
            self._check(other)
            bound = ctx.guard(self.bound + other.bound)
            acc: Dict[int, int] = {}
            for k1, n1 in self.nums.items():
                for k2, n2 in other.nums.items():
                    k = k1 + k2
                    acc[k] = acc.get(k, 0) + n1 * n2
            truncated = ctx.truncates if ctx.truncation else None
            nums = {k: n for k, n in acc.items()
                    if n and not (truncated and truncated(k))}
            den = self.den * other.den
        # products reduce, so a chain of them carries no spurious factor
        g = math.gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        return self.from_numerators(ctx, nums, den, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        """Exact: equal supports, then numerators cross-multiplied."""
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        a, b = self.den, other.den
        if a == b:
            return self.nums == other.nums
        mine, theirs = self.nums, other.nums
        return mine.keys() == theirs.keys() and all(
            n * b == theirs[k] * a for k, n in mine.items())

    def __hash__(self):
        g = math.gcd(self.den, *self.nums.values())
        return hash((self.ctx, self.den // g,
                     frozenset((k, n // g) for k, n in self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    # -- structure --------------------------------------------------------

    def leading(self):
        """(exponent, coeff) of the weighted-grevlex-largest monomial."""
        if not self.nums:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.nums, key=self.ctx.order_key)
        return self.ctx.exponent(key), Fraction(self.nums[key], self.den)

    def is_homogeneous(self, degree=None) -> bool:
        degs = {self.ctx.order_key(k)[0] for k in self.nums}
        return len(degs) < 2 and (degree is None or degs <= {degree})

    def graded_part(self, degree: int) -> "MultiPoly":
        order_key = self.ctx.order_key
        return self.from_numerators(self.ctx, {k: n for k, n in self.nums.items()
                                               if order_key(k)[0] == degree},
                                    self.den, self.bound)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, as a polynomial with that slot zeroed."""
        shift = self.ctx.shifts[self.ctx.index[name]]
        return self.from_numerators(self.ctx, {k - (power << shift): n
                                               for k, n in self.nums.items()
                                               if (k >> shift) & MASK == power},
                                    self.den, self.bound)

    def max_power(self, name: str) -> int:
        shift = self.ctx.shifts[self.ctx.index[name]]
        return max(((k >> shift) & MASK for k in self.nums), default=0)

    def derivative(self, name: str) -> "MultiPoly":
        shift = self.ctx.shifts[self.ctx.index[name]]
        return self.from_numerators(self.ctx,
                                    {k - (1 << shift): n * ((k >> shift) & MASK)
                                     for k, n in self.nums.items()
                                     if (k >> shift) & MASK},
                                    self.den, self.bound)

    def substitute(self, images: Mapping[str, "MultiPoly"], target: VarContext) -> "MultiPoly":
        """Ring map determined by variable images.

        Variables absent from `images` must exist in `target` under the same
        name and are sent to themselves.  Coefficients pass through unchanged.
        """
        full = {}
        for name in self.ctx.names:
            if name in images:
                img = images[name]
                if img.ctx != target:
                    raise ValueError("image of %r lives in the wrong context" % name)
                full[name] = img
            else:
                full[name] = target.var(name)
        result = target.zero()
        cache: Dict[Tuple[str, int], MultiPoly] = {}

        def power(name, k):
            key = (name, k)
            if key not in cache:
                cache[key] = full[name] ** k
            return cache[key]

        for exp, coeff in self.terms.items():
            term = target.scalar(coeff)
            for name, e in zip(self.ctx.names, exp):
                if e:
                    term = term * power(name, e)
            result = result + term
        return result

    def evaluate(self, values: Mapping[str, object]):
        """Full evaluation at scalar values."""
        missing = [n for n in self.ctx.names if n not in values]
        if missing:
            raise ValueError("missing values for %s" % ", ".join(missing))
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            val = coeff
            for name, e in zip(self.ctx.names, exp):
                if e:
                    val = val * (values[name] ** e)
            total = total + val
        return total

    # -- display ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: weighted_grevlex_key(self.ctx, t[0]),
                      reverse=True)

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ctx.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            cs = str(coeff)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "MultiPoly(%s)" % self
