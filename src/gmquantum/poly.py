"""Exact sparse polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one positive
denominator: `nums` maps the int key of each monomial to a nonzero
integer, and the value is sum_key nums[key] * monomial(key) / den.  A
`VarContext` fixes the variable names, their (weighted) degrees, and
optional nilpotency truncations such as t^2 = 0; polynomials from
different contexts never mix.  The context owns the key codec: with B =
64 n bits for n variables, the monomial of exponents (e_0, ..., e_n-1)
and weighted degree d has key (d << B) - sum_v e_v 2^(64 v), so keys add
as monomials multiply, the field of variable v is (-key >> 64 v) & MASK,
and d is -(-key >> B).  No field may carry into the next, so every
exponent lies in [0, 2^64) and each polynomial records a `bound` on its
exponents; a product whose bounds add up to 2^64 raises ValueError.
Products reduce the denominator against the gcd of the numerators.  Sums
keep the lcm of their denominators, and a contraction in `quantum` the
product of its factors' denominators, unreduced, because `==`
cross-multiplies; `str`, `hash` and the read-only `.terms` view
({exponent tuple: Fraction}) reduce.  A sum of products
(`sum_of_products`: a matrix entry, a substitution with polynomial
images, a Segre or twisted Chern class, a projective pushforward)
multiplies and adds numerators only, over the product of the lcms of
the two sides' denominators, and reduces once.

The polynomials every layer sends here have a few terms, so per-call costs
decide the speed, and three rules keep them low.  No stored numerator is
zero: a sum deletes a key as it cancels, and skips the rescale for a zero
operand or equal denominators.  An int never becomes a Fraction, and an
operand's kind is read by `type(...) is`, never by an isinstance test
against the abstract Fraction.  A context move whose images are all
scalars (an embedding has none; q = 1 is one) runs on keys, each kept
exponent field multiplying its variable's key in the target: no `.terms`
view and no product.

Variable degrees may be negative (a deformation parameter of degree -1 is
used downstream), so a weighted degree, and a key, is an integer of
either sign.  The packed exponents stay below 2^B, so keys order
monomials in weighted grevlex: degree first, then the smaller exponent of
the last variable, then of the one before, and so on.  Every monomial
comparison (leading terms, Groebner bases, printing) is thus one integer
comparison.  Only a context with nilpotent variables runs the truncation
test, once per term it builds.
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


def _rational(value):
    """An int as it is, any other rational as a Fraction."""
    return value if type(value) is int or type(value) is Fraction \
        else Fraction(value)


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
        self.bits = FIELD * len(names)
        self.shifts = tuple(range(0, self.bits, FIELD))
        self.var_keys = tuple((d << self.bits) - (1 << s)
                              for d, s in zip(degrees, self.shifts))
        self.truncation = tuple((self.shifts[self.index[n]], order)
                                for n, order in self.nilpotent.items())
        self._keys: Dict[Exponent, int] = {}
        self._exponents: Dict[int, Exponent] = {}
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
                e * v for e, v in zip(expvec, self.var_keys))
        return key

    def exponent(self, key: int) -> Exponent:
        exp = self._exponents.get(key)
        if exp is None:
            exp = self._exponents[key] = tuple((-key >> s) & MASK
                                               for s in self.shifts)
        return exp

    def guard(self, bound: int) -> int:
        """`bound` if exponents up to it cannot carry, else ValueError."""
        if bound >> FIELD:
            raise ValueError("exponent bound %d would carry" % bound)
        return bound

    def degree(self, key: int) -> int:
        """The weighted degree of the monomial with this key."""
        return -(-key >> self.bits)

    def truncates(self, key: int) -> bool:
        return any((-key >> s) & MASK >= order for s, order in self.truncation)

    # -- constructors -----------------------------------------------------

    def scalar(self, value) -> "MultiPoly":
        coeff = _rational(value)
        return MultiPoly.from_numerators(
            self, {0: coeff.numerator} if coeff else {}, coeff.denominator, 0)

    def zero(self) -> "MultiPoly":
        return MultiPoly.from_numerators(self, {}, 1, 0)

    def one(self) -> "MultiPoly":
        return self.scalar(1)

    def var(self, name: str) -> "MultiPoly":
        return MultiPoly.from_numerators(
            self, {self.var_keys[self.index[name]]: 1}, 1, 1)

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
        coeffs = {ctx.key(tuple(e)): _rational(c)
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
        """The polynomial nums / den as stored, not reduced: `nums` maps the
        key (`VarContext.key`) of each untruncated monomial to a nonzero int,
        den > 0, and `bound` is at least every exponent that occurs."""
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
        if type(other) is not MultiPoly:
            other = self.ctx.scalar(other)
        self._check(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if sign > 0 else -other
        g = math.gcd(self.den, other.den)
        fs, fo = other.den // g, sign * (self.den // g)
        nums = {k: n * fs for k, n in self.nums.items()} if fs != 1 \
            else dict(self.nums)
        for k, n in other.nums.items():
            n = nums.pop(k, 0) + n * fo
            if n:
                nums[k] = n
        return self.from_numerators(self.ctx, nums, self.den * fs,
                                    max(self.bound, other.bound))

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
        if type(other) is not MultiPoly:
            coeff = _rational(other)
            nums = {k: n * coeff.numerator
                    for k, n in self.nums.items()} if coeff else {}
            den, bound = self.den * coeff.denominator, self.bound
        else:
            self._check(other)
            bound = ctx.guard(self.bound + other.bound)
            mine, theirs = self.nums, other.nums
            if len(mine) == 1:
                mine, theirs = theirs, mine
            truncated = ctx.truncates if ctx.truncation else None
            if len(theirs) == 1:
                # a one-term factor shifts every key of the other by its own
                (k1, n1), = theirs.items()
                nums = {k + k1: n * n1 for k, n in mine.items()
                        if not (truncated and truncated(k + k1))}
            else:
                acc: Dict[int, int] = {}
                for k1, n1 in mine.items():
                    for k2, n2 in theirs.items():
                        k = k1 + k2
                        acc[k] = acc.get(k, 0) + n1 * n2
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
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ctx.scalar(other)
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
        key = max(self.nums)
        return self.ctx.exponent(key), Fraction(self.nums[key], self.den)

    def is_homogeneous(self, degree=None) -> bool:
        degs = set(map(self.ctx.degree, self.nums))
        return len(degs) < 2 and (degree is None or degs <= {degree})

    def graded_part(self, degree: int) -> "MultiPoly":
        key_degree = self.ctx.degree
        return self.from_numerators(self.ctx, {k: n for k, n in self.nums.items()
                                               if key_degree(k) == degree},
                                    self.den, self.bound)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, as a polynomial with that slot zeroed."""
        i = self.ctx.index[name]
        shift, var = self.ctx.shifts[i], self.ctx.var_keys[i]
        return self.from_numerators(self.ctx, {k - power * var: n
                                               for k, n in self.nums.items()
                                               if (-k >> shift) & MASK == power},
                                    self.den, self.bound)

    def max_power(self, name: str) -> int:
        shift = self.ctx.shifts[self.ctx.index[name]]
        return max(((-k >> shift) & MASK for k in self.nums), default=0)

    def derivative(self, name: str) -> "MultiPoly":
        i = self.ctx.index[name]
        shift, var = self.ctx.shifts[i], self.ctx.var_keys[i]
        return self.from_numerators(self.ctx,
                                    {k - var: n * ((-k >> shift) & MASK)
                                     for k, n in self.nums.items()
                                     if (-k >> shift) & MASK},
                                    self.den, self.bound)

    def substitute(self, images: Mapping[str, "MultiPoly"], target: VarContext) -> "MultiPoly":
        """Ring map determined by variable images.

        Variables absent from `images` must exist in `target` under the same
        name and are sent to themselves.  Coefficients pass through unchanged.
        Scalar images run on keys (`_move`).  Otherwise the terms are grouped
        by their exponents of the mapped variables; each image's powers are
        built up by one product each, each group's product of powers is
        formed once, and the groups, their other variables moved on keys,
        are multiplied by their products and summed on integer numerators
        (`sum_of_products`).
        """
        full = {}
        for name in self.ctx.names:
            if name in images:
                img = images[name]
                if img.ctx is not target and img.ctx != target:
                    raise ValueError("image of %r lives in the wrong context" % name)
                full[name] = img
        if all(img.is_scalar() for img in full.values()):
            return self._move(full, target)
        src = self.ctx
        mapped = [(s, full[n])
                  for n, s in zip(src.names, src.shifts) if n in full]
        moves = [(s, target.var_keys[target.index[n]])
                 for n, s in zip(src.names, src.shifts) if n not in full]
        groups: Dict[Exponent, Dict[int, int]] = {}
        for k, n in self.nums.items():
            exp = tuple((-k >> s) & MASK for s, _ in mapped)
            moved = sum(((-k >> s) & MASK) * t for s, t in moves)
            groups.setdefault(exp, {})[moved] = n
        powers = [[target.one(), img] for _, img in mapped]
        pairs = []
        for exp, nums in groups.items():
            for (_, img), pw, e in zip(mapped, powers, exp):
                while len(pw) <= e:
                    pw.append(pw[-1] * img)
            factors = [pw[e] for pw, e in zip(powers, exp) if e] \
                or [target.one()]
            rest = self.from_numerators(target, nums, self.den, self.bound)
            pairs.append((rest, math.prod(factors[1:], start=factors[0])))
        return sum_of_products(target, pairs)

    def _move(self, values: Mapping[str, "MultiPoly"],
              target: VarContext) -> "MultiPoly":
        """`substitute` with scalar images, on keys: each kept exponent field
        multiplies its variable's key in `target`, and a value a/b of x turns
        n x^e / d into n a^e b^(m - e) / (d b^m), m the top power of x, then
        reduces."""
        if not self.nums:
            return target.zero()
        src, den, moves, scales = self.ctx, self.den, [], []
        for name, s in zip(src.names, src.shifts):
            v = values.get(name)
            if v is None:
                moves.append((s, target.var_keys[target.index[name]]))
            elif v.nums.get(0) != v.den:
                m = max((-k >> s) & MASK for k in self.nums) if v.den != 1 else 0
                scales.append((s, v.nums.get(0, 0), v.den, m))
                den *= v.den ** m
        truncated = target.truncates if target.truncation else None
        nums: Dict[int, int] = {}
        for k, n in self.nums.items():
            key = 0
            for s, t in moves:
                key += ((-k >> s) & MASK) * t
            for s, a, b, m in scales:
                e = (-k >> s) & MASK
                n *= a ** e if b == 1 else a ** e * b ** (m - e)
            if n and not (truncated and truncated(key)):
                nums[key] = nums.get(key, 0) + n
        g = math.gcd(den, *nums.values())
        return self.from_numerators(target, {k: n // g for k, n in nums.items()
                                             if n}, den // g, self.bound)

    def evaluate(self, values: Mapping[str, object]):
        """Full evaluation at scalar values, as a move that keeps no field."""
        missing = [n for n in self.ctx.names if n not in values]
        if missing:
            raise ValueError("missing values for %s" % ", ".join(missing))
        ctx = self.ctx
        return self._move({n: ctx.scalar(values[n]) for n in ctx.names},
                          ctx).scalar_value()

    # -- display ----------------------------------------------------------

    def sorted_terms(self):
        """(exponent, coefficient) pairs, the largest monomial first."""
        exponent, den = self.ctx.exponent, self.den
        return [(exponent(k), Fraction(self.nums[k], den))
                for k in sorted(self.nums, reverse=True)]

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


def sum_of_products(ctx: VarContext, pairs) -> MultiPoly:
    """sum of x * y over `pairs` of polynomials in `ctx`.  Only integer
    numerators are multiplied and added, over the product of the lcms of
    the left and the right denominators; truncated terms drop, each
    product passes the carry guard, and one gcd reduces the sum."""
    dx = math.lcm(*(x.den for x, _ in pairs))
    dy = math.lcm(*(y.den for _, y in pairs))
    acc: Dict[int, int] = {}
    bound = 0
    for x, y in pairs:
        for z in (x, y):
            if z.ctx is not ctx and z.ctx != ctx:
                raise ValueError("mismatched variable contexts: %r vs %r"
                                 % (z.ctx, ctx))
        bound = max(bound, ctx.guard(x.bound + y.bound))
        f = dx // x.den * (dy // y.den)
        for k1, n1 in x.nums.items():
            n1 *= f
            for k2, n2 in y.nums.items():
                acc[k1 + k2] = acc.get(k1 + k2, 0) + n1 * n2
    truncated = ctx.truncates if ctx.truncation else None
    nums = {k: n for k, n in acc.items()
            if n and not (truncated and truncated(k))}
    g = math.gcd(dx * dy, *nums.values())
    return MultiPoly.from_numerators(ctx, {k: n // g for k, n in nums.items()},
                                     dx * dy // g, bound)
