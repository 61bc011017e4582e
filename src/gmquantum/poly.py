"""Exact sparse polynomial arithmetic over the rationals.

A polynomial is stored as a mapping from exponent vectors to nonzero
coefficients.  Coefficients are `fractions.Fraction`, so every number in
the engine is an exact rational in lowest terms with positive denominator.
A `VarContext` fixes the variable names, their (weighted) degrees, and
optional nilpotency truncations such as t^2 = 0; polynomials from
different contexts never mix.

Variable degrees may be negative (a deformation parameter of degree -1 is
used downstream), so the weighted degree of a monomial is an integer of
either sign.  Every monomial comparison (leading terms, Groebner bases,
printing) uses `weighted_grevlex_key`: weighted degree first, then
reverse lexicographic order in the context's declared variable order.
Each context memoises that key per exponent.  The same weights decide the
homogeneity checks.  Only a context with nilpotent variables runs the
truncation test on the terms it builds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple

Rational = Fraction
Exponent = Tuple[int, ...]


def weighted_grevlex_key(ctx: "VarContext", expvec: Exponent):
    """Grevlex graded by the declared variable degrees, not raw totals.

    Monomials compare by weighted degree first, so homogeneous ideals in
    rings with degree 2 generators reduce within a single graded piece.
    """
    key = ctx.order_keys.get(expvec)
    if key is None:
        key = ctx.order_keys[expvec] = (ctx.weighted_degree(expvec),
                                        tuple(-e for e in reversed(expvec)))
    return key


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
        self.truncation = tuple((self.index[n], order)
                                for n, order in self.nilpotent.items())
        self.order_keys: Dict[Exponent, tuple] = {}

    @property
    def nvars(self):
        return len(self.names)

    def weighted_degree(self, expvec: Exponent) -> int:
        return sum(e * d for e, d in zip(expvec, self.degrees))

    def truncates(self, expvec: Exponent) -> bool:
        return any(expvec[i] >= order for i, order in self.truncation)

    def scalar(self, value) -> "MultiPoly":
        coeff = self.coerce_coeff(value)
        if not coeff:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.nvars: coeff})

    def coerce_coeff(self, value) -> Fraction:
        return value if isinstance(value, Fraction) else Fraction(value)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.scalar(1)

    def var(self, name: str) -> "MultiPoly":
        i = self.index[name]
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return MultiPoly(self, {exp: Fraction(1)})

    def monomial(self, expvec: Exponent, coeff=1) -> "MultiPoly":
        return MultiPoly(self, {tuple(expvec): self.coerce_coeff(coeff)})

    def extended(self, names, degrees, nilpotent=None) -> "VarContext":
        """New context with extra variables appended."""
        nil = dict(self.nilpotent)
        nil.update(nilpotent or {})
        return VarContext(self.names + tuple(names), self.degrees + tuple(degrees),
                          nilpotent=nil)

    def without_truncation(self) -> "VarContext":
        return VarContext(self.names, self.degrees)

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

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponent, object]):
        truncated = ctx.truncates if ctx.truncation else None
        self.ctx = ctx
        self.terms = {tuple(exp): coeff for exp, coeff in terms.items()
                      if coeff and not (truncated and truncated(exp))}

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(not any(e) for e in self.terms)

    def scalar_value(self):
        """Coefficient of the constant monomial (the whole value if scalar)."""
        if not self.is_scalar():
            raise ValueError("polynomial is not a scalar: %s" % self)
        return self.terms.get((0,) * self.ctx.nvars, Fraction(0))

    def _check(self, other: "MultiPoly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("mismatched variable contexts: %r vs %r"
                             % (self.ctx, other.ctx))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        self._check(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = terms.get(exp)
            if acc is None:
                terms[exp] = coeff
            else:
                acc = acc + coeff
                if acc:
                    terms[exp] = acc
                else:
                    del terms[exp]
        return MultiPoly(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.ctx.scalar(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            coeff = self.ctx.coerce_coeff(other)
            if not coeff:
                return self.ctx.zero()
            return MultiPoly(self.ctx, {e: c * coeff for e, c in self.terms.items()})
        self._check(other)
        ctx = self.ctx
        truncated = ctx.truncates if ctx.truncation else None
        terms: Dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                if truncated and truncated(exp):
                    continue
                acc = terms.get(exp)
                if acc is None:
                    terms[exp] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        terms[exp] = acc
                    else:
                        del terms[exp]
        return MultiPoly(ctx, terms)

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
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __bool__(self):
        return bool(self.terms)

    # -- structure --------------------------------------------------------

    def leading(self):
        """(exponent, coeff) of the weighted-grevlex-largest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=lambda e: weighted_grevlex_key(self.ctx, e))
        return exp, self.terms[exp]

    def weighted_degree(self):
        """Max weighted degree over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ctx.weighted_degree(e) for e in self.terms)

    def is_homogeneous(self, degree=None) -> bool:
        if not self.terms:
            return True
        degs = {self.ctx.weighted_degree(e) for e in self.terms}
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def graded_part(self, degree: int) -> "MultiPoly":
        return MultiPoly(self.ctx, {e: c for e, c in self.terms.items()
                                    if self.ctx.weighted_degree(e) == degree})

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name^power, as a polynomial with that slot zeroed."""
        i = self.ctx.index[name]
        out = {}
        for exp, coeff in self.terms.items():
            if exp[i] == power:
                out[exp[:i] + (0,) + exp[i + 1:]] = coeff
        return MultiPoly(self.ctx, out)

    def max_power(self, name: str) -> int:
        i = self.ctx.index[name]
        return max((e[i] for e in self.terms), default=0)

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
        if not self.terms:
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
