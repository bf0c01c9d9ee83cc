"""Truncated generalized power series with exact rational exponents.

A series is a finite, strictly increasing list of (exponent, coefficient)
terms together with a precision marker: either the term list IS the whole
element (exact), or it is only known to be correct below (or through) a cut
exponent.  The marker keeps honest the distinction between a finite element
and the finite prefix of an unknown root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ffield import FF, FieldCtx, Embedding
from .ratfun import RatFun

INF = math.inf


def prime_exponent(n: int, q: int) -> int:
    """Multiplicity of the prime q in the positive integer n."""
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


@dataclass(frozen=True)
class HahnSeries:
    """Finite sorted term list over F_{p^k}; exact or a known-below prefix."""

    ctx: FieldCtx
    terms: tuple[tuple[Fraction, FF], ...]
    cut: Fraction | None = None
    cut_inclusive: bool = False

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("term exponents must be strictly increasing")
        if any(not c for _, c in self.terms):
            raise ValueError("zero coefficients must not be stored")
        if self.cut is not None and exps:
            last = exps[-1]
            if last > self.cut or (last == self.cut and not self.cut_inclusive):
                raise ValueError("terms extend past the precision cut")

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "HahnSeries":
        return cls(ctx, ())

    @classmethod
    def from_terms(cls, ctx: FieldCtx, terms) -> "HahnSeries":
        merged: dict[Fraction, FF] = {}
        for e, c in terms:
            e = Fraction(e)
            s = merged.get(e)
            s = c if s is None else s + c
            if s:
                merged[e] = s
            else:
                merged.pop(e, None)
        return cls(ctx, tuple(sorted(merged.items())))

    @classmethod
    def monomial(cls, ctx: FieldCtx, exponent, coeff: FF) -> "HahnSeries":
        if not coeff:
            return cls.zero(ctx)
        return cls(ctx, ((Fraction(exponent), coeff),))

    # -- structure -----------------------------------------------------------

    def valuation(self) -> Fraction | float:
        return self.terms[0][0] if self.terms else INF

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, e) -> FF:
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return self.ctx.zero

    def append_term(self, e, c: FF) -> "HahnSeries":
        """Extend by one term beyond the current support (exactness preserved)."""
        e = Fraction(e)
        if self.terms and e <= self.terms[-1][0]:
            raise ValueError("appended exponent must exceed the support")
        if not c:
            return self
        return HahnSeries(self.ctx, self.terms + ((e, c),))

    def embed(self, embedding: Embedding) -> "HahnSeries":
        return HahnSeries(embedding.dst, tuple((e, embedding(c)) for e, c in self.terms),
                          self.cut, self.cut_inclusive)

    # -- arithmetic (exact series only) ---------------------------------------

    def _require_exact(self, other: "HahnSeries | None" = None) -> None:
        if self.cut is not None or (other is not None and other.cut is not None):
            raise ValueError("arithmetic is defined for exact series only")

    def __add__(self, other: "HahnSeries") -> "HahnSeries":
        self._require_exact(other)
        return HahnSeries.from_terms(self.ctx, list(self.terms) + list(other.terms))

    def __neg__(self) -> "HahnSeries":
        return HahnSeries(self.ctx, tuple((e, -c) for e, c in self.terms),
                          self.cut, self.cut_inclusive)

    def __sub__(self, other: "HahnSeries") -> "HahnSeries":
        return self + (-other)

    def __mul__(self, other: "HahnSeries") -> "HahnSeries":
        self._require_exact(other)
        out: list[tuple[Fraction, FF]] = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out.append((e1 + e2, c1 * c2))
        return HahnSeries.from_terms(self.ctx, out)

    def __str__(self) -> str:
        return series_text(self)


# ---------------------------------------------------------------------------
# Operations.


def truncate(x: HahnSeries, r, inclusive: bool = False) -> HahnSeries:
    """x_{<r} (or x_{<=r}); the result is marked exact below (through) r."""
    r = Fraction(r)
    if inclusive:
        kept = tuple(t for t in x.terms if t[0] <= r)
    else:
        kept = tuple(t for t in x.terms if t[0] < r)
    return HahnSeries(x.ctx, kept, cut=r, cut_inclusive=inclusive)


def is_approximation(y: HahnSeries, x: HahnSeries) -> bool:
    """True iff y = x_{<lambda} for some lambda and y != x."""
    if len(y.terms) >= len(x.terms):
        return False
    return x.terms[: len(y.terms)] == y.terms


def ramifies_at(support: list[Fraction], r: Fraction, q: int) -> bool:
    """Does the prime q ramify at r given the prior support?

    Requires r = a/(b*q^K) with K >= 1 and a, b coprime to q, while every
    earlier support element carries q in its denominator to a power < K.
    """
    r = Fraction(r)
    K = prime_exponent(r.denominator, q)
    if K < 1:
        return False
    return all(prime_exponent(Fraction(s).denominator, q) < K for s in support if s < r)


def expands_at(prefix_coeffs: list[FF], zeta: FF) -> bool:
    """Does zeta lie outside the field generated by the prefix coefficients?

    The base field for an empty prefix is the prime field.
    """
    d = math.lcm(1, *(c.degree() for c in prefix_coeffs if c))
    return d % zeta.degree() != 0


# ---------------------------------------------------------------------------
# Conversions and text.


def to_ratfun(x: HahnSeries, M: int | None = None) -> RatFun:
    """The exact finite series as an element of F_{p^k}(u)."""
    x._require_exact()
    need = math.lcm(1, *(e.denominator for e, _ in x.terms))
    if M is None:
        M = need
    elif M % need:
        raise ValueError(f"exponents of the series do not live in (1/{M})Z")
    num = {int(e * M): c for e, c in x.terms}
    return RatFun(x.ctx, M, num, {0: x.ctx.one})


def from_ratfun(a: RatFun) -> HahnSeries:
    """Exact conversion back; defined when a is a Laurent polynomial in u."""
    if a.den != {0: a.ctx.one}:
        raise ValueError("element is not a finite series")
    return HahnSeries.from_terms(a.ctx, [(Fraction(e, a.M), c) for e, c in a.num.items()])


def _exp_text(e: Fraction) -> str:
    return f"t^({e})"


def series_text(x: HahnSeries) -> str:
    parts = []
    for e, c in x.terms:
        cs = str(c)
        if "+" in cs:
            cs = f"({cs})"
        if e == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append(_exp_text(e))
        else:
            parts.append(f"{cs}*{_exp_text(e)}")
    body = " + ".join(parts) if parts else "0"
    if x.cut is not None:
        op = "<=" if x.cut_inclusive else "<"
        body += f" (exact {op} {x.cut})"
    return body

