"""Finite generalized power series with exact rational exponents.

A series is a finite, strictly increasing list of (exponent, coefficient)
terms.  The expansion engine grows root prefixes with ``append_term`` and
moves them into larger coefficient fields with ``embed``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ffield import FF, FieldCtx, Embedding

INF = math.inf


def prime_exponent(n: int, q: int) -> int:
    """Multiplicity of the prime q in the positive integer n."""
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


class HahnSeries:
    """Finite sorted term list over F_{p^k}; equal and hashed by value."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: tuple[tuple[Fraction, FF], ...]):
        exps = [e for e, _ in terms]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("term exponents must be strictly increasing")
        if any(not c for _, c in terms):
            raise ValueError("zero coefficients must not be stored")
        self.ctx = ctx
        self.terms = terms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HahnSeries:
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx, self.terms))

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

    def append_term(self, e, c: FF) -> "HahnSeries":
        """Extend by one term beyond the current support.

        Only the new term is checked, so a chain of appends costs O(1)
        checks per step rather than a rescan of the whole support.
        """
        e = Fraction(e)
        if self.terms and e <= self.terms[-1][0]:
            raise ValueError("appended exponent must exceed the support")
        if not c:
            return self
        out = object.__new__(HahnSeries)
        out.ctx = self.ctx
        out.terms = self.terms + ((e, c),)
        return out

    def embed(self, embedding: Embedding) -> "HahnSeries":
        return HahnSeries(embedding.dst, tuple((e, embedding(c)) for e, c in self.terms))

    def __str__(self) -> str:
        return series_text(self)


# ---------------------------------------------------------------------------
# Operations.


def expands_at(prefix_coeffs: list[FF], zeta: FF) -> bool:
    """Does zeta lie outside the field generated by the prefix coefficients?

    The base field for an empty prefix is the prime field.
    """
    d = math.lcm(1, *(c.degree() for c in prefix_coeffs if c))
    return d % zeta.degree() != 0


# ---------------------------------------------------------------------------
# Text.


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
    return " + ".join(parts) if parts else "0"

