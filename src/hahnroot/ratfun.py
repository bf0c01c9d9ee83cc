"""Exact rational functions over F_{p^k} in a rescaled variable u = t^(1/M).

Numerators and denominators are sparse Laurent polynomials (dicts mapping an
integer u-exponent to a nonzero field coefficient): root expansions push the
exponent denominator M to huge p-power multiples, where dense coefficient
lists would be hopeless.  Denominators are normalised so their lowest term is
exactly 1*u^0; valuations and leading coefficients then read off the
numerator in O(1), with or without gcd reduction.

gcd reduction runs only when both carriers fit a small dense profile.  That
keeps the classical reduced form on the plain-polynomial path (exponent
denominator 1, small degrees) and skips it for the deep-expansion carriers,
where no observable behaviour depends on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ffield import FF, FieldCtx, Embedding

# Largest exponent span (max - min) for which carriers are densified and
# gcd-reduced.
_REDUCE_SPAN = 1024

INFINITE_VALUATION = math.inf


def _sp_add(a: dict[int, FF], b: dict[int, FF]) -> dict[int, FF]:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _sp_neg(a: dict[int, FF]) -> dict[int, FF]:
    return {e: -c for e, c in a.items()}


def _sp_mul(a: dict[int, FF], b: dict[int, FF]) -> dict[int, FF]:
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, FF] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            prod = ca * cb
            s = out.get(e)
            s = prod if s is None else s + prod
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _sp_frobenius(a: dict[int, FF], p: int) -> dict[int, FF]:
    # (sum c u^e)^p = sum c^p u^(e*p) in characteristic p
    return {e * p: c.frobenius() for e, c in a.items()}


def _sp_pow(a: dict[int, FF], e: int, ctx: FieldCtx) -> dict[int, FF]:
    """a**e, decomposing e in base p so Frobenius steps stay sparse."""
    if e < 0:
        raise ValueError("negative exponent on a sparse carrier")
    if e == 0:
        return {0: ctx.one}
    result: dict[int, FF] | None = None
    base = a
    while e:
        e, digit = divmod(e, ctx.p)
        if digit:
            piece = base
            for _ in range(digit - 1):
                piece = _sp_mul(piece, base)
            result = piece if result is None else _sp_mul(result, piece)
        if e:
            base = _sp_frobenius(base, ctx.p)
    assert result is not None
    return result


class RatFun:
    """An exact element of F_{p^k}(u), u = t^(1/M)."""

    __slots__ = ("ctx", "M", "num", "den")

    def __init__(self, ctx: FieldCtx, M: int, num: dict[int, FF], den: dict[int, FF]):
        if M < 1:
            raise ValueError("exponent denominator M must be positive")
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self.ctx = ctx
        self.M = M
        self.num = num
        self.den = den
        self._normalise()

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, M: int = 1) -> "RatFun":
        return cls(ctx, M, {}, {0: ctx.one})

    @classmethod
    def one(cls, ctx: FieldCtx, M: int = 1) -> "RatFun":
        return cls(ctx, M, {0: ctx.one}, {0: ctx.one})

    @classmethod
    def from_ff(cls, c: FF, M: int = 1) -> "RatFun":
        return cls(c.ctx, M, {0: c} if c else {}, {0: c.ctx.one})

    @classmethod
    def from_int(cls, ctx: FieldCtx, n: int, M: int = 1) -> "RatFun":
        return cls.from_ff(ctx.from_int(n), M)

    @classmethod
    def t_power(cls, ctx: FieldCtx, exponent: Fraction | int, M: int | None = None) -> "RatFun":
        """The monomial t^exponent, choosing M from the exponent if omitted."""
        exponent = Fraction(exponent)
        if M is None:
            M = exponent.denominator
        e = exponent * M
        if e.denominator != 1:
            raise ValueError(f"exponent {exponent} does not live in (1/{M})Z")
        return cls(ctx, M, {int(e): ctx.one}, {0: ctx.one})

    @classmethod
    def from_t_coeffs(cls, ctx: FieldCtx, num: dict[int, int], den: dict[int, int] | None = None) -> "RatFun":
        """Build from integer t-coefficients (M = 1)."""
        n = {e: ctx.from_int(c) for e, c in num.items() if c % ctx.p}
        d = {0: ctx.one} if den is None else {e: ctx.from_int(c) for e, c in den.items() if c % ctx.p}
        return cls(ctx, 1, n, d)

    # -- normalisation ------------------------------------------------------

    def _normalise(self) -> None:
        if not self.num:
            self.den = {0: self.ctx.one}
            return
        e0 = min(self.den)
        c0 = self.den[e0]
        if e0 or c0 != self.ctx.one:
            inv = c0.inverse()
            self.den = {e - e0: c * inv for e, c in self.den.items()}
            self.num = {e - e0: c * inv for e, c in self.num.items()}
        if len(self.den) > 1:
            self._maybe_reduce()

    def _maybe_reduce(self) -> None:
        # reduction pays off only on the dense prime-field path (linear algebra
        # over F_p(t)); the deep-expansion carriers skip it by design
        if self.ctx.k != 1 or self.M != 1:
            return
        nlo, nhi = min(self.num), max(self.num)
        dhi = max(self.den)
        if nhi - nlo > _REDUCE_SPAN or dhi > _REDUCE_SPAN:
            return
        from . import intpoly

        p = self.ctx.p
        dn = [0] * (nhi - nlo + 1)
        for e, c in self.num.items():
            dn[e - nlo] = c.coeffs[0]
        dd = [0] * (dhi + 1)
        for e, c in self.den.items():
            dd[e] = c.coeffs[0]
        g = intpoly.gcd(dn, dd, p)
        if intpoly.deg(g) > 0:
            dn = intpoly.divexact(dn, g, p)
            dd = intpoly.divexact(dd, g, p)
            inv = pow(dd[0], p - 2, p)
            ctx = self.ctx
            self.num = {e + nlo: ctx.from_int(c * inv) for e, c in enumerate(dn) if c}
            self.den = {e: ctx.from_int(c * inv) for e, c in enumerate(dd) if c}

    # -- alignment ----------------------------------------------------------

    def rebase(self, M_new: int) -> "RatFun":
        """Refine the exponent group: substitute u = u_new^(M_new/M)."""
        if M_new % self.M:
            raise ValueError(f"target denominator {M_new} is not a multiple of {self.M}")
        if M_new == self.M:
            return self
        f = M_new // self.M
        return RatFun(self.ctx, M_new, {e * f: c for e, c in self.num.items()},
                      {e * f: c for e, c in self.den.items()})

    def embed(self, embedding: Embedding) -> "RatFun":
        """Move every coefficient through a field embedding."""
        return RatFun(embedding.dst, self.M,
                      {e: embedding(c) for e, c in self.num.items()},
                      {e: embedding(c) for e, c in self.den.items()})

    def _aligned(self, other: "RatFun") -> tuple["RatFun", "RatFun"]:
        if self.ctx != other.ctx:
            raise ValueError("rational functions live over different fields")
        M = math.lcm(self.M, other.M)
        return self.rebase(M), other.rebase(M)

    # -- arithmetic ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "RatFun") -> "RatFun":
        a, b = self._aligned(other)
        if a.den == b.den:
            return RatFun(a.ctx, a.M, _sp_add(a.num, b.num), dict(a.den))
        num = _sp_add(_sp_mul(a.num, b.den), _sp_mul(b.num, a.den))
        return RatFun(a.ctx, a.M, num, _sp_mul(a.den, b.den))

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __neg__(self) -> "RatFun":
        return RatFun(self.ctx, self.M, _sp_neg(self.num), self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        a, b = self._aligned(other)
        return RatFun(a.ctx, a.M, _sp_mul(a.num, b.num), _sp_mul(a.den, b.den))

    def __truediv__(self, other: "RatFun") -> "RatFun":
        a, b = self._aligned(other)
        if not b.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(a.ctx, a.M, _sp_mul(a.num, b.den), _sp_mul(a.den, b.num))

    def inverse(self) -> "RatFun":
        return RatFun.one(self.ctx, self.M) / self

    def __pow__(self, e: int) -> "RatFun":
        if e < 0:
            return self.inverse() ** (-e)
        return RatFun(self.ctx, self.M, _sp_pow(self.num, e, self.ctx),
                      _sp_pow(self.den, e, self.ctx))

    def scale(self, c: FF) -> "RatFun":
        if not c:
            return RatFun.zero(self.ctx, self.M)
        return RatFun(self.ctx, self.M, {e: x * c for e, x in self.num.items()}, dict(self.den))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        a, b = self._aligned(other)
        return _sp_add(_sp_mul(a.num, b.den), _sp_neg(_sp_mul(b.num, a.den))) == {}

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    # -- valuation data -------------------------------------------------------

    def valuation(self) -> Fraction | float:
        """The t-adic valuation; +infinity for the zero element."""
        if not self.num:
            return INFINITE_VALUATION
        return Fraction(min(self.num), self.M)

    def __repr__(self) -> str:
        return f"RatFun({to_text(self)!s}, M={self.M}, {self.ctx.label})"


def leading_term(a: RatFun) -> tuple[Fraction, FF]:
    """(v, c) with c*t^v the initial term of a; a - c*t^v has valuation > v."""
    if not a.num:
        raise ZeroDivisionError("the zero element has infinite valuation")
    e = min(a.num)
    return Fraction(e, a.M), a.num[e]


def laurent_terms(a: RatFun, count: int) -> list[tuple[Fraction, FF]]:
    """The first `count` terms of the Laurent expansion of a, exactly.

    Long division against the (normalised) denominator: each emitted term is
    final because the denominator starts with 1*u^0.
    """
    rem = dict(a.num)
    out: list[tuple[Fraction, FF]] = []
    while rem and len(out) < count:
        e = min(rem)
        c = rem[e]
        out.append((Fraction(e, a.M), c))
        for de, dc in a.den.items():
            ee = e + de
            s = rem.get(ee)
            prod = c * dc
            s = -prod if s is None else s - prod
            if s:
                rem[ee] = s
            else:
                rem.pop(ee, None)
    return out


def _side_text(side: dict[int, FF], shift: int) -> str:
    parts = []
    for e in sorted(side, reverse=True):
        c = side[e]
        ee = e + shift
        cs = str(c.coeffs[0]) if c.ctx.k == 1 else str(c)
        if "+" in cs:
            cs = f"({cs})"
        if ee == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append("t" if ee == 1 else f"t^{ee}")
        else:
            parts.append(f"{cs}*t" if ee == 1 else f"{cs}*t^{ee}")
    return " + ".join(parts) if parts else "0"


def to_text(a: RatFun) -> str:
    """Grammar-compatible text (plain t-polynomials, M = 1 only)."""
    if a.M != 1:
        raise ValueError("text form is defined for exponent denominator 1")
    if not a.num:
        return "0"
    shift = -min(min(a.num), 0)
    num_text = _side_text(a.num, shift)
    if a.den == {0: a.ctx.one} and shift == 0:
        return num_text
    den_text = _side_text(a.den, shift)
    if " + " in num_text:
        num_text = f"({num_text})"
    if " + " in den_text:
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"
