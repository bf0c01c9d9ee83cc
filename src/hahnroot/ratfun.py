"""Exact rational functions over F_{p^k} in a rescaled variable u = t^(1/M).

Numerators and denominators are sparse Laurent polynomials (dicts mapping an
integer u-exponent to a nonzero field coefficient), so a wide t-span such as
t^100000000 costs one term.  Denominators are normalised so their lowest
term is exactly 1*u^0; valuations read off the numerator in O(1).  Sums
and products of the sides run in ``ffield.sparse_addmul`` and
``ffield.sparse_mul``.

Fractions of t over F_p (M = 1, k = 1) are reduced by one rule,
``reduced_t_sides``, on int sides: the denominator's lowest term made 1*t^0,
then a dense ``intpoly`` gcd whenever both sides span at most
``_REDUCE_SPAN`` powers of t, which keeps that gcd bounded.  The constructor
applies it to every such fraction with a denominator of two or more terms;
the parser builds those once per X-power and once per term whose
denominator has two or more terms.  The companion applies it to each a_i's
int sides when its coefficients are first read, with no ``RatFun`` on the
way, and ``fraction_text`` prints int sides: the companion's, and f's
coefficients, whose sides ``cli.poly_text`` reads with ``FF.as_int``;
``to_text`` prints a ``RatFun``'s own sides for ``repr`` and the tests.
Negation and scaling by a nonzero constant map a normalised fraction to a
normalised one, so they skip the constructor's work.  ``RatFun``s with
M > 1 or k > 1 come only from ``hasse.taylor_at``, which multiplies the
engine's shifted carriers back by f's clearing factor, the tests and the
benchmark's micro timings, and stay unreduced.  Powers and field
embeddings of a ``RatFun`` belong to the tests' ``RatFun``-arithmetic
oracle (``tests/oracles.py``), the one route that needs them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ffield import FF, FieldCtx, sparse_addmul, sparse_mul

# Largest exponent span (max - min) for which fractions are densified and
# gcd-reduced.
_REDUCE_SPAN = 1024

INFINITE_VALUATION = math.inf


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

    def _unit_multiple(self, num: dict[int, FF]) -> "RatFun":
        # num is self.num times a nonzero constant: the sides keep their
        # exponents and their gcd, so the fraction is already normalised
        out = object.__new__(RatFun)
        out.ctx, out.M, out.num, out.den = self.ctx, self.M, num, self.den
        return out

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
    def from_reduced_t_sides(cls, ctx: FieldCtx, num: dict[int, int], den: dict[int, int]) -> "RatFun":
        """The fraction of t (M = 1) whose sides, {t-exponent: int mod p},
        ``reduced_t_sides`` returned, with no second normalisation or gcd."""
        out = object.__new__(cls)
        from_int = ctx.from_int
        out.ctx, out.M = ctx, 1
        out.num = {e: from_int(c) for e, c in num.items()}
        out.den = {e: from_int(c) for e, c in den.items()}
        return out

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
        # fractions of t over F_p (M = 1, k = 1) are reduced by the rule of
        # reduced_t_sides, on their int sides
        if self.ctx.k != 1 or self.M != 1:
            return
        den = {e: c.coeffs[0] for e, c in self.den.items()}
        num, reduced = reduced_t_sides({e: c.coeffs[0] for e, c in self.num.items()}, den, self.ctx.p)
        if reduced is not den:
            from_int = self.ctx.from_int
            self.num = {e: from_int(c) for e, c in num.items()}
            self.den = {e: from_int(c) for e, c in reduced.items()}

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
            num, den = dict(a.num), a.den
            sparse_addmul(num, b.num, a.ctx.one, 0)
        else:
            num, den = sparse_mul(a.num, b.den), sparse_mul(a.den, b.den)
            for e, c in b.num.items():
                sparse_addmul(num, a.den, c, e)
        return RatFun(a.ctx, a.M, num, den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __neg__(self) -> "RatFun":
        return self._unit_multiple({e: -c for e, c in self.num.items()})

    def __mul__(self, other: "RatFun") -> "RatFun":
        a, b = self._aligned(other)
        return RatFun(a.ctx, a.M, sparse_mul(a.num, b.num), sparse_mul(a.den, b.den))

    def __truediv__(self, other: "RatFun") -> "RatFun":
        a, b = self._aligned(other)
        if not b.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(a.ctx, a.M, sparse_mul(a.num, b.den), sparse_mul(a.den, b.num))

    def inverse(self) -> "RatFun":
        return RatFun.one(self.ctx, self.M) / self

    def scale(self, c: FF) -> "RatFun":
        if not c:
            return RatFun.zero(self.ctx, self.M)
        return self._unit_multiple({e: x * c for e, x in self.num.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        a, b = self._aligned(other)
        return sparse_mul(a.num, b.den) == sparse_mul(b.num, a.den)

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    # -- valuation data -------------------------------------------------------

    def valuation(self) -> Fraction | float:
        """The t-adic valuation; +infinity for the zero element."""
        if not self.num:
            return INFINITE_VALUATION
        return Fraction(min(self.num), self.M)

    def __repr__(self) -> str:
        if self.M == 1:
            return f"RatFun({to_text(self)!s}, M=1, {self.ctx.label})"
        # to_text is defined for M = 1 only; the sides are polynomials in u
        num, den = _side_text(self.num, 0, "u"), _side_text(self.den, 0, "u")
        return f"RatFun(num={num}, den={den}, M={self.M}, {self.ctx.label})"


def reduced_t_sides(num: dict[int, int], den: dict[int, int], p: int) -> tuple[dict[int, int], dict[int, int]]:
    """num/den over F_p, sides {t-exponent: int mod p} with den nonzero, in
    the form a fraction of t takes: den's lowest term 1*t^0 and, while both
    sides span at most _REDUCE_SPAN powers of t, no common factor.  Sides
    already in that form are returned as they are, the same dicts."""
    if not num:
        return {}, {0: 1}
    e0 = min(den)
    c0 = den[e0]
    if e0 or c0 != 1:
        inv = pow(c0, p - 2, p)
        num = {e - e0: c * inv % p for e, c in num.items()}
        den = {e - e0: c * inv % p for e, c in den.items()}
    if len(den) == 1:
        return num, den
    nlo, nhi = min(num), max(num)
    dhi = max(den)
    if nhi - nlo > _REDUCE_SPAN or dhi > _REDUCE_SPAN:
        return num, den
    from . import intpoly

    dn = [0] * (nhi - nlo + 1)
    for e, c in num.items():
        dn[e - nlo] = c
    dd = [0] * (dhi + 1)
    for e, c in den.items():
        dd[e] = c
    g = intpoly.gcd(dn, dd, p)
    if intpoly.deg(g) == 0:
        return num, den
    dn, dd = intpoly.Divisor(g, p).divexact_all([dn, dd])
    inv = pow(dd[0], p - 2, p)
    return ({e + nlo: c * inv % p for e, c in enumerate(dn) if c},
            {e: c * inv % p for e, c in enumerate(dd) if c})


def _side_text(side: dict, shift: int, var: str = "t") -> str:
    # coefficients are ints mod p or field elements, printed with str
    parts = []
    for e in sorted(side, reverse=True):
        c = side[e]
        ee = e + shift
        cs = str(c)
        if "+" in cs:
            cs = f"({cs})"
        if ee == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append(var if ee == 1 else f"{var}^{ee}")
        else:
            parts.append(f"{cs}*{var}" if ee == 1 else f"{cs}*{var}^{ee}")
    return " + ".join(parts) if parts else "0"


def fraction_text(num: dict, den: dict) -> str:
    """Grammar-compatible text of num/den, plain t-polynomial sides whose
    coefficients are ints mod p or field elements; den is normalised, so a
    one-term den is 1."""
    if not num:
        return "0"
    shift = -min(min(num), 0)
    num_text = _side_text(num, shift)
    if len(den) == 1 and shift == 0:
        return num_text
    den_text = _side_text(den, shift)
    if " + " in num_text:
        num_text = f"({num_text})"
    if " + " in den_text:
        den_text = f"({den_text})"
    return f"{num_text}/{den_text}"


def to_text(a: RatFun) -> str:
    """Grammar-compatible text (plain t-polynomials, M = 1 only)."""
    if a.M != 1:
        raise ValueError("text form is defined for exponent denominator 1")
    return fraction_text(a.num, a.den)
