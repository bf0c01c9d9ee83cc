"""Polynomials over exact rational-function coefficients.

Provides the divided-power (Hasse) derivatives that replace d/dX in
characteristic p, exact Taylor data at a point (``taylor_at``, from scratch),
the monomial shift that moves Laurent-polynomial Taylor data from w to
w + zeta*t^r (``taylor_shift``, what the expansion engine uses), the
per-index line data (valuation, leading coefficient, slope) that drives
branching decisions, and the one Newton-polygon routine (``newton_edges``)
behind both the engine's next exponents and the companion's breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ffield import FF, FieldCtx, find_embedding
from .hahn import HahnSeries, to_ratfun
from .ratfun import RatFun, leading_term

INF = math.inf


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' digit product."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        out = (out * math.comb(nd, kd)) % p
    return out


@lru_cache(maxsize=None)
def _binomial_rows(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of Pascal's triangle mod p: ``rows[i][k]`` is C(i, k) mod p.

    Built by Pascal's rule rather than ``binom_mod_p``, which ``taylor_at``
    uses, so comparing ``taylor_shift`` with ``taylor_at`` checks each
    against the other.
    """
    rows = [(1,)]
    for _ in range(n):
        prev = rows[-1]
        rows.append((1,) + tuple((a + b) % p for a, b in zip(prev, prev[1:])) + (1,))
    return tuple(rows)


@dataclass(frozen=True)
class Poly:
    """A polynomial in X with RatFun coefficients (ascending, trimmed)."""

    coeffs: tuple[RatFun, ...]

    @classmethod
    def make(cls, coeffs) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def from_int_coeffs(cls, ctx: FieldCtx, ints) -> "Poly":
        return cls.make([RatFun.from_int(ctx, n) for n in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def ctx(self) -> FieldCtx:
        if not self.coeffs:
            raise ValueError("the zero polynomial carries no context")
        return self.coeffs[0].ctx

    def coefficient(self, i: int) -> RatFun:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFun.zero(self.ctx)

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("cannot normalise the zero polynomial")
        lead = self.coeffs[-1]
        if lead == RatFun.one(lead.ctx, lead.M):
            return self
        return Poly.make([c / lead for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n = max(len(self.coeffs), len(other.coeffs))
        ctx = self.ctx
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else RatFun.zero(ctx)
            b = other.coeffs[i] if i < len(other.coeffs) else RatFun.zero(ctx)
            out.append(a + b)
        return Poly.make(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        ctx = self.ctx
        out = [RatFun.zero(ctx) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly.make(out)

    def scale(self, c: RatFun) -> "Poly":
        return Poly.make([a * c for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv = other.coeffs[-1].inverse()
        q = [RatFun.zero(other.ctx)] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            if not rem[i].is_zero():
                f = rem[i] * inv
                q[i - db] = f
                for j, b in enumerate(other.coeffs):
                    rem[i - db + j] = rem[i - db + j] - f * b
        return Poly.make(q), Poly.make(rem)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        raise TypeError("polynomials are not hashable")


def hasse_derivative(f: Poly, k: int) -> Poly:
    """The k-th divided-power derivative: coefficient j becomes C(j+k, k) a_{j+k}."""
    if k == 0:
        return f
    if f.is_zero() or k > f.degree:
        return Poly(())
    p = f.ctx.p
    out = []
    for j in range(f.degree - k + 1):
        b = binom_mod_p(j + k, k, p)
        c = f.coeffs[j + k]
        out.append(c.scale(c.ctx.from_int(b)))
    return Poly.make(out)


def _as_ratfun(w) -> RatFun:
    if isinstance(w, HahnSeries):
        return to_ratfun(w)
    if isinstance(w, RatFun):
        return w
    raise TypeError(f"cannot evaluate at {type(w).__name__}")


def _lift_poly(f: Poly, ctx: FieldCtx, M: int) -> list[RatFun]:
    """Re-express f's coefficients over the target context and exponent group."""
    out = []
    emb = None
    for c in f.coeffs:
        if c.ctx != ctx:
            if emb is None:
                emb = find_embedding(c.ctx, ctx)
            c = c.embed(emb)
        out.append(c.rebase(math.lcm(c.M, M)))
    return out


class _LazyPowers:
    """Powers of a fixed point, computed on demand via base-p decomposition."""

    def __init__(self, x: RatFun):
        self.x = x
        self.cache = {0: RatFun.one(x.ctx, x.M), 1: x}

    def __getitem__(self, e: int) -> RatFun:
        got = self.cache.get(e)
        if got is None:
            got = self.x**e
            self.cache[e] = got
        return got


def taylor_at(f: Poly, w) -> list[RatFun]:
    """[c_0, .., c_n] with f(X) = sum c_k (X - w)^k; c_k is the k-th Hasse
    derivative of f at w.  Exact."""
    if f.is_zero():
        raise ValueError("no Taylor data for the zero polynomial")
    x = _as_ratfun(w)
    coeffs = _lift_poly(f, x.ctx, x.M)
    n = len(coeffs) - 1
    p = x.ctx.p
    powers = _LazyPowers(x)
    out = []
    for k in range(n + 1):
        acc = RatFun.zero(x.ctx, x.M)
        for i in range(k, n + 1):
            b = binom_mod_p(i, k, p)
            if b and not coeffs[i].is_zero():
                acc = acc + coeffs[i].scale(x.ctx.from_int(b)) * powers[i - k]
        out.append(acc)
    return out


def taylor_shift(coeffs: list[RatFun], zeta: FF, r) -> list[RatFun]:
    """Taylor data at w + zeta*t^r from Taylor data [c_0, .., c_n] at w.

    c_k(w + zeta*t^r) = sum_{i>=k} C(i,k) zeta^(i-k) t^((i-k)r) c_i(w), so each
    term is a carrier's exponent shift times a scalar.  The c_i must be
    Laurent polynomials (denominator 1) over zeta's field, as the Taylor
    data of a denominator-cleared polynomial is.  Exact.
    """
    r = Fraction(r)
    ctx = zeta.ctx
    M = math.lcm(r.denominator, *(c.M for c in coeffs))
    step = int(r * M)
    nums = []
    for c in coeffs:
        if len(c.den) != 1 or c.ctx != ctx:
            raise ValueError("Taylor shift needs Laurent-polynomial data over zeta's field")
        nums.append(c.rebase(M).num)
    n = len(nums) - 1
    powers = [ctx.one]
    for _ in range(n):
        powers.append(powers[-1] * zeta)
    binomials = _binomial_rows(n, ctx.p)
    out = []
    for k in range(n + 1):
        acc = dict(nums[k])
        for i in range(k + 1, n + 1):
            b = binomials[i][k]
            if not b or not nums[i]:
                continue
            scale = ctx.from_int(b) * powers[i - k]
            shift = (i - k) * step
            for e, c in nums[i].items():
                e += shift
                s = acc.get(e)
                s = c * scale if s is None else s + c * scale
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        out.append(RatFun(ctx, M, acc, {0: ctx.one}))
    return out


def evaluate(f: Poly, w) -> RatFun:
    """f(w), exactly, for a finite exact series or rational-function point."""
    x = _as_ratfun(w)
    if f.is_zero():
        return RatFun.zero(x.ctx, x.M)
    coeffs = _lift_poly(f, x.ctx, x.M)
    powers = _LazyPowers(x)
    acc = RatFun.zero(x.ctx, x.M)
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            acc = acc + c * powers[i]
    return acc


@dataclass(frozen=True)
class NewtonLine:
    """gamma(r) = rho + i*r for the index-i term, with leading coefficient b."""

    i: int
    rho: Fraction
    b: FF

    def gamma(self, r) -> Fraction | float:
        if r == INF:
            return INF
        return self.rho + self.i * Fraction(r)


def newton_data(coeffs: list[RatFun]) -> tuple[NewtonLine, ...]:
    """One line per index i >= 1 with a nonzero Taylor coefficient c_i.

    ``coeffs`` is Taylor data [c_0, .., c_n] as returned by ``taylor_at``;
    this is the one place Newton lines are built.
    """
    return tuple(
        NewtonLine(i, *leading_term(c)) for i, c in enumerate(coeffs) if i >= 1 and not c.is_zero()
    )


def newton_edges(points) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The edges (r, xs) of the lower convex hull of points (x, y), left to right.

    The x are distinct ascending integers and the y rationals; r is an edge's
    negated slope, so it falls from edge to edge, and xs holds the x of every
    point on the edge.  For Taylor data, points (i, v(c_i)) give the next
    exponents (``expand``); for an additive polynomial, points (p^i, v(a_i))
    give the kinks of the envelope of its lines v(a_i) + p^i*r, where the
    lines of xs attain the minimum (``envelope``).  The hull runs on
    integers, every y scaled by one common denominator.
    """
    d = math.lcm(*(y.denominator for _, y in points))
    pts = [(x, y.numerator * (d // y.denominator)) for x, y in points]
    hull: list[int] = []
    for j, (x, y) in enumerate(pts):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = pts[hull[-2]], pts[hull[-1]]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(j)
    edges = []
    for a, b in zip(hull, hull[1:]):
        (x1, y1), (x2, y2) = pts[a], pts[b]
        dx, dy = x2 - x1, y2 - y1
        xs = tuple(x for x, y in pts[a : b + 1] if (y - y1) * dx == dy * (x - x1))
        edges.append((Fraction(-dy, dx * d), xs))
    return edges


def gamma_J(lines, r) -> tuple[Fraction | float, frozenset[int]]:
    """The minimum of the lines at r and the set of indices attaining it."""
    lines = tuple(lines)
    if not lines:
        raise ValueError("no lines to minimise over")
    if r == INF:
        return INF, frozenset(line.i for line in lines)
    values = [(line.gamma(r), line.i) for line in lines]
    low = min(v for v, _ in values)
    return low, frozenset(i for v, i in values if v == low)
