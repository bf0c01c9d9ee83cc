"""Polynomials over exact rational-function coefficients, and their Taylor data.

``Poly`` is the kernel's polynomial in X; the parser builds it and the
engine and the companion read its coefficients, so it carries no
arithmetic of its own.  ``is_additive`` lives beside it, so that the engine
reads it without loading ``ore``.  The Taylor coefficients c_k of f at w
are the divided-power (Hasse) derivatives that replace d/dX in
characteristic p.
The expansion engine carries them as ``TaylorData``: one exponent
denominator M and, per c_k, a sparse dict {u-exponent: coefficient} in
u = t^(1/M), with no ``RatFun`` and no denominator.  ``taylor_shift`` moves
such data from w to w + zeta*t^r by monomial shifts whose multiply-adds run
in ``ffield.sparse_addmul``, on the log/Zech tables for fields of order at
most 1024.  The module also holds the one Newton-polygon routine,
``newton_edges``, a left-to-right walk of the lower hull that can stop at
a bound on r: the engine's next exponents past ``last_r`` and the
companion's breakpoints both come from it.  ``taylor_at`` and
``evaluate`` compute from scratch in ``RatFun`` arithmetic; only the tests
and the benchmark call them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .ffield import FF, FieldCtx, find_embedding, sparse_addmul
from .hahn import HahnSeries, to_ratfun
from .ratfun import RatFun

INF = math.inf

# the most decimal digits an integer may have as text, a literal in the
# parser's input and a maxexp bound in ``envelope``: CPython's default limit
# on conversion between int and text (sys.get_int_max_str_digits)
MAX_DIGITS = 4300


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


class Poly:
    """A polynomial in X with RatFun coefficients (ascending, trimmed); equal
    by value, not hashable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[RatFun, ...]):
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Poly:
            return NotImplemented
        return self.coeffs == other.coeffs

    @classmethod
    def make(cls, coeffs) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return cls(tuple(cs))

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

    def __hash__(self):
        raise TypeError("polynomials are not hashable")


def is_additive(f: Poly) -> bool:
    """True iff f is nonzero and every monomial exponent is a power of p."""
    if f.is_zero():
        return False
    p = f.ctx.p
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        if i == 0:
            return False
        while i % p == 0:
            i //= p
        if i != 1:
            return False
    return True


# Taylor data of a denominator-cleared f: one exponent denominator M and the
# coefficients c_0..c_n as Laurent polynomials in u = t^(1/M), each a sparse
# dict {u-exponent: nonzero element}; every c_i lies over one field.
TaylorData = tuple[int, list[dict[int, FF]]]


def taylor_shift(data: TaylorData, zeta: FF, r: Fraction) -> TaylorData:
    """Taylor data at w + zeta*t^r from Taylor data (M, [c_0, .., c_n]) at w.

    c_k(w + zeta*t^r) = sum_{i>=k} C(i,k) zeta^(i-k) t^((i-k)r) c_i(w), so each
    term is a carrier's exponent shift times a scalar.  zeta is nonzero and
    the c_i lie over its field; M grows only when r's denominator does not
    divide it.  A c_k that no term changes is returned as the same dict.
    Exact.
    """
    M, cs = data
    den = r.denominator
    if M % den:
        f = den // math.gcd(M, den)
        M *= f
        cs = [{e * f: c for e, c in d.items()} for d in cs]
    step = r.numerator * (M // den)
    ctx = zeta.ctx
    n = len(cs) - 1
    powers = [ctx.one]
    for _ in range(n):
        powers.append(powers[-1] * zeta)
    binomials = _binomial_rows(n, ctx.p)
    out = []
    for k in range(n + 1):
        acc = None
        for i in range(k + 1, n + 1):
            b = binomials[i][k]
            src = cs[i]
            if not b or not src:
                continue
            if acc is None:
                acc = dict(cs[k])
            sparse_addmul(acc, src, ctx.from_int(b) * powers[i - k], (i - k) * step)
        out.append(cs[k] if acc is None else acc)
    return M, out


class NewtonLine:
    """gamma(r) = rho + i*r for the index-i term, with leading coefficient b;
    equal and hashed by value."""

    __slots__ = ("i", "rho", "b")

    def __init__(self, i: int, rho: Fraction, b: FF):
        self.i = i
        self.rho = rho
        self.b = b

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NewtonLine:
            return NotImplemented
        return (self.i, self.rho, self.b) == (other.i, other.rho, other.b)

    def __hash__(self) -> int:
        return hash((self.i, self.rho, self.b))

    def gamma(self, r) -> Fraction | float:
        if r == INF:
            return INF
        return self.rho + self.i * Fraction(r)


def newton_edges(points, d=1, above=None) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The edges (r, xs) of the lower convex hull of points (x, y/d), left to right.

    The x are distinct ascending integers, the y integers over the common
    denominator d (or rationals, with d = 1); r is an edge's negated slope,
    so it falls from edge to edge, and xs holds the x of every point on the
    edge.  The walk steps from each vertex, the first point first, to the
    farthest point of largest r, comparing slopes by cross-multiplication,
    so integer y need no Fraction until an edge is kept.  With ``above`` it
    stops at the first edge with r*d <= above, so it returns exactly the
    edges with r > above/d.  For Taylor data over one exponent denominator
    M, the points (i, min(c_i)) over d = M give the next exponents, and the
    engine passes above = last_r*M (``expand``); for an additive
    polynomial, the points (p^i, v(a_i)) give the kinks of the envelope of
    its lines v(a_i) + p^i*r, where the lines of xs attain the minimum
    (``envelope``).
    """
    edges = []
    vertex = 0
    while vertex < len(points) - 1:
        x0, y0 = points[vertex]
        # the least slope dy/dx from the vertex, the points on it, the farthest
        dy = None
        for j in range(vertex + 1, len(points)):
            x, y = points[j]
            ey, ex = y - y0, x - x0
            if dy is None or ey * dx < dy * ex:
                dy, dx, xs, far = ey, ex, [x0, x], j
            elif ey * dx == dy * ex:
                xs.append(x)
                far = j
        vertex = far
        if above is not None and -dy <= above * dx:
            break
        edges.append((Fraction(-dy, dx * d), tuple(xs)))
    return edges


# ---------------------------------------------------------------------------
# Taylor data from scratch.  Nothing in src/ calls it: the engine derives
# every node's Taylor data with taylor_shift.  It stays for the benchmark
# until ROADMAP item 3 gives it the kernel's own counters, because
# perfbench/micro.py imports taylor_at at load (hasse.taylor_us.cubic20) and
# perfbench/tracing.py wraps expand.taylor_at and expand.evaluate by name.
# The tests check taylor_shift against taylor_at.


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' digit product (for taylor_at)."""
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


def _as_ratfun(w) -> RatFun:
    # for taylor_at and evaluate, the one caller of hahn.to_ratfun
    if isinstance(w, HahnSeries):
        return to_ratfun(w)
    if isinstance(w, RatFun):
        return w
    raise TypeError(f"cannot evaluate at {type(w).__name__}")


def _lift_poly(f: Poly, ctx: FieldCtx, M: int) -> list[RatFun]:
    """Re-express f's coefficients over the target context and exponent group
    (for taylor_at and evaluate)."""
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
    """Powers of a fixed point, computed on demand via base-p decomposition
    (for taylor_at and evaluate)."""

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
    derivative of f at w.  Exact.  Imported by perfbench/micro.py."""
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


def evaluate(f: Poly, w) -> RatFun:
    """f(w), exactly, for a finite exact series or rational-function point.
    Wrapped as expand.evaluate by perfbench/tracing.py."""
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
