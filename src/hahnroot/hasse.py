"""Polynomials over exact rational-function coefficients, and their Taylor data.

``Poly`` is the kernel's polynomial in X; the parser builds it and the
engine and the companion read its coefficients, so it carries no
arithmetic of its own.  ``is_additive`` lives beside it, so that the engine
reads it without loading ``ore``.  The Taylor coefficients c_k of f at w
are the divided-power (Hasse) derivatives that replace d/dX in
characteristic p.
The expansion engine carries them as ``TaylorData``: one exponent
denominator M and, per c_k, a sparse dict {u-exponent: coefficient} in
u = t^(1/M), with no ``RatFun`` and no denominator.  At w = 0 they are
the cleared coefficients of f (``cleared_coefficients``), and
``taylor_shift`` moves them from w to w + zeta*t^r by monomial shifts
whose multiply-adds run in ``ffield.sparse_addmul``, on the log/Zech
tables for fields of order at most 1024.  ``taylor_at`` and ``evaluate``
take the same route to every term of a finite series w and multiply the
result back by the clearing factor; only the tests and the benchmark call
them.  The module also holds the one Newton-polygon routine,
``newton_edges``, a left-to-right walk of the lower hull that can stop at
a bound on r: the engine's next exponents past ``last_r`` and the
companion's breakpoints both come from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .ffield import FF, FieldCtx, find_embedding, sparse_addmul, sparse_mul
from .hahn import HahnSeries
from .ratfun import RatFun

INF = math.inf

# the most decimal digits an integer may have as text, a literal in the
# parser's input and a maxexp bound in ``envelope``: CPython's default limit
# on conversion between int and text (sys.get_int_max_str_digits)
MAX_DIGITS = 4300


@lru_cache(maxsize=None)
def _binomial_rows(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of Pascal's triangle mod p: ``rows[i][k]`` is C(i, k) mod p.

    Built by Pascal's rule rather than Lucas' digit product, which the
    tests' ``RatFun``-arithmetic oracle uses, so comparing ``taylor_shift``
    with that oracle checks each against the other.
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


def cleared_coefficients(f: Poly) -> tuple[TaylorData, tuple[FF, int, dict[int, FF]]]:
    """The coefficients of D*f/(lam*u^e0), the Taylor data at w = 0, and the
    clearing factor (lam, e0, D) that multiplies them back to f's.

    D is the product of f's distinct denominators and lam*u^e0 the leading
    term of f_n's numerator, all in u = t^(1/M); every product is a new
    dict, so no dict of f changes.
    """
    M = math.lcm(*(c.M for c in f.coeffs))
    coeffs = [c.rebase(M) for c in f.coeffs]
    dens: list[dict[int, FF]] = []
    D = {0: f.ctx.one}
    for c in coeffs:
        if len(c.den) > 1 and c.den not in dens:
            dens.append(c.den)
            D = sparse_mul(D, c.den)
    top = coeffs[-1].num
    e0 = min(top)
    inv = top[e0].inverse()
    out = []
    for c in coeffs:
        acc: dict[int, FF] = {}
        sparse_addmul(acc, c.num, inv, -e0)
        for d in dens:
            if d != c.den:
                acc = sparse_mul(acc, d)
        out.append(acc)
    return (M, out), (top[e0], e0, D)


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


def taylor_at(f: Poly, w: HahnSeries) -> list[RatFun]:
    """[c_0, .., c_n] with f(X) = sum c_k (X - w)^k; c_k is the k-th Hasse
    derivative of f at the finite series w.  Exact.

    The engine's route: the cleared coefficients, embedded in w's field and
    rebased once to an M that holds every exponent of w, are shifted by
    each term of w with ``taylor_shift`` and multiplied back by the
    clearing factor.  Imported by perfbench/micro.py.
    """
    if f.is_zero():
        raise ValueError("no Taylor data for the zero polynomial")
    if not isinstance(w, HahnSeries):
        raise TypeError(f"cannot evaluate at {type(w).__name__}")
    (M, cs), (lam, e0, D) = cleared_coefficients(f)
    ctx = w.ctx
    if f.ctx != ctx:
        emb = find_embedding(f.ctx, ctx)
        cs = [{e: emb(c) for e, c in d.items()} for d in cs]
        lam, D = emb(lam), {e: emb(c) for e, c in D.items()}
    s = math.lcm(M, *(e.denominator for e, _ in w.terms)) // M
    data = M * s, [{e * s: c for e, c in d.items()} for d in cs]
    for r, zeta in w.terms:
        data = taylor_shift(data, zeta, r)
    den = {e * s: c for e, c in D.items()}
    return [RatFun(ctx, M * s, {e + e0 * s: c * lam for e, c in d.items()}, den)
            for d in data[1]]


def evaluate(f: Poly, w: HahnSeries) -> RatFun:
    """f(w), exactly, for a nonzero f and a finite series w: c_0 of
    ``taylor_at``.  Wrapped as expand.evaluate by perfbench/tracing.py."""
    return taylor_at(f, w)[0]


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
