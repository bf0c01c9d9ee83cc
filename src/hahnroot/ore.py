"""The additive companion polynomial of f over F_p(t).

Every f of degree n >= 1 divides a nonzero additive polynomial
P(X) = sum a_i X^(p^i) with i <= n: the residues X^(p^i) mod f are n+1
vectors in an n-dimensional space, so a nontrivial dependency exists.

The computation stays inside F_p[t] throughout: f is scaled to polynomial
coefficients, passed to the monic model g(X) = lc^(n-1) f(X/lc), and the
dependency is found by fraction-free elimination on the residue matrix.

Each residue is the last one raised to the p-th power: with v = sum_j v_j
X^j, v^p = sum_j v_j(t)^p X^(jp), and v_j(t)^p only spreads v_j's
exponents.  One table T[j] = X^(jp) mod g, j < n, built per request, turns
the reduction into n^2 products of a stretched entry by a short table
entry.  Residue columns shed powers of t as they grow (an integer of
bookkeeping each), which keeps the polynomial degrees near their intrinsic
size.

The elimination is Bareiss's.  Each pivot divides the next step's entries
and its own row of the back-substitution through one ``intpoly.Divisor``,
so its series inverse is computed once.  A step whose pivot equals the one
before it, over a column zero below it, changes no entry and is only
recorded; the unit columns X^(p^i) with p^i < n are such steps.  The
output is deterministic: the kernel vector attached to the earliest free
column, scaled there by the last pivot before it (by Cramer, the minor that
makes the vector polynomial), divided by its content and normalised so the
highest nonzero a_i equals 1.  Any other scale of the vector gives the
same a_i: the content is a monic gcd, so the sides can differ only by a
unit of F_p, and the reduced a_i not at all.

The content is the gcd of the kernel's entries, taken in ascending length.
The entries are thousands of terms long, but the content is about as long
as the shortest of them, usually the top one, and often equal to it.  A gcd
started from the shortest entry reduces each longer entry modulo a short
polynomial, and when that polynomial divides it, the one division is the
whole gcd step; started from two long entries, the first gcd alone is a
half-gcd on thousands of terms.  The gcd, and so every printed coefficient,
does not depend on the order.

Each a_i is kept as the elimination leaves it: its numerator and
denominator sides as dicts {t-exponent: int mod p}, not reduced.  The
bounds read only the valuations v(a_i) = min(num) - min(den), which a
common factor does not change.  The reduced ``RatFun`` coefficients, which
only the verbs that print them need, are built from the sides on first read
of ``coeffs``.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import intpoly
from .ffield import FieldCtx, field_ctx
from .hasse import Poly, is_additive  # noqa: F401  (ore.is_additive stays importable)
from .ratfun import RatFun


# largest p^n (n = deg f >= 2) whose companion is computed: the Frobenius
# table takes (n-1)p + 1 powers of X and the companion's t-degrees grow like
# p^n; (7, 6), at the limit, answers in about 8 s
_DEGREE_LIMIT = 7**6

# largest cleared t-span (``_t_span``) whose companion is computed: the
# residues are dense in t, so memory grows with the span; under a 2 GB
# address space X+t^(6*10^7) answers at p = 2 in about 10 s and X+t^(10^8)
# runs out of memory at p = 2 and 3
_T_SPAN_LIMIT = 2**26


# an a_i as its numerator and denominator, each {t-exponent: int mod p}
Sides = tuple[dict[int, int], dict[int, int]]


class AdditivePolynomial:
    """P(X) = sum_{i in support} a_i X^(p^i), coefficients in F_p(t), each
    a_i kept as its unreduced sides.  No ``__slots__``: ``coeffs`` is cached
    in the instance dict on first read."""

    def __init__(self, p: int, sides: dict[int, Sides]):
        if not sides:
            raise ValueError("additive polynomial must have a nonzero coefficient")
        self.p = p
        self.sides = sides

    @property
    def support(self) -> list[int]:
        return sorted(self.sides)

    @property
    def ctx(self) -> FieldCtx:
        return field_ctx(self.p)

    def valuation(self, i: int) -> int | float:
        """v(a_i), read off the sides; +infinity for a zero a_i."""
        num, den = self.sides[i]
        return min(num) - min(den) if num else math.inf

    @cached_property
    def coeffs(self) -> dict[int, RatFun]:
        """Each a_i as a ``RatFun``, reduced by its constructor; built on
        first read."""
        ctx = self.ctx
        return {i: RatFun(ctx, 1, {e: ctx.from_int(c) for e, c in num.items()},
                          {e: ctx.from_int(c) for e, c in den.items()})
                for i, (num, den) in self.sides.items()}


def _t_span(f: Poly) -> int:
    """The sum over f's coefficients of their t-spans, largest minus smallest
    exponent of numerator and denominator together: a bound on the degree of
    every coefficient once the denominators are cleared."""
    # each denominator holds the exponent 0, so the span reaches down to it
    spans = ((*c.num, *c.den) for c in f.coeffs)
    return sum(max(exps) - min(exps) for exps in spans)


def _ratfun_as_intpoly_pair(a: RatFun) -> tuple[list[int], list[int]]:
    # shift the Laurent-normal form into a pair of honest polynomials in t
    exps = list(a.num) + list(a.den)
    shift = -min(min(exps), 0) if exps else 0
    num = [0] * (max(a.num, default=0) + shift + 1)
    for e, c in a.num.items():
        num[e + shift] = c.coeffs[0]
    den = [0] * (max(a.den) + shift + 1)
    for e, c in a.den.items():
        den[e + shift] = c.coeffs[0]
    return intpoly.trim(num), intpoly.trim(den)


def _stretch(a: list[int], factor: int) -> list[int]:
    # a(t) ** factor when factor is a power of p: coefficients are fixed by
    # Frobenius, so only the exponents spread
    if not a:
        return []
    out = [0] * ((len(a) - 1) * factor + 1)
    for e, c in enumerate(a):
        if c:
            out[e * factor] = c
    return out


def _valuation_strip(vec: list[list[int]]) -> tuple[list[list[int]], int]:
    # divide a vector of t-polynomials by the largest common power of t
    vals = []
    for entry in vec:
        if entry:
            vals.append(next(i for i, c in enumerate(entry) if c))
    if not vals:
        return vec, 0
    v = min(vals)
    if v == 0:
        return vec, 0
    return [entry[v:] if entry else [] for entry in vec], v


def _strip_content(vec: list[list[int]], p: int) -> list[list[int]]:
    # vec divided by the monic gcd of its nonzero entries, taken shortest
    # first (see the module docstring): the shortest entry is the first
    # candidate, and one division of every entry by it, through one shared
    # inverse, both tests it and gives the quotients.  Each nonzero
    # remainder r replaces the candidate c by gcd(c, r), which the content
    # still divides, and the divisions run again.
    content = intpoly.monic(min((entry for entry in vec if entry), key=len), p)
    while intpoly.deg(content) > 0:
        results = intpoly.Divisor(content, p).divmod_all(vec)
        rems = sorted((r for _, r in results if r), key=len)
        if not rems:
            return [q for q, _ in results]
        for r in rems:
            content = intpoly.gcd(content, r, p)
            if intpoly.deg(content) == 0:
                break
    return vec


def _frobenius_table(g: list[list[int]], p: int) -> list[list[list[int]]]:
    # T[j] = X^(jp) mod the monic g for j < n, from X^0 on: X^(m+1) is X^m
    # shifted up one place, less its top coefficient times g
    n = len(g) - 1
    power = [[1]] + [[] for _ in range(n - 1)]
    table = [power]
    for m in range(1, (n - 1) * p + 1):
        top = power[-1]
        power = [[]] + power[:-1]
        if top:
            power = [intpoly.sub(power[j], intpoly.mul(top, g[j], p), p) for j in range(n)]
        if m % p == 0:
            table.append(power)
    return table


def _frobenius_step(vec: list[list[int]], table: list[list[list[int]]], p: int) -> list[list[int]]:
    # (sum_j vec_j X^j)^p = sum_j vec_j(t)^p X^(jp), and vec_j(t)^p is
    # vec_j stretched, so the residue mod g is sum_j stretch(vec_j) T[j]
    out: list[list[int]] = [[] for _ in table]
    for entry, row in zip(vec, table):
        if entry:
            long = _stretch(entry, p)
            for k, short in enumerate(row):
                if short:
                    out[k] = intpoly.add(out[k], intpoly.mul(long, short, p), p)
    return out


def addpol(f: Poly) -> AdditivePolynomial:
    """The deterministic additive multiple of f; f divides the result and its
    degree is at most p^(deg f)."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("additive companion requires degree >= 1")
    ctx = f.ctx
    if ctx.k != 1:
        raise ValueError("additive companion is defined over the prime field")
    p = ctx.p
    n = f.degree
    if n >= 2 and p**n > _DEGREE_LIMIT:
        raise ValueError(f"additive companion of degree up to p^n = {p}^{n} is above "
                         f"the limit {_DEGREE_LIMIT} = 7^6")
    span = _t_span(f)
    if span > _T_SPAN_LIMIT:
        raise ValueError(f"additive companion of f spanning {span} powers of t is above "
                         f"the limit {_T_SPAN_LIMIT} = 2^26")

    # clear denominators: same roots, polynomial coefficients
    pairs = [_ratfun_as_intpoly_pair(c) for c in f.coeffs]
    common = [1]
    for _, den in pairs:
        common = intpoly.lcm(common, den, p)
    ftil = _strip_content(
        [intpoly.mul(num, intpoly.divexact(common, den, p), p) for num, den in pairs], p)

    # monic model g(X) = lc^(n-1) ftil(X/lc); roots are lc * (roots of f)
    lc = ftil[n]
    if intpoly.deg(lc) == 0:
        inv = pow(lc[0], p - 2, p)
        g = [intpoly.scal(entry, inv, p) for entry in ftil]
        lc = [1]
    else:
        g = [list(entry) for entry in ftil]
        g[n] = [1]
        power = [1]
        for i in range(n - 1, -1, -1):
            g[i] = intpoly.mul(ftil[i], power, p)
            power = intpoly.mul(power, lc, p)

    # residue columns of X^(p^i) mod g, with stripped t-powers tracked
    columns: list[list[list[int]]] = []
    shifts: list[int] = []
    seed: list[list[int]] = [[], [1]]
    if n == 1:
        # X mod g for a monic linear g: X = g - g_0, so the residue is -g_0
        vec = [intpoly.neg(g[0], p)]
    else:
        vec = seed + [[] for _ in range(n - 2)]
    vec, e = _valuation_strip(vec)
    columns.append(vec)
    shifts.append(e)
    table = _frobenius_table(g, p)
    for _ in range(n):
        vec = _frobenius_step(vec, table, p)
        vec, e = _valuation_strip(vec)
        columns.append(vec)
        shifts.append(p * shifts[-1] + e)

    # fraction-free echelon on the n x (n+1) matrix of t-polynomials.  Once
    # a residue lies in the span of those before it, so does every later one
    # (Frobenius maps the span into itself), so the pivots sit in columns
    # 0, 1, ... and the first column without one, the earliest free column,
    # ends the elimination.  Each pivot divides every entry of the next step,
    # and its own row's kernel entry, through one Divisor; a pivot of 1
    # (None) divides nothing.  A step whose pivot equals the previous one
    # over a column zero below it maps each entry m to (pivot*m - 0)/pivot =
    # m, so it is only recorded: the unit columns X^(p^i), p^i < n, are such
    # steps
    matrix = [[columns[i][row] for i in range(n + 1)] for row in range(n)]
    divisors: list[intpoly.Divisor | None] = []
    prev: intpoly.Divisor | None = None
    for c in range(n + 1):
        pivot = next((i for i in range(c, n) if matrix[i][c]), None)
        if pivot is None:
            break
        matrix[c], matrix[pivot] = matrix[pivot], matrix[c]
        top = matrix[c]
        if top[c] != (prev.b if prev else [1]) or any(matrix[i][c] for i in range(c + 1, n)):
            w = n - c
            step = [
                intpoly.sub(intpoly.mul(top[c], matrix[i][j], p), intpoly.mul(matrix[i][c], top[j], p), p)
                for i in range(c + 1, n) for j in range(c + 1, n + 1)
            ]
            if prev:
                step = prev.divexact_all(step)
            for k, i in enumerate(range(c + 1, n)):
                matrix[i][c:] = [[]] + step[k * w:(k + 1) * w]
            prev = intpoly.Divisor(top[c], p) if top[c] != [1] else None
        divisors.append(prev)

    # kernel vector for the free column c, by exact back-substitution.  Row
    # i's pivot is the leading (i+1)-minor (Bareiss), so by Cramer the last
    # pivot, in row c-1, is a kernel entry at c that makes every other entry
    # a polynomial
    free = c
    kernel: list[list[int]] = [[] for _ in range(n + 1)]
    kernel[free] = prev.b if prev else [1]
    for row in range(free - 1, -1, -1):
        acc: list[int] = []
        for col in range(row + 1, free + 1):
            if matrix[row][col] and kernel[col]:
                acc = intpoly.add(acc, intpoly.mul(matrix[row][col], kernel[col], p), p)
        acc = intpoly.neg(acc, p)
        kernel[row] = divisors[row].divexact_all([acc])[0] if divisors[row] else acc

    # the ray is all that matters
    kernel = _strip_content(kernel, p)

    # undo the monic model (a_i picks up lc^(p^i)) and the t-power strips,
    # then normalise the highest nonzero coefficient to 1
    supported = [i for i in range(n + 1) if kernel[i]]
    top_i = max(supported)
    sides: dict[int, Sides] = {}
    for i in supported:
        delta = shifts[top_i] - shifts[i]
        num = {e + delta: c for e, c in enumerate(kernel[i]) if c}
        # lc^(p^top) / lc^(p^i) = (lc^(p^(top-i) - 1))^(p^i), folded into the
        # denominator; the division is by lc itself, not by its p^i-th power
        lc_pow = _stretch(intpoly.divexact(_stretch(lc, p**(top_i - i)), lc, p), p**i)
        den_poly = intpoly.mul(kernel[top_i], lc_pow, p)
        sides[i] = num, {e: c for e, c in enumerate(den_poly) if c}
    return AdditivePolynomial(p, sides)
