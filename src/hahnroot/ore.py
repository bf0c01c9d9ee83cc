"""The additive companion polynomial of f over F_p(t).

Every f of degree n >= 1 divides a nonzero additive polynomial
P(X) = sum a_i X^(p^i) with i <= n: the residues X^(p^i) mod f are n+1
vectors in an n-dimensional space, so a nontrivial dependency exists.

The computation stays inside F_p[t] throughout: f is scaled to polynomial
coefficients, passed to the monic model g(X) = lc^(n-1) f(X/lc), and the
dependency is found by fraction-free elimination on the residue matrix.
Residue columns shed powers of t as they grow (an integer of bookkeeping
each), which keeps the polynomial degrees near their intrinsic size.  Each
pivot of the elimination divides the next step's entries and its own row of
the back-substitution through one ``intpoly.Divisor``, so its series inverse
is computed once.  The output is deterministic: the kernel vector attached
to the earliest free column, divided by its content and normalised so the
highest nonzero a_i equals 1.

The content is the gcd of the kernel's entries, taken in ascending length.
The entries are thousands of terms long, but the content is about as long
as the shortest of them, usually the top one, and often equal to it.  A gcd
started from the shortest entry reduces each longer entry modulo a short
polynomial, and when that polynomial divides it, the one division is the
whole gcd step; started from two long entries, the first gcd alone is a
half-gcd on thousands of terms.  The gcd, and so every printed coefficient,
does not depend on the order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intpoly
from .ffield import FieldCtx
from .hasse import Poly
from .ratfun import RatFun


# largest p^n (n = deg f >= 2) whose companion is computed: the Frobenius
# residues take (n-1)p + 1 slots and the companion's t-degrees grow like p^n;
# (7, 6), at the limit, answers in about 40 s
_DEGREE_LIMIT = 7**6

# largest cleared t-span (``_t_span``) whose companion is computed: the
# residues are dense in t, so memory grows with the span; under a 2 GB
# address space X+t^(6*10^7) answers at p = 2 in about 10 s and X+t^(10^8)
# runs out of memory at p = 2 and 3
_T_SPAN_LIMIT = 2**26


@dataclass(frozen=True)
class AdditivePolynomial:
    """P(X) = sum_{i in support} a_i X^(p^i), coefficients in F_p(t)."""

    p: int
    coeffs: dict[int, RatFun]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("additive polynomial must have a nonzero coefficient")

    @property
    def support(self) -> list[int]:
        return sorted(self.coeffs)

    @property
    def ctx(self) -> FieldCtx:
        return next(iter(self.coeffs.values())).ctx


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


def _frobenius_residue(vec: list[list[int]], g: list[list[int]], p: int) -> list[list[int]]:
    # map sum_j vec_j X^j to its p-th power and reduce mod the monic g
    n = len(g) - 1
    top = (len(vec) - 1) * p
    out: list[list[int]] = [[] for _ in range(top + 1)]
    for j, entry in enumerate(vec):
        if entry:
            out[j * p] = _stretch(entry, p)
    for m in range(top, n - 1, -1):
        c = out[m]
        if c:
            out[m] = []
            for j in range(n):
                if g[j]:
                    out[m - n + j] = intpoly.sub(out[m - n + j], intpoly.mul(c, g[j], p), p)
    return out[:n] + [[] for _ in range(n - len(out))]


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
    for _ in range(n):
        vec = _frobenius_residue(vec, g, p)
        vec, e = _valuation_strip(vec)
        columns.append(vec)
        shifts.append(p * shifts[-1] + e)

    # fraction-free echelon on the n x (n+1) matrix of t-polynomials
    matrix = [[columns[i][row] for i in range(n + 1)] for row in range(n)]
    # each pivot divides every entry of the next step, and its own row's
    # kernel entry, through one Divisor; the first step divides by 1
    pivots: list[int] = []
    divisors: list[intpoly.Divisor] = []
    r = 0
    for c in range(n + 1):
        pivot = next((i for i in range(r, n) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        top, w = matrix[r], n - c
        step = [
            intpoly.sub(intpoly.mul(top[c], matrix[i][j], p), intpoly.mul(matrix[i][c], top[j], p), p)
            for i in range(r + 1, n) for j in range(c + 1, n + 1)
        ]
        if divisors:
            step = divisors[-1].divexact_all(step)
        for k, i in enumerate(range(r + 1, n)):
            matrix[i][c:] = [[]] + step[k * w:(k + 1) * w]
        pivots.append(c)
        divisors.append(intpoly.Divisor(top[c], p))
        r += 1

    # kernel vector for the earliest free column, by exact back-substitution
    free = next(c for c in range(n + 1) if c not in pivots)
    scale = [1]
    for row, col in enumerate(pivots):
        scale = intpoly.mul(scale, matrix[row][col], p)
    kernel: list[list[int]] = [[] for _ in range(n + 1)]
    kernel[free] = scale
    for row in range(len(pivots) - 1, -1, -1):
        col = pivots[row]
        acc = intpoly.mul(matrix[row][free], kernel[free], p) if free > col else []
        for later in range(row + 1, len(pivots)):
            c2 = pivots[later]
            if matrix[row][c2] and kernel[c2]:
                acc = intpoly.add(acc, intpoly.mul(matrix[row][c2], kernel[c2], p), p)
        kernel[col] = divisors[row].divexact_all([intpoly.neg(acc, p)])[0]

    # the ray is all that matters
    kernel = _strip_content(kernel, p)

    # undo the monic model (a_i picks up lc^(p^i)) and the t-power strips,
    # then normalise the highest nonzero coefficient to 1
    supported = [i for i in range(n + 1) if kernel[i]]
    top_i = max(supported)
    coeffs: dict[int, RatFun] = {}
    for i in supported:
        delta = shifts[top_i] - shifts[i]
        num = {e + delta: ctx.from_int(c) for e, c in enumerate(kernel[i]) if c}
        # lc^(p^top) / lc^(p^i) = (lc^(p^(top-i) - 1))^(p^i), folded into the
        # denominator; the division is by lc itself, not by its p^i-th power
        lc_pow = _stretch(intpoly.divexact(_stretch(lc, p**(top_i - i)), lc, p), p**i)
        den_poly = intpoly.mul(kernel[top_i], lc_pow, p)
        den = {e: ctx.from_int(c) for e, c in enumerate(den_poly) if c}
        coeffs[i] = RatFun(ctx, 1, num, den)
    return AdditivePolynomial(p, coeffs)
