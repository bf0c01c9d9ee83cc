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
the reduction into n dot products (``intpoly.dot``), one per residue entry,
of the stretched entries by a column of short table entries.  Residue
columns shed powers of t as they grow (an integer of bookkeeping each),
which keeps the polynomial degrees near their intrinsic size.

The elimination is Bareiss's, each new entry top[c] m[i][j] - m[i][c]
top[j] one dot product with top[j] negated.  Each pivot divides the next
step's entries and its own row of the back-substitution through one
``intpoly.Divisor``, so its series inverse is computed once.  A step whose
pivot equals the one before it, over a column zero below it, changes no
entry and is only recorded; the unit columns X^(p^i) with p^i < n are such
steps.

The kernel needs no content gcd.  Let c be the earliest free column.  The
kernel vector with a_c = 1 is Q = X^(p^c) + sum_{i<c} a_i X^(p^i), the
monic additive multiple of g of least degree, and its a_i lie in F_p[t].
g is monic over F_p[t], so its roots are integral over F_p[t].  Every root
of Q has one multiplicity p^e, and the integral ones form an F_p-space that
holds g's roots and that the automorphisms over F_p(t) permute; the product
of (X - x)^(p^e) over it is therefore an additive multiple of g over
F_p(t), and by minimality it is Q.  So Q's coefficients are integral over
F_p[t] and lie in F_p(t), hence in F_p[t].  In the residue columns, which
carry t^shifts[i] less than X^(p^i) mod g, the kernel entries are
a_i t^(shifts[i] - shifts[c]): Laurent polynomials.

The back-substitution starts from 1 at c and keeps each entry as a
polynomial and a t-offset, so each row's sum, one dot product with the
offsets as zero prefixes, divided by its pivot's t-free part is exact (an
inexact one raises).  Brought to one offset with the least t-power
stripped, the entries form the primitive kernel vector over F_p[t], its
free entry 1 times a power of t; nothing scales it.  Each a_i's
sides, with the highest nonzero a_i made 1, are divided by the lowest term
of the denominator, which makes that term 1*t^0.  So any scale of the
kernel gives the very same sides, the Cramer vector (the last pivot,
Bareiss's leading minor, at c) divided by its monic content, which
``tests/oracles.cramer_addpol`` computes, among them.

Each a_i is kept normalised, not reduced: its numerator and denominator
sides as dicts {t-exponent: int mod p}.  The bounds read only the
valuations v(a_i) = min(num) - min(den), which a common factor does not
change.  The verbs that print the a_i read ``reduced``, each a_i's sides
put by ``ratfun.reduced_t_sides`` into the form its ``RatFun`` would take,
built on first read and printed as ints: an a_i with a one-term
denominator is handed back as its very dicts, and only the others run a
gcd; ``coeffs`` builds the ``RatFun``s from those sides, with no second gcd.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import intpoly
from .ffield import FieldCtx, field_ctx
from .hasse import Poly, is_additive  # noqa: F401  (ore.is_additive stays importable)
from .ratfun import RatFun, reduced_t_sides


# largest p^n (n = deg f >= 2) whose companion is computed: the Frobenius
# table takes (n-1)p + 1 powers of X and the companion's t-degrees grow like
# p^n; (7, 6), at the limit, answers in about 3 s
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
    a_i kept as its normalised, unreduced sides.  No ``__slots__``:
    ``reduced`` and ``coeffs`` are cached in the instance dict on first
    read."""

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
    def reduced(self) -> dict[int, Sides]:
        """Each a_i's sides as ``ratfun.reduced_t_sides`` leaves them, the
        form the verbs print; built on first read."""
        p = self.p
        return {i: reduced_t_sides(num, den, p) for i, (num, den) in self.sides.items()}

    @cached_property
    def coeffs(self) -> dict[int, RatFun]:
        """Each a_i as a ``RatFun``, built from ``reduced``; built on first
        read."""
        ctx = self.ctx
        return {i: RatFun.from_reduced_t_sides(ctx, num, den) for i, (num, den) in self.reduced.items()}


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
    out = [0] * ((len(a) - 1) * factor + 1) if a else []
    out[::factor] = a
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
    # f's cleared coefficients, a few terms each, divided by the monic gcd
    # of their nonzero entries: the gcd folds in from the shortest entry
    # on, and a constant gcd leaves the entries as they are
    content: list[int] = []
    for entry in sorted(filter(None, vec), key=len):
        content = intpoly.gcd(content, entry, p)
        if intpoly.deg(content) == 0:
            return vec
    return intpoly.Divisor(content, p).divexact_all(vec)


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
    rows = [(_stretch(entry, p), row) for entry, row in zip(vec, table) if entry]
    return [intpoly.dot([(long, row[k]) for long, row in rows], p) for k in range(len(table))]


def _echelon(f: Poly) -> tuple[int, list[int], list[int], list[list[list[int]]],
                               list[intpoly.Divisor | None], int]:
    """f's residue matrix in Bareiss echelon form, with what ``addpol`` reads
    off it: (p, lc, shifts, matrix, divisors, free), where g's roots are lc
    times f's, column i is X^(p^i) mod g over t^shifts[i], divisors[row]
    divides by row's pivot (None for a pivot of 1) and free is the earliest
    column without a pivot."""
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
            negated = [intpoly.neg(entry, p) for entry in top[c + 1:]]
            step = [intpoly.dot(((top[c], row[j]), (row[c], negated[j - c - 1])), p)
                    for row in matrix[c + 1:] for j in range(c + 1, n + 1)]
            if prev:
                step = prev.divexact_all(step)
            for k, i in enumerate(range(c + 1, n)):
                matrix[i][c:] = [[]] + step[k * w:(k + 1) * w]
            prev = intpoly.Divisor(top[c], p) if top[c] != [1] else None
        divisors.append(prev)

    return p, lc, shifts, matrix, divisors, c


def _kernel(matrix: list[list[list[int]]], divisors: list[intpoly.Divisor | None], free: int,
            p: int) -> list[list[int]]:
    # the kernel vector for the free column, by exact back-substitution from
    # kernel[free] = 1, each entry t^offset * poly; the entries are Laurent
    # polynomials in t (module docstring), so dividing a row's sum t^low * s
    # by its pivot t^v * u leaves the t-free quotient s/u exact, taken by the
    # row's Divisor as (t^v * s) / pivot
    polys: list[list[int]] = [[] for _ in range(len(matrix) + 1)]
    offsets = [0] * len(polys)
    polys[free] = [1]
    for row in range(free - 1, -1, -1):
        low = min(offsets[col] for col in range(row + 1, free + 1) if polys[col])
        acc = intpoly.dot([(matrix[row][col], [0] * (offsets[col] - low) + polys[col])
                           for col in range(row + 1, free + 1) if polys[col]], p)
        divisor = divisors[row]
        if acc and divisor:
            v = next(i for i, c in enumerate(divisor.b) if c)
            acc = divisor.divexact_all([[0] * v + acc])[0]
            low -= v
        polys[row], offsets[row] = intpoly.neg(acc, p), low

    # one offset for all, the least t-power stripped: the primitive vector,
    # its free entry 1 times a power of t
    low = min(offsets[i] for i, entry in enumerate(polys) if entry)
    kernel, _ = _valuation_strip([[0] * (offsets[i] - low) + entry if entry else []
                                  for i, entry in enumerate(polys)])
    return kernel


def _sides(kernel: list[list[int]], shifts: list[int], lc: list[int], p: int) -> dict[int, Sides]:
    # undo the monic model (a_i picks up lc^(p^i)) and the t-power strips,
    # then normalise the highest nonzero coefficient to 1: a_i is kernel[i]
    # t^(shifts[top] - shifts[i]) over kernel[top] lc^(p^top - p^i).  With
    # lc = t^v u, u(0) != 0, the power of t only shifts the denominator, and
    # u^(p^top - p^i) = (u^(p^m - 1))^(p^i), m = top - i, where u^(p^m - 1)
    # is the product of (u^(p-1))^(p^j) over j < m: one chain of products.
    # Each factor of the chain has constant term u(0)^(p-1) = 1, so every
    # denominator's lowest term is that of kernel[top], t^lo c; both sides
    # are divided by it
    supported = [i for i, entry in enumerate(kernel) if entry]
    top = supported[-1]
    v = next(e for e, c in enumerate(lc) if c)
    u = lc[v:]
    step = intpoly.divexact(_stretch(u, p), u, p)
    chain = [[1]]
    for m in range(top - supported[0]):
        chain.append(intpoly.mul(chain[-1], _stretch(step, p**m), p))
    lo = next(e for e, c in enumerate(kernel[top]) if c)
    head = kernel[top][lo:]
    inv = pow(head[0], p - 2, p)
    sides: dict[int, Sides] = {}
    for i in supported:
        den = intpoly.mul(head, _stretch(chain[top - i], p**i), p)
        shift = shifts[top] - shifts[i] - lo - v * (p**top - p**i)
        sides[i] = ({e: c * inv % p for e, c in enumerate(kernel[i], shift) if c},
                    {e: c * inv % p for e, c in enumerate(den) if c})
    return sides


def addpol(f: Poly) -> AdditivePolynomial:
    """The deterministic additive multiple of f; f divides the result and its
    degree is at most p^(deg f)."""
    p, lc, shifts, matrix, divisors, free = _echelon(f)
    return AdditivePolynomial(p, _sides(_kernel(matrix, divisors, free, p), shifts, lc, p))
