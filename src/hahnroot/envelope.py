"""Lower-envelope geometry of an additive polynomial's valuation lines.

Each index i in the support of P = sum a_i X^(p^i) contributes the line
gamma_i(r) = v(a_i) + p^i * r.  The breakpoints where the pointwise minimum
is attained by more than one line are the edges of the Newton polygon of the
points (p^i, v(a_i)).  They control where root supports can ramify away
from p, where residue fields can grow, and how long a root's support can
be; the bound algorithms here just read those breakpoints off.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .hahn import prime_exponent
from .hasse import INF, MAX_DIGITS, Poly, newton_edges
from .ore import AdditivePolynomial, addpol


class Breakpoint(namedtuple("Breakpoint", "r J")):
    """A value r (rational, or +infinity) where the argmin has >= 2 lines,
    with the frozenset J of those lines; equal and hashed by value."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.r != INF


def intersection_points(P: AdditivePolynomial) -> list[Breakpoint]:
    """All r with at least two lines attaining the minimum, sorted ascending.

    At the r = -slope of an edge of the Newton polygon of the points
    (p^i, v(a_i)), the minimum is attained by exactly the lines whose points
    lie on that edge.  The point at infinity appears exactly when P has >= 2
    terms, since every line takes the value +infinity there.
    """
    support = P.support
    if len(support) < 2:
        return []
    index = {P.p**i: i for i in support}
    edges = newton_edges([(P.p**i, P.valuation(i)) for i in support])
    points = [Breakpoint(r, frozenset(index[x] for x in xs)) for r, xs in reversed(edges)]
    points.append(Breakpoint(INF, frozenset(support)))
    return points


def companion_points(f: Poly) -> tuple[AdditivePolynomial, list[Breakpoint]]:
    """The additive companion P of f and its intersection points.

    Every bound below is read off this pair, so one request builds the
    companion and reads its breakpoints once.  The breakpoints need only
    the valuations v(a_i), read off P's unreduced sides, so no coefficient
    is reduced here.
    """
    P = addpol(f)
    return P, intersection_points(P)


def maxram(P: AdditivePolynomial, points: list[Breakpoint]) -> int:
    """A modulus m coprime to p such that every root of f has its support in
    the group (1/(m*p^inf))Z.

    m is the lcm of the p-free parts of the finite breakpoints' denominators:
    over each prime q != p, the highest power of q dividing one of them.
    """
    m = 1
    for b in points:
        if b.is_finite:
            d = Fraction(b.r).denominator
            m = math.lcm(m, d // P.p ** prime_exponent(d, P.p))
    return m


def maxexp_base(P: AdditivePolynomial, points: list[Breakpoint]) -> int:
    """The sharp residue-degree base D whose factorial bounds coefficient
    fields: the product over finite breakpoints s of p^(max J(s))."""
    d = 1
    for b in points:
        if b.is_finite:
            d *= P.p ** max(b.J)
    return d


def paper_base(f: Poly) -> int:
    """The a-priori residue-degree base prod_{i=1..n} p^i for n = deg f."""
    n = f.degree
    return f.ctx.p ** (n * (n + 1) // 2)


def maxexp(base: int) -> int:
    """A residue-field degree bound from a base D: every root of f has
    coefficients in F_{p^m} with m = D!.  Returned exactly; never used to
    build fields.

    Raises ValueError, before computing D!, when D! has more than 4300
    digits.  The digit count floor(log10 D!) + 1 comes from lgamma; it
    matches the exact count for every D below 3000, so the cut falls
    between 1558! (4300 digits) and 1559! (4303).
    """
    digits = math.floor(math.lgamma(base + 1) / math.log(10)) + 1
    if digits > MAX_DIGITS:
        raise ValueError(f"maxexp: {base}! has {digits} digits, more than the {MAX_DIGITS} "
                         "that can be printed exactly")
    return math.factorial(base)


def order_type_bound(P: AdditivePolynomial, points: list[Breakpoint]) -> tuple[int, str]:
    """(m, "w^m"): the support of any root of f has order type at most
    omega^m, with m the number of intersection points of the companion."""
    m = len(points)
    lines = len(P.sides)
    if lines >= 2:
        cap = (lines - 1) * lines // 2 + 1
        if m > cap:
            raise AssertionError(f"{m} intersection points exceed the {cap} cap")
    return m, f"ω^{m}"
