"""The corpus invariants, each stated once.

``scripts/run_corpus.py`` (the CI sweep) and ``tests/test_acceptance.py``
both check a polynomial f through this module.  A ``Case`` holds f, its
additive companion P, P's intersection points and f's expansion tree.
Each acceptance criterion (``companion`` 4, ``sites`` 6, ``census`` 7a,
``ascent`` 7b, ``bounds`` 8), the Frobenius closure of the leaf set
(``frobenius_closure``) and the Hensel step of ROADMAP item 12(a)
(``hensel``) is a function of a case that returns its
problems, one line each, and counts what it checked in a ``Counter``.

``divides(f, P)`` proves f | P from the n+1 residues X^(p^i) mod f,
n = deg f: P = sum a_i X^(p^i), so f | P exactly when
sum a_i (X^(p^i) mod f) = 0, and the dense P, of degree p^n, is never
divided.  The computation is exact in F_p[t]: f's denominators are cleared
to F, and X = Y/c, c the leading coefficient of F, gives the monic model
g(Y) = c^(n-1) F(Y/c), whose residues Y^(p^i) mod g lie in F_p[t][Y].
Each is the p-th power of the one before, by binary powering mod g.  Then
f | P exactly when sum a_i c^(p^N - p^i) (Y^(p^i) mod g) = 0, N the top
index of P, the a_i over one denominator.  None of ``ore``'s Frobenius
table, elimination or content code runs; ``tests/test_invariants.py``
checks the verdict against the dense division ``oracles.poly_divmod``.

The prime factoriser and ``strip_p`` are this module's own, so the sweep
does not check the kernel with the kernel's ``intpoly.prime_factors``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from hahnroot import intpoly
from hahnroot.envelope import Breakpoint, companion_points, maxexp_base, maxram
from hahnroot.expand import ExpansionTree, expand_roots
from hahnroot.hasse import INF, Poly, newton_edges
from hahnroot.ore import AdditivePolynomial
from oracles import add, edges, ramifies_at


def strip_p(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# ---------------------------------------------------------------------------
# f | P from the residues X^(p^i) mod f


def _cleared(fracs: list[tuple[dict[int, int], dict[int, int]]], p: int) -> list[list[int]]:
    """Fractions num/den, sides {t-exponent: int}, each times one common
    nonzero element of F_p(t) that makes them all dense F_p[t] lists."""
    pairs = []
    for num, den in fracs:
        # t^(-low) * den has a nonzero constant term
        low = min(den)
        pairs.append(({e - low: c for e, c in num.items()}, _dense(den, -low)))
    shift = -min([0, *(e for num, _ in pairs for e in num)])
    common = [1]
    for _, den in pairs:
        common = intpoly.lcm(common, den, p)
    return [intpoly.mul(_dense(num, shift), intpoly.divexact(common, den, p), p)
            for num, den in pairs]


def _dense(side: dict[int, int], shift: int) -> list[int]:
    out = [0] * (max(side, default=-shift) + shift + 1)
    for e, c in side.items():
        out[e + shift] = c
    return intpoly.trim(out)


def _power(x, e: int, mul, one):
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def divides(f: Poly, P: AdditivePolynomial) -> bool:
    """Does f divide P = sum a_i X^(p^i)?"""
    p, n, top = P.p, f.degree, max(P.sides)
    F = _cleared([({e: c.as_int() for e, c in a.num.items()},
                   {e: c.as_int() for e, c in a.den.items()}) for a in f.coeffs], p)
    c = F[n]

    def tmul(a, b):
        return intpoly.mul(a, b, p)

    # the monic model g(Y) = c^(n-1) F(Y/c)
    g = [tmul(F[j], _power(c, n - 1 - j, tmul, [1])) for j in range(n)]

    def reduce(v):
        # from the top: Y^n = -sum_j g_j Y^j mod g
        for k in range(len(v) - 1, n - 1, -1):
            if v[k]:
                for j in range(n):
                    v[k - n + j] = intpoly.sub(v[k - n + j], tmul(v[k], g[j]), p)
        return v[:n] + [[] for _ in range(n - len(v))]

    def ymul(u, v):
        prod = [[] for _ in range(len(u) + len(v) - 1)]
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = add(prod[i + j], tmul(a, b), p)
        return reduce(prod)

    # residues[i] = Y^(p^i) mod g, each the p-th power of the one before
    residues = [reduce([[], [1]])]
    for _ in range(top):
        residues.append(_power(residues[-1], p, ymul, [[1]]))
    total = [[] for _ in range(n)]
    support = sorted(P.sides)
    for i, a in zip(support, _cleared([P.sides[i] for i in support], p)):
        a = tmul(a, _power(c, p**top - p**i, tmul, [1]))
        for k, entry in enumerate(residues[i]):
            total[k] = add(total[k], tmul(a, entry), p)
    return not any(total)


# ---------------------------------------------------------------------------
# the invariants


@dataclass
class Case:
    """A polynomial with its companion, intersection points and tree."""

    f: Poly
    P: AdditivePolynomial
    points: list[Breakpoint]
    tree: ExpansionTree

    @classmethod
    def build(cls, f: Poly, depth: int) -> "Case":
        P, points = companion_points(f)
        return cls(f, P, points, expand_roots(f, depth))

    @property
    def finite(self) -> set[Fraction]:
        return {b.r for b in self.points if b.is_finite}


def companion(case: Case, counts: Counter) -> list[str]:
    """Criterion 4: P is additive, f | P, and deg P <= p^deg f."""
    f, P = case.f, case.P
    problems = []
    # P = sum a_i X^(p^i): exponents p^i >= 1, so additive exactly when some
    # a_i is nonzero and every a_i is a fraction
    if not (all(i >= 0 and den for i, (_, den) in P.sides.items())
            and any(num for num, _ in P.sides.values())):
        problems.append("companion not additive")
    if not divides(f, P):
        problems.append("companion not divisible")
    top = max((i for i, (num, _) in P.sides.items() if num), default=0)
    if top > f.degree:
        problems.append(f"companion degree {P.p}^{top} > {P.p}^{f.degree}")
    return problems


def sites(case: Case, counts: Counter) -> list[str]:
    """Criterion 6: ramification and expansion only at finite intersection
    points; counts "ramification" and "expansion"."""
    p, finite = case.f.ctx.p, case.finite
    problems = []
    for leaf in case.tree.leaves():
        support = [e for e, _ in leaf.w.terms]
        for idx, r in enumerate(support):
            for q in prime_factors(r.denominator):
                if q != p and ramifies_at(support[:idx], r, q):
                    counts["ramification"] += 1
                    if r not in finite:
                        problems.append(f"{q} ramifies at {r}, not an intersection point")
        # fields[k]: the degree over F_p of the field generated by the first k
        # coefficients; each node's w is a prefix of its leaf's, up to a field
        # embedding, which keeps degrees
        fields = [1]
        for _, c in leaf.w.terms:
            fields.append(math.lcm(fields[-1], c.degree()))
        for node in leaf.chain():
            zeta = node.step_zeta
            if zeta is not None and fields[len(node.parent.w.terms)] % zeta.degree():
                counts["expansion"] += 1
                if node.last_r not in finite:
                    problems.append(f"expanding coefficient at {node.last_r} off the intersection set")
    return problems


def census(case: Case, counts: Counter) -> list[str]:
    """Criterion 7a: intersection counts, and multiplicity conservation at
    every level of the tree down to its leaves."""
    P, degree = case.P, case.f.degree
    problems = []
    finite = len(case.finite)
    if finite > max(len(P.sides) - 1, 0):
        problems.append(f"{finite} finite intersection points from {len(P.sides)} lines")
    n = max(P.support)
    if len(case.points) > n * (n + 1) // 2 + 1:
        problems.append(f"{len(case.points)} intersection points above {n}(n+1)/2 + 1")
    level = [case.tree.root]
    depth = 0
    while True:
        total = sum(node.multiplicity for node in level)
        if total != degree:
            problems.append(f"multiplicities at level {depth} sum to {total}, not {degree}")
        if not any(node.children for node in level):
            return problems
        level = [kid for node in level for kid in (node.children or [node])]
        depth += 1


def ascent(case: Case, counts: Counter) -> list[str]:
    """Criterion 7b: v(f(child)) > L = min(lines at r, v(f(parent))) on
    every step edge.

    Where the hull edge passes through index 0, L is v(f(parent)) and the
    clause holds word for word: strict ascent over the parent.  Tie edges
    avoid index 0, so (0, v(f(w))) lies strictly above them and
    L < v(f(w)); they split off roots that diverge from w at r, and the
    multiplicity census of 7a needs them.  On those edges
    v(f(child)) > v(f(parent)) is not promised.  Counts "index0_edges",
    "tie_edges" and "tie_without_ascent".
    """
    problems = []
    for node, kid in edges(case.tree):
        if kid.step_zeta is None:
            continue
        # the least line v(c_i) + i*r, i >= 1, over the common denominator M*b
        a, b, M = kid.last_r.numerator, kid.last_r.denominator, node.M
        level = Fraction(min(e * b + i * a * M for i, e in node.minima if i), M * b)
        edge_level = min(level, node.residual_valuation)
        if edge_level == node.residual_valuation:
            counts["index0_edges"] += 1
        else:
            counts["tie_edges"] += 1
            if node.residual_valuation != INF and not (
                kid.residual_valuation > node.residual_valuation
            ):
                counts["tie_without_ascent"] += 1
        if not kid.residual_valuation > edge_level:
            problems.append(
                f"residual valuation {kid.residual_valuation} at r = {kid.last_r} does not"
                f" exceed the edge level {edge_level} (parent {node.residual_valuation})"
            )
    return problems


def bounds(case: Case, counts: Counter) -> list[str]:
    """Criterion 8: exponent groups and coefficient degrees; counts
    "exponents" and "coefficients"."""
    p = case.f.ctx.p
    m = maxram(case.P, case.points)
    d_sharp = maxexp_base(case.P, case.points)
    problems = []
    for leaf in case.tree.leaves():
        for e, _ in leaf.w.terms:
            counts["exponents"] += 1
            if m % strip_p(e.denominator, p) != 0:
                problems.append(f"exponent {e} escapes (1/({m} p^inf))Z")
        for node in leaf.chain():
            if node.step_zeta is not None:
                counts["coefficients"] += 1
                if node.step_zeta.degree() > d_sharp:
                    problems.append(f"coefficient degree {node.step_zeta.degree()} > {d_sharp}")
    return problems


def hensel(case: Case, counts: Counter) -> list[str]:
    """ROADMAP item 12(a): at every expanded node of multiplicity 1 with
    f(w) != 0, the general walk past last_r finds the one edge {0, 1}, at
    the r of the node's one child, and that child's coefficient is
    -c_0[e_0]/c_1[e_1]; the engine builds such a child without the walk, so
    the walk is the reference here.  Counts "hensel_nodes"."""
    problems = []
    stack = [case.tree.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.multiplicity != 1 or not node.children or node.minima[0][0]:
            continue
        counts["hensel_nodes"] += 1
        last_r, M = node.last_r, node.M
        above = None if last_r is None else last_r.numerator * (M // last_r.denominator)
        walked = newton_edges(node.minima, M, above)
        kid, zeta = node.children[0], -node.leads[0] / node.leads[1]
        if len(node.children) != 1 or walked != [(kid.last_r, (0, 1))]:
            problems.append(f"the walk past {last_r} at {node.w} gives {walked}, not the"
                            f" one step to r = {kid.last_r} of {len(node.children)} children")
        elif kid.step_zeta != zeta:
            problems.append(f"the step coefficient at {node.w} is {kid.step_zeta},"
                            f" not -c_0/c_1 = {zeta}")
    return problems


def _leaf_image(leaf, s: int) -> tuple:
    """A leaf's data under sigma^s, coefficient-wise: its field, terms,
    multiplicity, status, residual valuation and accumulation report, whose
    solutions are re-sorted as poly_roots orders them (s = 0 keeps the
    printed order)."""
    acc = leaf.accumulation
    if acc is not None:
        solutions = [(z.frobenius(s), flag) for z, flag in acc.solutions]
        if s:
            solutions.sort(key=lambda sol: sol[0].sort_key())
        acc = (acc.r_star, acc.J_star, acc.ctx, acc.heuristic,
               tuple(c.frobenius(s) for c in acc.equation), tuple(solutions))
    terms = tuple((e, c.frobenius(s)) for e, c in leaf.w.terms)
    return (leaf.w.ctx, terms, leaf.multiplicity, leaf.status, leaf.residual_valuation, acc)


def frobenius_closure(case: Case, counts: Counter) -> list[str]:
    """The leaf set is closed under Frobenius sigma: f has coefficients in
    F_p(t), so sigma maps roots of f to roots of f, and the sigma-image of a
    leaf is a leaf with the same exponents, multiplicity, status, residual
    valuation and accumulation data, its equation and solutions conjugated;
    counts "frobenius_images"."""
    leaves = case.tree.leaves()
    printed = {_leaf_image(leaf, 0) for leaf in leaves}
    problems = []
    for leaf in leaves:
        counts["frobenius_images"] += 1
        if _leaf_image(leaf, 1) not in printed:
            problems.append(f"the Frobenius image of the leaf {leaf.w} is not a leaf")
    return problems


CRITERIA = {"4": companion, "6": sites, "7a": census, "7b": ascent, "8": bounds,
            "frobenius": frobenius_closure, "hensel": hensel}


def check(case: Case, counts: Counter | None = None) -> list[str]:
    """Every criterion's problems, each prefixed by its criterion."""
    counts = Counter() if counts is None else counts
    return [f"{name}: {problem}" for name, criterion in CRITERIA.items()
            for problem in criterion(case, counts)]
