import math
import random
from fractions import Fraction

from hahnroot.cli import parse_polynomial
from hahnroot.corpus import corpus
from hahnroot.envelope import (
    INF,
    companion_points,
    intersection_points,
    maxexp,
    maxexp_base,
    maxram,
    order_type_bound,
    paper_base,
)
from hahnroot.ffield import field_ctx
from hahnroot.ore import AdditivePolynomial, addpol
from hahnroot.ratfun import RatFun


F3 = field_ctx(3)


def additive(p, coeff_map):
    ctx = field_ctx(p)
    coeffs = {i: RatFun.from_t_coeffs(ctx, num) for i, num in coeff_map.items()}
    return AdditivePolynomial(p, coeffs)


def oracle_points(P):
    """Argmin sets evaluated at every pairwise line crossing, by definition."""
    lines = [(i, P.p**i, Fraction(P.coeffs[i].valuation())) for i in sorted(P.coeffs)]
    candidates = set()
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            _, sa, va = lines[a]
            _, sb, vb = lines[b]
            candidates.add(Fraction(va - vb, sb - sa))
    out = []
    for r in sorted(candidates):
        values = [(v + s * r, i) for i, s, v in lines]
        low = min(v for v, _ in values)
        J = frozenset(i for v, i in values if v == low)
        if len(J) > 1:
            out.append((r, J))
    if len(lines) > 1:
        out.append((INF, frozenset(i for i, _, _ in lines)))
    return out


def test_two_line_examples():
    P = additive(3, {0: {0: -1}, 1: {0: 1}})  # X^3 - X
    pts = intersection_points(P)
    assert [(b.r, b.J) for b in pts] == [
        (Fraction(0), frozenset({0, 1})),
        (INF, frozenset({0, 1})),
    ]
    P = additive(3, {0: {1: -1}, 1: {0: 1}})  # X^3 - tX
    pts = intersection_points(P)
    assert [(b.r, b.J) for b in pts] == [
        (Fraction(1, 2), frozenset({0, 1})),
        (INF, frozenset({0, 1})),
    ]


def test_single_line_has_no_points():
    P = additive(3, {1: {0: 1}})  # X^3
    assert intersection_points(P) == []


def test_crossings_above_the_envelope_do_not_count():
    # lines: 0 -> r, 1 -> -2 + 3r, 2 -> 9r: lines 0 and 2 cross at 0 but the
    # minimum there is attained by line 1 alone
    P = additive(3, {0: {0: 1}, 1: {-2: 1}, 2: {0: 1}})
    pts = [b for b in intersection_points(P) if b.is_finite]
    assert all(not (b.r == 0 and b.J == frozenset({0, 2})) for b in pts)
    assert [(b.r, b.J) for b in pts] == oracle_points(P)[:-1]


def synthetic_additive(rng):
    """An additive polynomial with valuations in (1/6)Z, often collinear.

    Coefficients are monomials c*t^(e/6).  Half the time a run of at least
    three points (p^i, v(a_i)) lies on one line and every other point lies on
    or above it, so several lines meet at one breakpoint.
    """
    p = rng.choice((2, 3, 5))
    ctx = field_ctx(p)
    support = sorted(rng.sample(range(6), rng.randint(2, 5)))
    vals = {i: Fraction(rng.randint(-24, 24), 6) for i in support}
    if len(support) >= 3 and rng.random() < 0.5:
        run = set(rng.sample(support, rng.randint(3, len(support))))
        c, s = Fraction(rng.randint(-12, 12), 6), Fraction(rng.randint(-12, 12), 6)
        for i in support:
            lift = 0 if i in run else Fraction(rng.randint(0, 12), 6)
            vals[i] = c + s * p**i + lift
    coeffs = {}
    for i, v in vals.items():
        coeff = ctx.from_int(rng.randint(1, p - 1))
        coeffs[i] = RatFun(ctx, 6, {int(v * 6): coeff}, {0: ctx.one})
    return AdditivePolynomial(p, coeffs)


def test_agrees_with_argmin_oracle_on_corpus():
    for g in corpus(seed=5, count=25, ps=(2, 3), max_deg=4):
        P = addpol(g)
        got = [(b.r, b.J) for b in intersection_points(P)]
        assert got == oracle_points(P)
    rng = random.Random(9)
    multi = 0
    for _ in range(400):
        P = synthetic_additive(rng)
        got = [(b.r, b.J) for b in intersection_points(P)]
        assert got == oracle_points(P)
        multi += any(len(J) > 2 for r, J in got if r != INF)
    assert multi > 50


def companion_of(text, p):
    return companion_points(parse_polynomial(text, p))


def test_maxram_golden():
    assert maxram(*companion_of("X^2 - t", 3)) == 2
    for p in (2, 3, 5):
        assert maxram(*companion_of(f"X^{p} - X - 1/t", p)) == 1
    assert maxram(*companion_of("X^3 - X^2 - 1/t", 3)) % 2 == 0


def test_maxexp_paper_mode():
    f = parse_polynomial("X^2 + X + t", 2)
    assert paper_base(f) == 8
    assert maxexp(paper_base(f)) == math.factorial(8) == 40320


def test_maxexp_sharp_mode_artin_schreier():
    # the companion of X^p - X - 1/t has breakpoints at 0 (J = {0,1}) and
    # -1/p (J = {1,2}), so the sharp base is p * p^2
    for p in (2, 3):
        f = parse_polynomial(f"X^{p} - X - 1/t", p)
        P, points = companion_points(f)
        pts = [b for b in intersection_points(P) if b.is_finite]
        assert [(b.r, b.J) for b in pts] == [
            (Fraction(-1, p), frozenset({1, 2})),
            (Fraction(0), frozenset({0, 1})),
        ]
        assert maxexp_base(P, points) == p**3
        assert maxexp(maxexp_base(P, points)) == math.factorial(p**3)


def test_maxexp_sharp_never_exceeds_paper():
    for g in corpus(seed=11, count=10, ps=(2, 3), max_deg=3):
        assert maxexp_base(*companion_points(g)) <= paper_base(g)


def test_order_type_bound():
    assert order_type_bound(*companion_of("X^2 - t", 3)) == (2, "ω^2")
    m, label = order_type_bound(*companion_of("X^3 - 2*X", 3))
    assert label == f"ω^{m}"
    for g in corpus(seed=13, count=10, ps=(2, 3), max_deg=3):
        n = g.degree
        m, _ = order_type_bound(*companion_points(g))
        assert m <= n * (n + 1) // 2 + 1


def test_structural_count_bounds():
    for g in corpus(seed=17, count=20, ps=(2, 3), max_deg=4):
        P = addpol(g)
        finite = [b for b in intersection_points(P) if b.is_finite]
        assert len(finite) <= len(P.coeffs) - 1 if len(P.coeffs) > 1 else not finite
        n = max(P.support)
        assert len(intersection_points(P)) <= n * (n + 1) // 2 + 1
