import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from hahnroot.cli import Command, parse_polynomial, poly_text, run
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
from hahnroot.ore import AdditivePolynomial, addpol
from hahnroot.ratfun import RatFun


def additive(p, coeff_map):
    sides = {i: ({e: c % p for e, c in num.items() if c % p}, {0: 1})
             for i, num in coeff_map.items()}
    return AdditivePolynomial(p, sides)


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
    """An additive polynomial whose valuations are 6v for v drawn in (1/6)Z,
    often collinear.

    Coefficients are monomials c*t^(6v).  Scaling every valuation by 6
    scales each breakpoint by 6 and keeps its argmin set, so the draws cover
    the configurations of valuations in (1/6)Z.  Half the time a run of at
    least three points (p^i, v(a_i)) lies on one line and every other point
    lies on or above it, so several lines meet at one breakpoint.
    """
    p = rng.choice((2, 3, 5))
    support = sorted(rng.sample(range(6), rng.randint(2, 5)))
    vals = {i: Fraction(rng.randint(-24, 24), 6) for i in support}
    if len(support) >= 3 and rng.random() < 0.5:
        run = set(rng.sample(support, rng.randint(3, len(support))))
        c, s = Fraction(rng.randint(-12, 12), 6), Fraction(rng.randint(-12, 12), 6)
        for i in support:
            lift = 0 if i in run else Fraction(rng.randint(0, 12), 6)
            vals[i] = c + s * p**i + lift
    sides = {i: ({int(v * 6): rng.randint(1, p - 1)}, {0: 1}) for i, v in vals.items()}
    return AdditivePolynomial(p, sides)


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


def test_maxexp_prints_up_to_4300_digits_and_refuses_above():
    # 1558! has exactly 4300 digits, 1559! has 4303
    assert len(str(maxexp(1558))) == 4300
    assert maxexp(1558) == math.factorial(1558)
    with pytest.raises(ValueError, match=r"1559! has 4303 digits"):
        maxexp(1559)
    assert [maxexp(d) for d in range(6)] == [1, 1, 2, 6, 24, 120]


def test_maxexp_refuses_a_huge_base_without_computing_it():
    # the (5, 4) companion-ladder rung: sharp base 5^10
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"9765625! has 64017637 digits"):
        maxexp(5**10)
    assert time.perf_counter() - start < 1


# sha256 of the bounds and order-bound JSON responses, in that order, for
# each polynomial of corpus(20260810, 50, ps=(2, 3), max_deg=4)
BOUNDS_SHA256 = "c9d768f39814697ae6e78913bae84669fdfcd09068ffd617a9e79e88cdbf0c82"


def test_bounds_build_no_coefficient(monkeypatch):
    # the bounds read only v(a_i), off the companion's unreduced sides: no
    # RatFun is built and no a_i is reduced
    built = []
    init = RatFun.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    digest = hashlib.sha256()
    for g in corpus(20260810, 50, ps=(2, 3), max_deg=4):
        with monkeypatch.context() as patch:
            patch.setattr(RatFun, "__init__", counting_init)
            P, points = companion_points(g)
            maxram(P, points)
            maxexp_base(P, points)
            order_type_bound(P, points)
        assert not built
        assert "coeffs" not in vars(P)
        for verb in ("bounds", "order-bound"):
            code, text = run(Command(verb, g.ctx.p, poly_text(g), fmt="json"))
            digest.update(f"{code} {text}\n".encode())
    assert digest.hexdigest() == BOUNDS_SHA256
