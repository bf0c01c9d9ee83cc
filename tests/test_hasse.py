from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot.cli import parse_polynomial
from hahnroot.ffield import field_ctx
from hahnroot.hahn import HahnSeries
from hahnroot.hasse import (
    INF,
    Poly,
    evaluate,
    gamma_J,
    hasse_derivative,
    newton_data,
    newton_edges,
    taylor_at,
)
from hahnroot.ratfun import RatFun, leading_term


F3 = field_ctx(3)
CUBIC = parse_polynomial("X^3 - X^2 - 1/t", 3)


def small_polys(p=3, max_deg=4):
    ctx = field_ctx(p)
    items = st.dictionaries(st.integers(-2, 2), st.integers(0, p - 1), max_size=3)

    def build(rows):
        coeffs = []
        for num_items, den_items in rows:
            num = {e: ctx.from_int(c) for e, c in num_items.items() if c}
            den = {e: ctx.from_int(c) for e, c in den_items.items() if c}
            coeffs.append(RatFun(ctx, 1, num, den or {0: ctx.one}))
        return Poly.make(coeffs)

    return st.builds(build, st.lists(st.tuples(items, items), min_size=1, max_size=max_deg + 1))


def nonzero_ratfuns(p=3):
    ctx = field_ctx(p)
    items = st.dictionaries(st.integers(-2, 2), st.integers(0, p - 1), max_size=3)

    def build(num_items, den_items):
        num = {e: ctx.from_int(c) for e, c in num_items.items() if c}
        den = {e: ctx.from_int(c) for e, c in den_items.items() if c}
        return RatFun(ctx, 1, num or {0: ctx.one}, den or {0: ctx.one})

    return st.builds(build, items, items)


def test_zeroth_derivative_is_identity():
    assert hasse_derivative(CUBIC, 0) == CUBIC


def test_cubic_derivative_ladder():
    d2 = hasse_derivative(CUBIC, 2)
    assert d2.degree == 0 and d2.coeffs[0] == RatFun.from_int(F3, -1)
    d3 = hasse_derivative(CUBIC, 3)
    assert d3.degree == 0 and d3.coeffs[0] == RatFun.one(F3)


def test_derivative_of_pth_power_vanishes():
    xp = Poly.from_int_coeffs(F3, [0, 0, 0, 1])  # X^3
    assert hasse_derivative(xp, 1).is_zero()


def test_taylor_of_square_at_one():
    f = Poly.from_int_coeffs(F3, [0, 0, 1])
    cs = taylor_at(f, RatFun.one(F3))
    assert cs == [RatFun.one(F3), RatFun.from_int(F3, 2), RatFun.one(F3)]


def test_taylor_of_pth_power():
    f = Poly.from_int_coeffs(F3, [0, 0, 0, 1])
    lam = RatFun.from_t_coeffs(F3, {1: 1, 0: 2})
    cs = taylor_at(f, lam)
    assert cs[0] == lam**3
    assert cs[1].is_zero() and cs[2].is_zero()
    assert cs[3] == RatFun.one(F3)


@given(small_polys(), nonzero_ratfuns())
@settings(max_examples=40, deadline=None)
def test_taylor_reconstruction_identity(f, lam):
    if f.is_zero():
        return
    cs = taylor_at(f, lam)
    # rebuild sum c_k (X - lam)^k with the module's own polynomial product
    shift = Poly.make([-lam, RatFun.one(f.ctx)])
    acc = Poly(())
    power = Poly.make([RatFun.one(f.ctx)])
    for c in cs:
        acc = acc + power.scale(c)
        power = power * shift
    assert acc == f


@given(small_polys(), nonzero_ratfuns())
@settings(max_examples=30, deadline=None)
def test_taylor_matches_derivative_evaluation(f, lam):
    # dual route: c_k against evaluate(hasse_derivative(f, k), lam)
    if f.is_zero():
        return
    cs = taylor_at(f, lam)
    for k, c in enumerate(cs):
        assert c == evaluate(hasse_derivative(f, k), lam)


def test_taylor_at_rejects_a_point_whose_field_does_not_hold_f():
    # F_9 does not embed in F_27
    f9, f27 = field_ctx(3, 2), field_ctx(3, 3)
    f = Poly.make([RatFun.from_ff(f9.gen), RatFun.one(f9)])
    with pytest.raises(ValueError):
        taylor_at(f, HahnSeries.monomial(f27, 1, f27.gen))


def test_evaluate_golden_values():
    w = HahnSeries.monomial(F3, Fraction(-1, 3), F3.one)
    value = evaluate(CUBIC, w)
    # w^3 = t^-1 and w^2 = t^-2/3, so f(w) = -t^(-2/3) = 2 t^(-2/3)
    assert leading_term(value) == (Fraction(-2, 3), F3.from_int(2))
    assert value == RatFun.t_power(F3, Fraction(-2, 3), M=3).scale(F3.from_int(2))
    at_zero = evaluate(CUBIC, HahnSeries.zero(F3))
    assert at_zero == CUBIC.coeffs[0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_artin_schreier_telescoping(p):
    ctx = field_ctx(p)
    f = parse_polynomial(f"X^{p} - X - 1/t", p)
    for n_terms in range(1, 7):
        w = HahnSeries.from_terms(
            ctx, [(Fraction(-1, p**j), ctx.one) for j in range(1, n_terms + 1)]
        )
        value = evaluate(f, w)
        expected = RatFun.t_power(ctx, Fraction(-1, p**n_terms), M=p**n_terms).scale(-ctx.one)
        assert value == expected


def test_newton_data_golden():
    w = HahnSeries.monomial(F3, Fraction(-1, 3), F3.one)
    lines = newton_data(taylor_at(CUBIC, w))
    data = {(L.i): (L.rho, L.b) for L in lines}
    assert data == {
        1: (Fraction(-1, 3), F3.one),
        2: (Fraction(0), F3.from_int(2)),
        3: (Fraction(0), F3.one),
    }


def test_newton_data_drops_vanishing_lines():
    f = parse_polynomial("X^2 - t", 3)
    lines = newton_data(taylor_at(f, HahnSeries.zero(F3)))
    assert [L.i for L in lines] == [2]
    g = parse_polynomial("X^3 - X - 1/t", 3)
    lines = newton_data(taylor_at(g, HahnSeries.zero(F3)))
    assert {(L.i, L.rho, L.b) for L in lines} == {
        (1, Fraction(0), F3.from_int(2)),
        (3, Fraction(0), F3.one),
    }


def test_gamma_J_golden():
    w = HahnSeries.monomial(F3, Fraction(-1, 3), F3.one)
    lines = newton_data(taylor_at(CUBIC, w))
    assert gamma_J(lines, Fraction(-1, 6)) == (Fraction(-1, 2), frozenset({1, 3}))
    assert gamma_J(lines, Fraction(0)) == (Fraction(-1, 3), frozenset({1}))
    single = [L for L in lines if L.i == 2]
    assert gamma_J(single, Fraction(7, 5)) == (Fraction(14, 5), frozenset({2}))
    assert gamma_J(lines, INF) == (INF, frozenset({1, 2, 3}))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=6), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_line_value_is_term_valuation(r, c):
    # v(D^(i)f(w) * y^i) = rho_i + i*v(y) for a monomial y of valuation r
    w = HahnSeries.monomial(F3, Fraction(-1, 3), F3.one)
    y = RatFun.t_power(F3, r).scale(F3.from_int(c))
    for line in newton_data(taylor_at(CUBIC, w)):
        d = evaluate(hasse_derivative(CUBIC, line.i), w)
        assert (d * y**line.i).valuation() == line.gamma(r)


def brute_edges(points):
    """Hull edges by definition: a pair of points spans an edge iff no point
    lies strictly below their line, and the edge holds every point on it."""
    edges = set()
    for a, (xa, ya) in enumerate(points):
        for xb, yb in points[a + 1 :]:
            slope = Fraction(yb - ya, xb - xa)
            heights = [y - ya - slope * (x - xa) for x, y in points]
            if min(heights) >= 0:
                edges.add((-slope, tuple(x for (x, _), h in zip(points, heights) if h == 0)))
    return sorted(edges, key=lambda edge: edge[1][0])


SIXTHS = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))
ABOVE = st.builds(Fraction, st.integers(1, 24), st.integers(1, 6))


@st.composite
def hull_points(draw):
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3, 5]))
        xs = [p**i for i in sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=6)))]
    else:
        xs = sorted(draw(st.sets(st.integers(-3, 30), min_size=1, max_size=8)))
    ys = [draw(SIXTHS) for _ in xs]
    if len(xs) >= 3 and draw(st.booleans()):
        # a collinear run of at least three points with every other point above it
        run = draw(st.sets(st.sampled_from(range(len(xs))), min_size=3))
        c, s = draw(SIXTHS), draw(SIXTHS)
        ys = [
            c + s * x + (0 if j in run else draw(ABOVE))
            for j, x in enumerate(xs)
        ]
    return list(zip(xs, ys))


def test_newton_edges_golden():
    points = [(0, Fraction(0)), (1, Fraction(-1)), (2, Fraction(-2)), (3, Fraction(0))]
    assert newton_edges(points) == [(Fraction(1), (0, 1, 2)), (Fraction(-2), (2, 3))]
    assert newton_edges([(1, Fraction(5, 6))]) == []
    # r falls from edge to edge; the y may be ints
    assert newton_edges([(1, 0), (3, -1), (9, 0)]) == [
        (Fraction(1, 2), (1, 3)),
        (Fraction(-1, 6), (3, 9)),
    ]


@given(hull_points())
@settings(max_examples=300, deadline=None)
def test_newton_edges_match_the_brute_force_hull(points):
    assert newton_edges(points) == brute_edges(points)
