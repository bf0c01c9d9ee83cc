import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot.cli import parse_polynomial
from hahnroot.ffield import enlarge, field_ctx
from hahnroot.hahn import HahnSeries
from hahnroot.hasse import INF, Poly, evaluate, newton_edges, taylor_at, taylor_shift
from hahnroot.ratfun import RatFun
from oracles import (
    from_int_coeffs,
    gamma_J,
    hasse_derivative,
    leading_term,
    newton_data,
    poly_add,
    poly_mul,
    poly_scale,
    t_power,
)


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
    xp = from_int_coeffs(F3, [0, 0, 0, 1])  # X^3
    assert hasse_derivative(xp, 1).is_zero()


def test_taylor_of_square_at_one():
    f = from_int_coeffs(F3, [0, 0, 1])
    cs = taylor_at(f, RatFun.one(F3))
    assert cs == [RatFun.one(F3), RatFun.from_int(F3, 2), RatFun.one(F3)]


def test_taylor_of_pth_power():
    f = from_int_coeffs(F3, [0, 0, 0, 1])
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
        acc = poly_add(acc, poly_scale(power, c))
        power = poly_mul(power, shift)
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
    assert value == t_power(F3, Fraction(-2, 3), M=3).scale(F3.from_int(2))
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
        expected = t_power(ctx, Fraction(-1, p**n_terms), M=p**n_terms).scale(-ctx.one)
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
    y = t_power(F3, r).scale(F3.from_int(c))
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
    # integer ordinates over d = 2: the edges have r = 3, 3/2 and 1/4, and
    # the bound 2 stops the walk at the third, whose r*d = 1/2 <= 2
    assert newton_edges([(0, 10), (1, 4), (2, 1), (4, 0)], 2, 2) == [
        (Fraction(3), (0, 1)),
        (Fraction(3, 2), (1, 2)),
    ]


@given(hull_points(), st.data())
@settings(max_examples=300, deadline=None)
def test_newton_edges_match_the_brute_force_hull(points, data):
    edges = brute_edges(points)
    assert newton_edges(points) == edges
    # the same points as integer ordinates over one denominator d
    d = math.lcm(*(y.denominator for _, y in points)) * data.draw(st.integers(1, 3))
    scaled = [(x, int(y * d)) for x, y in points]
    assert newton_edges(scaled, d) == edges
    # the bound keeps exactly the edges with r*d above it; drawn at or just
    # below an edge's own r*d, or anywhere
    cuts = [math.floor(r * d) - k for r, _ in edges for k in (0, 1)]
    anywhere = st.integers(-500, 500)
    above = data.draw(st.sampled_from(cuts) if cuts and data.draw(st.booleans()) else anywhere)
    assert newton_edges(scaled, d, above) == [(r, xs) for r, xs in edges if r * d > above]


# ---------------------------------------------------------------------------
# taylor_shift against taylor_at, whole carriers

# every field with tables up to F_81, and F_1031, which has none
SHIFT_FIELDS = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (2, 4), (5, 1), (3, 3), (5, 2),
                (7, 1), (3, 4), (1031, 1)]


def _as_taylor_data(coeffs):
    """taylor_at's Laurent-polynomial RatFuns as (M, [{u-exponent: coefficient}])."""
    assert all(c.den == {0: c.ctx.one} for c in coeffs)
    M = math.lcm(*(c.M for c in coeffs))
    return M, [c.rebase(M).num for c in coeffs]


def _carriers(data):
    """Each carrier as {t-exponent: coefficient}, whatever its M."""
    M, cs = data
    assert all(c for d in cs for c in d.values()), "a zero coefficient is stored"
    return [{Fraction(e, M): c for e, c in d.items()} for d in cs]


def _check_shift(f, w, zeta, r, emb=None):
    """Shift f's Taylor data at w (embedded by emb) by zeta*t^r; every
    exponent and coefficient must equal taylor_at at w + zeta*t^r."""
    data = _as_taylor_data(taylor_at(f, w))
    if emb is not None:
        M, cs = data
        data = M, [{e: emb(c) for e, c in d.items()} for d in cs]
        w = w.embed(emb)
    shifted = taylor_shift(data, zeta, r)
    expected = taylor_at(f, w.append_term(r, zeta))
    assert _carriers(shifted) == _carriers(_as_taylor_data(expected))
    return data, shifted


@st.composite
def shift_cases(draw):
    p, k = draw(st.sampled_from(SHIFT_FIELDS))
    base = field_ctx(p)
    coeffs = [
        RatFun.from_t_coeffs(base, draw(st.dictionaries(st.integers(-3, 3), st.integers(1, p - 1),
                                                        max_size=3)))
        for _ in range(draw(st.integers(2, 5)))
    ]
    if coeffs[-1].is_zero():
        coeffs[-1] = RatFun.one(base)
    f = Poly.make(coeffs)
    emb = None
    ctx = field_ctx(p, k)
    if draw(st.booleans()):
        # the parent lives in F_{p^k}; the edge equation's root in F_{p^2k}
        big, emb = enlarge(ctx, 2 * k)
    else:
        big = ctx

    def element(field):
        return field.from_coeffs([draw(st.integers(0, p - 1)) for _ in range(field.k)])

    terms, e = [], Fraction(draw(st.integers(-2, 1)))
    for _ in range(draw(st.integers(0, 3))):
        c = element(ctx)
        if c:
            terms.append((e, c))
        e += Fraction(draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3])))
    zeta = element(big)
    if not zeta:
        zeta = big.one
    r = e + Fraction(draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3, 5])))
    return f, HahnSeries(ctx, tuple(terms)), zeta, r, emb


@given(shift_cases())
@settings(max_examples=150, deadline=None)
def test_taylor_shift_matches_taylor_at_term_by_term(case):
    _check_shift(*case)


def test_taylor_shift_without_tables():
    F = field_ctx(1031)
    f = parse_polynomial("X^3 + 5*t*X^2 - 7/t*X + t^2 + 1", 1031)
    w = HahnSeries(F, ((Fraction(-1), F.from_int(3)), (Fraction(1, 2), F.from_int(1030))))
    assert F._tables is None
    _check_shift(f, w, F.from_int(17), Fraction(3, 2))


def test_taylor_shift_refines_M_only_when_needed():
    F9 = field_ctx(3, 2)
    f = parse_polynomial("X^4 + t*X^2 - X + 1/t", 3)
    w = HahnSeries(F9, ((Fraction(1, 2), F9.gen),))
    data, shifted = _check_shift(f, w, F9.gen + F9.one, Fraction(5, 3))
    assert (data[0], shifted[0]) == (2, 6)
    _, again = _check_shift(f, w, F9.gen, Fraction(3, 2))
    assert again[0] == 2


def test_taylor_shift_into_a_larger_tower():
    F4 = field_ctx(2, 2)
    big, emb = enlarge(F4, 4)
    f = parse_polynomial("X^3 + t*X + 1/t", 2)
    w = HahnSeries(F4, ((Fraction(-1, 3), F4.gen),))
    zeta = next(x for x in big.elements() if x.degree() == 4)
    _, shifted = _check_shift(f, w, zeta, Fraction(1, 2), emb)
    assert all(c.ctx == big for d in shifted[1] for c in d.values())


def test_taylor_shift_drops_a_cancelled_term():
    F3 = field_ctx(3)
    # X^2 + X - t at w = t: c_0 = -t + t + t^2, the t-term cancels
    f = parse_polynomial("X^2 + X - t", 3)
    _, shifted = _check_shift(f, HahnSeries.zero(F3), F3.one, Fraction(1))
    assert _carriers(shifted) == [{Fraction(2): F3.one},
                                  {Fraction(0): F3.one, Fraction(1): F3.from_int(2)},
                                  {Fraction(0): F3.one}]
    # X - t at w = t: the whole constant carrier cancels, so f(w) = 0
    g = parse_polynomial("X - t", 3)
    _, shifted = _check_shift(g, HahnSeries.zero(F3), F3.one, Fraction(1))
    assert shifted[1][0] == {}
