import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot.cli import Command, additive_text, parse_polynomial, run
from hahnroot.corpus import corpus, random_ratfun
from hahnroot.ffield import field_ctx
from hahnroot.hasse import evaluate
from hahnroot.ore import addpol, is_additive
from hahnroot.intpoly import deg, gcd
from hahnroot.ratfun import _REDUCE_SPAN, RatFun
from oracles import from_int_coeffs, poly_divmod, t_power, to_poly


F2 = field_ctx(2)
F3 = field_ctx(3)


def test_addpol_of_x_is_x():
    P = addpol(parse_polynomial("X", 3))
    assert P.coeffs == {0: RatFun.one(F3)}


def test_addpol_golden_quadratic():
    P = addpol(parse_polynomial("X^2 - t", 3))
    assert set(P.coeffs) == {0, 1}
    assert P.coeffs[1] == RatFun.one(F3)
    assert P.coeffs[0] == RatFun.from_t_coeffs(F3, {1: -1})
    assert additive_text(P) == "X^3 - t*X"


def test_addpol_of_additive_input():
    P = addpol(parse_polynomial("X^2 + X", 2))
    assert P.coeffs == {0: RatFun.one(F2), 1: RatFun.one(F2)}


def test_coefficients_are_reduced_on_first_read():
    # P keeps each a_i as its unreduced sides; P.coeffs, built once on first
    # read, holds each a_i in lowest terms with the constant term of its
    # denominator 1, and the benchmark's tracer reads its num and den
    for g in corpus(seed=3, count=20, ps=(2, 3), max_deg=4):
        P = addpol(g)
        ctx, p = g.ctx, g.ctx.p
        assert "coeffs" not in vars(P)
        coeffs = P.coeffs
        assert P.coeffs is coeffs and set(coeffs) == set(P.sides)
        for i, a in coeffs.items():
            num, den = P.sides[i]
            assert a == RatFun(ctx, 1, {e: ctx.from_int(c) for e, c in num.items()},
                               {e: ctx.from_int(c) for e, c in den.items()})
            assert a.valuation() == P.valuation(i)
            assert min(a.den) == 0 and a.den[0] == ctx.one
            lo = min(a.num)
            dense_num = [a.num[e].coeffs[0] if e in a.num else 0 for e in range(lo, max(a.num) + 1)]
            dense_den = [a.den[e].coeffs[0] if e in a.den else 0 for e in range(max(a.den) + 1)]
            assert max(len(dense_num), len(dense_den)) <= _REDUCE_SPAN
            assert deg(gcd(dense_num, dense_den, p)) == 0


def test_addpol_rejects_constants():
    with pytest.raises(ValueError):
        addpol(from_int_coeffs(F3, [1]))


def test_is_additive_shapes():
    assert is_additive(parse_polynomial("X^3 - t*X", 3))
    assert not is_additive(parse_polynomial("X^2", 3))
    assert not is_additive(parse_polynomial("X^3 + 1", 3))
    assert not is_additive(parse_polynomial("X^3 + X^2", 3))


def test_additive_under_evaluation():
    # P(x + y) = P(x) + P(y) for exact random points
    P = to_poly(addpol(parse_polynomial("X^2 - t", 3)))
    rng = random.Random(7)
    for _ in range(10):
        x = random_ratfun(rng, 3, allow_zero=False)
        y = random_ratfun(rng, 3, allow_zero=False)
        assert evaluate(P, x + y) == evaluate(P, x) + evaluate(P, y)


def test_non_additive_fails_evaluation_check():
    f = parse_polynomial("X^2", 3)
    x = t_power(F3, 1)
    y = RatFun.one(F3)
    assert evaluate(f, x + y) != evaluate(f, x) + evaluate(f, y)


@pytest.mark.parametrize("idx,g", list(enumerate(corpus(seed=99, count=12, ps=(2, 3), max_deg=3))))
def test_addpol_contract_on_samples(idx, g):
    P = addpol(g)
    dense = to_poly(P)
    quotient, rem = poly_divmod(dense, g)
    assert rem.is_zero(), f"sample {idx}: f does not divide its companion"
    assert is_additive(dense)
    assert dense.degree <= g.ctx.p**g.degree


def test_addpol_with_rational_function_coefficients():
    # denominators beyond t-powers flow through the monic model
    f = parse_polynomial("X^2 - (t)/(t^2+1)*X - 1/t", 3)
    P = addpol(f)
    q, rem = poly_divmod(to_poly(P), f)
    assert rem.is_zero()
    assert is_additive(to_poly(P))


def test_artin_schreier_companion():
    for p in (2, 3):
        f = parse_polynomial(f"X^{p} - X - 1/t", p)
        P = addpol(f)
        assert set(P.coeffs) == {0, 1, 2}
        q, rem = poly_divmod(to_poly(P), f)
        assert rem.is_zero()


@pytest.mark.parametrize("p, n, digest", [
    (2, 9, "a0e5988160634ba8"),
    (3, 6, "90c7c4ce4183ba64"),
    (5, 4, "b2709851ba632075"),
    (11, 3, "2a8d59939693b8c3"),
    (5, 5, "f3c27b0b430e173e"),
    (7, 4, "b0f937efcf809a04"),
    (7, 5, "07acdd9845def533"),
])
def test_companion_digest_pinned(p, n, digest):
    # the four companion-ladder rungs at lam = 1, and two companions of
    # degree p^n whose t-degrees run into the thousands, where every fast
    # path of intpoly runs; digests of the JSON response
    code, text = run(Command("addpol", p, f"X^{n} + t*X^{n - 1} + X + 1/t", fmt="json"))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_companion_degree_limit():
    # p^n = 337^2 = 113569 is below 7^6 = 117649, 347^2 = 120409 above;
    # degree 1 has a companion at any p
    assert addpol(parse_polynomial("X^2 - t", 337)).support == [0, 1]
    with pytest.raises(ValueError, match=r"p\^n = 347\^2 is above the limit 117649 = 7\^6"):
        addpol(parse_polynomial("X^2 - t", 347))
    with pytest.raises(ValueError, match=r"2\^17"):
        addpol(parse_polynomial("X^17 + t", 2))
    big = 10**18 + 3
    assert addpol(parse_polynomial("X - t", big)).support == [0, 1]
