import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot import intpoly
from hahnroot.ffield import (
    FF,
    FieldCtx,
    FieldError,
    InconsistentEquation,
    _is_prime,
    enlarge,
    field_ctx,
    find_embedding,
    frobenius_solve,
    poly_from_ints,
    poly_mul,
    poly_roots,
    poly_scal,
)


F2 = field_ctx(2)
F3 = field_ctx(3)
F4 = field_ctx(2, 2)
F9 = field_ctx(3, 2)


def test_canonical_moduli():
    # first irreducible in lex order on (a_0, .., a_{k-1})
    assert F9.modulus == (1, 0, 1)
    assert F9.describe() == "F_9 = F_3[s]/(s^2+1)"
    assert F4.modulus == (1, 1, 1)


def test_roots_of_z3_plus_z_land_in_f9():
    res = poly_roots(poly_from_ints(F3, [0, 1, 0, 1]))
    assert res.ctx == F9
    assert sum(m for _, m in res.roots) == 3
    nonzero = [r for r, _ in res.roots if r]
    assert len(nonzero) == 2
    # the two nonzero roots are +-sqrt(2): they square to 2 and sum to zero
    two = res.ctx.from_int(2)
    assert all(r * r == two for r in nonzero)
    assert nonzero[0] + nonzero[1] == res.ctx.zero


def test_linear_and_repeated_roots():
    res = poly_roots(poly_from_ints(F3, [-1, 1]))
    assert res.ctx == F3
    assert res.roots == ((F3.one, 1),)
    # (z - 1)^2 over F_3
    res = poly_roots(poly_from_ints(F3, [1, -2, 1]))
    assert res.roots == ((F3.one, 2),)


def test_poly_roots_rejects_degenerate_input():
    with pytest.raises(ValueError):
        poly_roots([])
    with pytest.raises(ValueError):
        poly_roots([F3.one])


@given(st.integers(0, 3**4 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_root_product_reconstructs_the_polynomial(seed, data):
    p = data.draw(st.sampled_from([2, 3]))
    ctx = field_ctx(p)
    deg = data.draw(st.integers(1, 3))
    ints = [data.draw(st.integers(0, p - 1)) for _ in range(deg)] + [1]
    g = poly_from_ints(ctx, ints)
    res = poly_roots(g)
    emb = res.embed
    expected = poly_scal([emb(c) for c in g], emb(g[-1]).inverse())
    prod = [res.ctx.one]
    for root, mult in res.roots:
        for _ in range(mult):
            prod = poly_mul(prod, [-root, res.ctx.one], res.ctx)
    assert prod == expected


def test_frobenius_solve_matches_golden_set():
    sol = frobenius_solve({0: F3.one, 1: F3.one}, F3.zero)
    assert sol.ctx == F9
    two = F9.from_int(2)
    values = [z for z, _ in sol.roots]
    assert F9.zero in values and len(values) == 3
    assert all(z * z == two for z in values if z)


def test_frobenius_fixed_field_is_all_of_fp():
    for p in (2, 3, 5):
        ctx = field_ctx(p)
        sol = frobenius_solve({0: -ctx.one, 1: ctx.one}, ctx.zero)
        assert sol.ctx == ctx
        assert len(sol.roots) == p


def test_frobenius_quartic_over_f2_by_brute_force():
    # oracle: scan the four elements of F_4 for z^4 + z = 0
    oracle = {z for z in F4.elements() if z**4 + z == F4.zero}
    assert len(oracle) == 4
    sol = frobenius_solve({0: F2.one, 2: F2.one}, F2.zero)
    assert sol.ctx == F4
    assert {z for z, _ in sol.roots} == oracle


def test_frobenius_solve_agrees_with_poly_roots():
    # dual route: the additive equation as a plain polynomial
    b = {0: F3.from_int(2), 1: F3.one}
    c = F3.from_int(1)
    sol = frobenius_solve(b, c)
    g = [F3.zero] * 4
    g[0] = -c
    g[1] = b[0]
    g[3] = b[1]
    res = poly_roots(g)
    assert sol.ctx == res.ctx
    assert {z for z, _ in sol.roots} == {z for z, _ in res.roots}


def test_frobenius_solution_set_is_a_coset():
    sol = frobenius_solve({0: F3.one, 1: F3.one}, F3.zero)
    values = {z for z, _ in sol.roots}
    assert sol.ctx.zero in values
    for a in values:
        for b in values:
            assert a + b in values
        for c in range(sol.ctx.p):
            assert a * sol.ctx.from_int(c) in values


def test_frobenius_inconsistent_zero_map():
    with pytest.raises(InconsistentEquation):
        frobenius_solve({0: F3.zero}, F3.one)
    with pytest.raises(ValueError):
        frobenius_solve({}, F3.zero)


def test_embedding_round_trip_is_identity():
    big, emb = enlarge(F4, 4)
    assert big == field_ctx(2, 4)
    for x in F4.elements():
        assert emb.project(emb(x)) == x


def test_composed_embeddings_preserve_arithmetic():
    emb = find_embedding(F9, field_ctx(3, 4))
    for x in F9.elements():
        for y in (F9.one, F9.gen):
            assert emb(x * y) == emb(x) * emb(y)
            assert emb(x + y) == emb(x) + emb(y)


def test_element_degree():
    assert F9.gen.degree() == 2
    assert F9.one.degree() == 1
    assert field_ctx(2, 4).gen.degree() == 4


def test_mixed_factor_degrees_land_in_the_lcm_tower():
    # (z^2 + 1)(z^3 - z - 1) over F_3: irreducible factors of degree 2 and 3
    quad = poly_from_ints(F3, [1, 0, 1])
    cubic = poly_from_ints(F3, [-1, -1, 0, 1])
    g = poly_mul(quad, cubic, F3)
    res = poly_roots(g)
    assert res.ctx == field_ctx(3, 6)
    assert sum(m for _, m in res.roots) == 5
    degrees = sorted(r.degree() for r, _ in res.roots)
    assert degrees == [2, 2, 3, 3, 3]


def test_roots_over_extension_field_input():
    # gen + 1 generates F_9^* (order 8), hence is a non-square: the square
    # roots live in F_81 and have degree 4 over F_3
    c = F9.gen + F9.one
    g = [-c, F9.zero, F9.one]
    res = poly_roots(g)
    assert res.ctx == field_ctx(3, 4)
    assert len(res.roots) == 2
    image = res.embed(c)
    assert all(z * z == image and z.degree() == 4 for z, _ in res.roots)


# ---------------------------------------------------------------------------
# Table arithmetic against an independent oracle: intpoly on coefficient
# vectors, never the FF operators themselves.


def _vec(cs, k):
    return tuple(cs) + (0,) * (k - len(cs))


def _omul(ctx, a, b):
    prod = intpoly.mul(list(a), list(b), ctx.p)
    return _vec(intpoly.mod(prod, list(ctx.modulus), ctx.p), ctx.k)


def _opow(ctx, a, e):
    return _vec(intpoly.pow_mod(intpoly.trim(list(a)), e, list(ctx.modulus), ctx.p), ctx.k)


def _check_pair(ctx, x, y):
    p, k = ctx.p, ctx.k
    assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
    assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
    assert (x * y).coeffs == _omul(ctx, x.coeffs, y.coeffs)
    if y:
        assert _omul(ctx, (x / y).coeffs, y.coeffs) == x.coeffs
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


def _check_element(ctx, x):
    p, k = ctx.p, ctx.k
    one = _vec([1], k)
    assert (-x).coeffs == tuple((-a) % p for a in x.coeffs)
    for e in range(4):
        assert (x**e).coeffs == _opow(ctx, x.coeffs, e)
    for times in range(k + 2):
        assert x.frobenius(times).coeffs == _opow(ctx, x.coeffs, p**times)
    orbit = next(d for d in range(1, k + 1) if _opow(ctx, x.coeffs, p**d) == x.coeffs)
    assert x.degree() == orbit
    if x:
        assert _omul(ctx, x.inverse().coeffs, x.coeffs) == one
        for e in (1, 2, ctx.order):
            assert _omul(ctx, (x**-e).coeffs, _opow(ctx, x.coeffs, e)) == one
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            x**-1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_table_arithmetic_matches_polynomial_oracle(p, k):
    ctx = field_ctx(p, k)
    assert ctx._tables is not None
    elements = list(ctx.elements())
    assert len(elements) == ctx.order
    assert [x.coeffs for x in elements] == sorted(x.coeffs for x in elements)
    for x in elements:
        _check_element(ctx, x)
        for y in elements:
            _check_pair(ctx, x, y)


def test_table_arithmetic_sample_in_f256():
    ctx = field_ctx(2, 8)
    rng = random.Random(256)
    elements = list(ctx.elements())
    for _ in range(2000):
        _check_pair(ctx, rng.choice(elements), rng.choice(elements))
    for x in rng.sample(elements, 40) + [ctx.zero, ctx.one]:
        _check_element(ctx, x)


@pytest.mark.parametrize("p,k", [(2, 11), (1031, 1)])
def test_fields_above_the_cap_keep_polynomial_arithmetic(p, k):
    ctx = field_ctx(p, k)
    assert ctx.order > 1024 and ctx._tables is None
    rng = random.Random(p)

    def draw():
        return FF(ctx, tuple(rng.randrange(p) for _ in range(k)))

    for _ in range(60):
        _check_pair(ctx, draw(), draw())
    for x in [draw() for _ in range(5)] + [ctx.zero, ctx.one]:
        _check_element(ctx, x)


def _coordinate_image(emb, x):
    # sum c_i * g^i over the destination, g the image of the generator
    dst = emb.dst
    out = [0] * dst.k
    g_power = _vec([1], dst.k)
    for c in x.coeffs:
        out = [(a + c * b) % dst.p for a, b in zip(out, g_power)]
        g_power = _omul(dst, g_power, emb.gen_image.coeffs)
    return tuple(out)


def test_embeddings_agree_with_the_coordinate_formula():
    f16, f81, f256 = field_ctx(2, 4), field_ctx(3, 4), field_ctx(2, 8)
    e9 = find_embedding(F9, f81)
    for x in F9.elements():
        assert e9(x).coeffs == _coordinate_image(e9, x)
    e4, e16 = find_embedding(F4, f16), find_embedding(f16, f256)
    for x in F4.elements():
        assert e4(x).coeffs == _coordinate_image(e4, x)
    for x in f16.elements():
        assert e16(x).coeffs == _coordinate_image(e16, x)
    # the composite F_4 -> F_256 respects the field operations
    for x in F4.elements():
        for y in F4.elements():
            assert e16(e4(x * y)) == e16(e4(x)) * e16(e4(y))
            assert e16(e4(x + y)) == e16(e4(x)) + e16(e4(y))


def test_direct_construction_returns_the_interned_element():
    f81 = field_ctx(3, 4)
    for x in f81.elements():
        twin = FF(f81, x.coeffs)
        assert twin == x and twin is x and hash(twin) == hash(x)
        assert FF(f81, list(x.coeffs)) is x
    with pytest.raises(FieldError):
        FF(f81, (3, 0, 0, 0))
    # an equal context built separately has tables of its own; values agree
    other = FieldCtx(3, 4, f81.modulus)
    assert other == f81 and other._tables is not f81._tables
    for x in list(f81.elements())[::7]:
        y = FF(other, x.coeffs)
        assert y == x and y is not x and hash(y) == hash(x)
        assert (y * f81.gen).coeffs == (x * f81.gen).coeffs
        assert (y + f81.one) == (x + f81.one)


def test_field_elements_are_immutable():
    x = F9.gen
    with pytest.raises(AttributeError):
        x.coeffs = (0, 0)


# ---------------------------------------------------------------------------
# Primality of p.


def test_miller_rabin_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-5, 20000))


def test_composites_that_fool_weak_tests_are_rejected():
    # Carmichael numbers, and a strong pseudoprime to every prime base up to 23
    for n in (561, 41041, 3825123056546413051):
        assert not _is_prime(n)
    for n in (561, 41041):
        with pytest.raises(FieldError):
            field_ctx(n)


def test_large_prime_is_accepted_quickly():
    start = time.perf_counter()
    ctx = field_ctx(10**18 + 3)
    assert ctx.p == 10**18 + 3 and ctx.order > 1024
    assert time.perf_counter() - start < 5
    with pytest.raises(FieldError, match="318665857834031151167461"):
        field_ctx(318665857834031151167461 + 2)
