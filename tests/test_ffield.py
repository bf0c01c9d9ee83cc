import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot import intpoly
from hahnroot.ffield import (
    FF,
    FieldCtx,
    FieldError,
    _factored_roots,
    _is_prime,
    enlarge,
    field_ctx,
    find_embedding,
    poly_eval,
    poly_from_ints,
    poly_mul,
    poly_pow_mod,
    poly_roots,
    poly_scal,
    poly_sub,
)


F2 = field_ctx(2)
F3 = field_ctx(3)
F4 = field_ctx(2, 2)
F9 = field_ctx(3, 2)
# the engine's towers over F_2 and F_3, and one field above the scan limit
F8 = field_ctx(2, 3)
F81 = field_ctx(3, 4)
F625 = field_ctx(5, 4)


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
    # c*X^2: only the zero root, read off the low coefficients
    res = poly_roots(poly_from_ints(F3, [0, 0, 2]))
    assert res.ctx == F3
    assert res.roots == ((F3.zero, 2),)


def test_poly_roots_rejects_degenerate_input():
    with pytest.raises(ValueError):
        poly_roots([])
    with pytest.raises(ValueError):
        poly_roots([F3.one])


def _draw_monic(data, ctx, deg):
    elements = list(ctx.elements())
    return [data.draw(st.sampled_from(elements)) for _ in range(deg)] + [ctx.one]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_root_product_reconstructs_the_polynomial(data):
    ctx = data.draw(st.sampled_from([F2, F3, F4, F9, F8, F81, F625]))
    deg = data.draw(st.integers(1, 5))
    # optionally h^2 * rest, so that some inputs have a repeated factor
    squared = data.draw(st.integers(0, deg // 2))
    g = _draw_monic(data, ctx, deg - 2 * squared)
    if squared:
        h = _draw_monic(data, ctx, squared)
        g = poly_mul(g, poly_mul(h, h, ctx), ctx)
    # X^j * g, so that the zero root is drawn at several multiplicities
    g = [ctx.zero] * data.draw(st.integers(0, 3)) + g
    try:
        res = poly_roots(g)
    except FieldError:
        # refused only when no tower F_{p^m} over ctx with m <= 16 holds
        # every root: there, X^(p^m) - X is squarefree and vanishes at each
        # root exactly when (X^(p^m) - X)^deg g is 0 mod g
        x = [ctx.zero, ctx.one]
        for m in range(ctx.k, 17, ctx.k):
            r = poly_sub(poly_pow_mod(x, ctx.p**m, g, ctx), x, ctx)
            assert poly_pow_mod(r, len(g) - 1, g, ctx) != [], (g, m)
        return
    emb = res.embed
    if res.ctx == ctx:
        assert all(emb(x) == x for x in g)
    expected = poly_scal([emb(c) for c in g], emb(g[-1]).inverse())
    prod = [res.ctx.one]
    for root, mult in res.roots:
        for _ in range(mult):
            prod = poly_mul(prod, [-root, res.ctx.one], res.ctx)
    assert prod == expected
    # the result tower is the smallest one holding the input field and the roots
    assert res.ctx.k == math.lcm(ctx.k, *(root.degree() for root, _ in res.roots))


def _scan_roots(ints, ctx):
    # oracle: every element of ctx that the polynomial vanishes on
    g = poly_from_ints(ctx, ints)
    return {z for z in ctx.elements() if not poly_eval(g, z)}


# additive equations sum b_j z^(p^j) = c, and the tower their roots span
@pytest.mark.parametrize(
    "p,ints,k",
    [
        (3, [0, 1, 0, 1], 2),  # z^3 + z
        (2, [0, 1, 0, 0, 1], 2),  # z^4 + z
        (3, [-1, 2, 0, 1], 3),  # z^3 + 2z - 1
        (5, [0, -1, 0, 0, 0, 1], 1),  # z^5 - z
    ],
    ids=["z3+z-F3", "z4+z-F2", "z3+2z-1-F3", "z5-z-F5"],
)
def test_additive_roots_match_a_brute_force_scan(p, ints, k):
    res = poly_roots(poly_from_ints(field_ctx(p), ints))
    assert res.ctx == field_ctx(p, k)
    roots = {z for z, _ in res.roots}
    assert roots == _scan_roots(ints, res.ctx)
    # each root is simple: the derivative is the nonzero constant b_0
    assert len(roots) == len(ints) - 1
    if not ints[0]:
        # homogeneous: the roots form an F_p-subspace
        assert all(a + b in roots for a in roots for b in roots)


def test_frobenius_fixed_field_is_all_of_fp():
    for p in (2, 3, 5):
        ctx = field_ctx(p)
        res = poly_roots(poly_from_ints(ctx, [0, -1] + [0] * (p - 2) + [1]))
        assert res.ctx == ctx
        assert [z for z, _ in res.roots] == list(ctx.elements())


def test_frobenius_solution_set_is_a_coset():
    # the roots of z^3 + 2z - 1 are one root plus the roots of z^3 + 2z
    res = poly_roots(poly_from_ints(F3, [-1, 2, 0, 1]))
    values = {z for z, _ in res.roots}
    kernel = _scan_roots([0, 2, 0, 1], res.ctx)
    a = min(values, key=FF.sort_key)
    assert values == {a + z for z in kernel}


def test_embedding_round_trip_is_identity():
    big, emb = enlarge(F4, 4)
    assert big == field_ctx(2, 4)
    # the embedding is injective, so reading its image back recovers x
    back = {emb(x): x for x in F4.elements()}
    assert len(back) == F4.order
    for x in F4.elements():
        assert back[emb(x)] == x


def test_composed_embeddings_preserve_arithmetic():
    emb = find_embedding(F9, field_ctx(3, 4))
    for x in F9.elements():
        for y in (F9.one, F9.gen):
            assert emb(x * y) == emb(x) * emb(y)
            assert emb(x + y) == emb(x) + emb(y)


def test_find_embedding_rejects_a_degree_that_does_not_divide():
    with pytest.raises(FieldError, match="does not embed"):
        find_embedding(F9, field_ctx(3, 7))


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


def _trace(x):
    out = x.ctx.zero
    for j in range(x.ctx.k):
        out = out + x.frobenius(j)
    return out


@pytest.mark.parametrize("p,k", [(1031, 1), (65537, 1), (3, 7), (5, 5)])
def test_splitting_recovers_chosen_roots_in_fields_without_tables(p, k):
    # fields with tables are scanned, so the roots of these come from trace
    # splitting
    ctx = field_ctx(p, k)
    assert not ctx.has_tables
    rng = random.Random(p * k)
    chosen = set()
    while len(chosen) < 5:
        chosen.add(ctx.from_coeffs([rng.randrange(p) for _ in range(k)]))
    if k > 1:
        # two roots with the same trace, which the probes at beta = 1 cannot
        # separate: Tr(y^p - y) = 0, and y^p != y for y outside F_p
        a = next(iter(chosen))
        y = ctx.gen
        while a + y**p - y in chosen:
            y = y + ctx.one
        twin = a + y**p - y
        assert twin != a and _trace(twin) == _trace(a)
        chosen.add(twin)
    g = [ctx.one]
    for x in chosen:
        g = poly_mul(g, [-x, ctx.one], ctx)
    res = poly_roots(g)
    assert res.ctx == ctx
    assert dict(res.roots) == dict.fromkeys(chosen, 1)


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
# A field with tables scans itself for the roots of the cofactor and factors
# only a rootless cofactor of degree 4 or more.  The factoring route on the
# whole cofactor, which fields without tables take, is the reference.


def _factoring_route(g):
    # the zero split, then _factored_roots on the whole cofactor
    ctx = g[-1].ctx
    j = next(i for i, c in enumerate(g) if c)
    big, emb, pairs = _factored_roots(g[j:], ctx)
    if j:
        pairs.insert(0, (big.zero, j))
    return big, emb, tuple(pairs)


def _outcome(route, g):
    # (field, roots, image of the generator), or the text of the refusal,
    # which only the tower limit may give
    try:
        big, emb, roots = route(g)
    except FieldError as e:
        assert "are not built" in str(e), e
        return str(e)
    return big, roots, emb(g[-1].ctx.gen)


def _random_product(rng, ctx):
    # monic factors of degree 1-4 with a nonzero constant, some repeated, of
    # total degree 2-8, times X^j for the zero root
    elements = list(ctx.elements())
    target = rng.randrange(2, 9)
    g, deg = [ctx.one], 0
    while deg < target:
        d = rng.randrange(1, min(4, target - deg) + 1)
        f = [rng.choice(elements[1:])] + [rng.choice(elements) for _ in range(d - 1)] + [ctx.one]
        for _ in range(rng.randrange(1, (target - deg) // d + 1)):
            g = poly_mul(g, f, ctx)
            deg += d
    return [ctx.zero] * rng.randrange(3) + g


# every field with tables and k >= 2, F_4 to F_1024, and prime fields to F_1021
_TABLE_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                 for k in range(2, 11) if p**k <= 1024]
_TABLE_FIELDS += [(p, 1) for p in (2, 3, 5, 7, 11, 13, 31, 1021)]


@pytest.mark.parametrize("p,k", _TABLE_FIELDS)
def test_scan_and_factoring_routes_agree(p, k):
    ctx = field_ctx(p, k)
    assert ctx.has_tables
    rng = random.Random(20261021 + ctx.order)
    # above F_64 most products reach towers without tables, where one
    # solve costs 10 to 100 ms
    for _ in range(8 if ctx.order <= 64 else 2):
        g = _random_product(rng, ctx)
        assert _outcome(poly_roots, g) == _outcome(_factoring_route, g), g


def _irreducibles(ctx, d):
    # the monic polynomials of degree d <= 4 over ctx with no root in
    # F_{q^(d // 2)}, which holds the roots of every factor of degree at most
    # d / 2: the irreducible ones, in lex order
    big, emb = enlarge(ctx, ctx.k * max(d // 2, 1))
    for cs in product(list(ctx.elements()), repeat=d):
        g = [*cs, ctx.one]
        image = [emb(c) for c in g]
        if all(poly_eval(image, z) for z in big.elements()):
            yield g


def _check_roots(res, g, degree):
    # the result field is F_{q^degree}, the roots come in sort_key order,
    # and their product rebuilds the monic g
    ctx = g[-1].ctx
    assert res.ctx == field_ctx(ctx.p, ctx.k * degree)
    keys = [root.sort_key() for root, _ in res.roots]
    assert keys == sorted(keys)
    prod = [res.ctx.one]
    for root, mult in res.roots:
        for _ in range(mult):
            prod = poly_mul(prod, [-root, res.ctx.one], res.ctx)
    assert prod == [res.embed(c) for c in g]


def test_roots_in_the_field_take_it_unchanged():
    # z^2 (z - 1)^3 (z - s) over F_9: every root in F_9, 1 three times
    s = F9.gen
    g = [F9.zero, F9.zero, F9.one]
    for root in (F9.one, F9.one, F9.one, s):
        g = poly_mul(g, [-root, F9.one], F9)
    res = poly_roots(g)
    _check_roots(res, g, 1)
    assert res.embed(s) == s
    assert res.roots == ((F9.zero, 2), (s, 1), (F9.one, 3))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ctx", [F4, F9])
def test_a_rootless_quadratic_or_cubic_is_solved_in_its_own_degree(ctx, d):
    # (z - 1) h, h irreducible of degree d: the scan takes the root 1, and
    # h's d distinct roots lie in F_{q^d}
    h = next(_irreducibles(ctx, d))
    g = poly_mul(h, [-ctx.one, ctx.one], ctx)
    res = poly_roots(g)
    _check_roots(res, g, d)
    assert [m for _, m in res.roots] == [1] * (d + 1)
    assert (res.ctx.one, 1) in res.roots


@pytest.mark.parametrize("ctx", [F3, F4])
def test_a_rootless_quartic_is_factored(ctx):
    quadratics = _irreducibles(ctx, 2)
    a, b = next(quadratics), next(quadratics)
    quartic = next(_irreducibles(ctx, 4))
    # a^2 through the radical's gcd, a*b of degrees 2 + 2 in F_{q^2}, and an
    # irreducible quartic in F_{q^4}
    for g, degree, mults in [(poly_mul(a, a, ctx), 2, [2, 2]),
                             (poly_mul(a, b, ctx), 2, [1] * 4),
                             (quartic, 4, [1] * 4)]:
        res = poly_roots(g)
        _check_roots(res, g, degree)
        assert [m for _, m in res.roots] == mults


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


def test_tower_degree_limit_admits_its_boundary():
    # x^16+x^5+x^3+x^2+1 and x^17+x^3+1 are irreducible over F_2: the roots
    # of the first lie in F_{2^16}, at the limit, those of the second above it
    F2 = field_ctx(2)
    solved = poly_roots(poly_from_ints(F2, [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]))
    assert solved.ctx.k == 16 and len(solved.roots) == 16
    with pytest.raises(FieldError, match=r"F_\{2\^17\}, of order 131072"):
        poly_roots(poly_from_ints(F2, [1, 0, 0, 1] + [0] * 13 + [1]))
