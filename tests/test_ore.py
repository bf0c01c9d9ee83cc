import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot import intpoly
from hahnroot.cli import Command, additive_text, parse_polynomial, poly_text, run
from hahnroot.corpus import corpus, random_ratfun
from hahnroot.ffield import field_ctx
from hahnroot.hasse import Poly, evaluate
from hahnroot.ore import _echelon, _frobenius_step, _frobenius_table, _kernel, addpol, is_additive
from hahnroot.intpoly import deg, divmod_, gcd, trim
from hahnroot.ratfun import _REDUCE_SPAN, RatFun, to_text
from invariants import divides
from oracles import (cramer_addpol, cramer_kernel, divided_sides, frobenius_residue, from_int_coeffs,
                     poly_mul, ratfun_coeffs, ratfun_rendering, t_power, to_poly)


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
    assert divides(g, P), f"sample {idx}: f does not divide its companion"
    dense = to_poly(P)
    assert is_additive(dense)
    assert dense.degree <= g.ctx.p**g.degree


def test_addpol_with_rational_function_coefficients():
    # denominators beyond t-powers flow through the monic model
    f = parse_polynomial("X^2 - (t)/(t^2+1)*X - 1/t", 3)
    P = addpol(f)
    assert divides(f, P)
    assert is_additive(to_poly(P))


def test_artin_schreier_companion():
    for p in (2, 3):
        f = parse_polynomial(f"X^{p} - X - 1/t", p)
        P = addpol(f)
        assert set(P.coeffs) == {0, 1, 2}
        assert divides(f, P)


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


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_frobenius_table_matches_row_reduction(p, n, data):
    # the residue of (sum_j v_j X^j)^p mod a monic g, summed from one table
    # of X^(jp) mod g, equals the reduction one row at a time from the top;
    # entries of g and v may be zero
    tpoly = st.lists(st.integers(0, p - 1), max_size=5).map(trim)
    g = [data.draw(tpoly) for _ in range(n)] + [[1]]
    vec = [data.draw(tpoly) for _ in range(n)]
    assert _frobenius_step(vec, _frobenius_table(g, p), p) == frobenius_residue(vec, g, p)


def _companion_digest(fs) -> str:
    # support, valuations and reduced coefficients of each addpol(f)
    h = hashlib.sha256()
    for f in fs:
        P = addpol(f)
        for i in P.support:
            h.update(f"{i} {P.valuation(i)} {to_text(P.coeffs[i])}\n".encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def test_companion_digest_pinned_over_p5_p7():
    # the companions of the corpus sweep over p = 5, 7, up to degree 4 and
    # p^n = 2401, f taken from the corpus as built; the sweep checks that f
    # divides each, this pins them
    fs = corpus(seed=20260810, count=30, ps=(5, 7), max_deg=4)
    assert _companion_digest(fs) == "3179eba3a9548c9b"


@pytest.mark.parametrize("p, text, digest", [
    # additive inputs: the earliest free column lies below n, so the kernel
    # is scaled by a pivot of a rank-deficient matrix
    (2, "X^2 + X", "fdd4722a63297ba6"),
    (2, "X^4 + t*X^2 + 1/t*X", "24293074ade549b8"),
    (3, "X^9 + X^3 + t*X", "64bf7886d8dcc7eb"),
    (5, "X^5 - t*X", "14e82aa4a463b023"),
    # X(X+1)(X+t) and X(X^3+tX+1) divide additive polynomials of degree
    # p^2: the free column 2 lies below n = 3 and 4
    (2, "X^3 + (t+1)*X^2 + t*X", "db9b94bd15fbec4f"),
    (3, "X^4 + t*X^2 + X", "bea0a13558c42bdb"),
    # a pivot equal to the one before it over a column nonzero below it:
    # that step is not the identity
    (3, "X^3 + t*X^2 + X - 1", "e773360bfa1d9b5a"),
    (5, "X^4 + t*X^3 - X", "78f7c382c54ee280"),
    (5, "X^4 + X^3 + t*X^2 + t*X + 1", "daef9d428fa4fb59"),
])
def test_companion_digest_pinned_at_special_ranks_and_pivots(p, text, digest):
    assert _companion_digest([parse_polynomial(text, p)]) == digest


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


_EDGE_INPUTS = [
    (3, 'X^9 - t', 'X^27 - t^2*X^9'),
    (2, 'X^2 + t^2', 'X^4 + t^2*X^2'),
    (3, 'X^2 + 2*t*X + t^2', 'X^9 - t^6*X^3'),
    (2, 'X', 'X'),
    (3, 'X', 'X'),
    (2, 'X^4', 'X^4'),
    (3, 'X^4', 'X^9'),
    (5, 'X^3', 'X^5'),
    (3, 't*X', 'X'),
    (2, 't*X', 'X'),
    (2, 'X^3 + X^2 + X', 'X^4 + X'),
    (3, 'X^3 + X^2 + X', 'X^9 - X^3'),
    (5, 'X^5 - t', 'X^25 - t^4*X^5'),
    (2, 'X^4 + t', 'X^8 + t*X^4'),
    (3, 't^2*X^2 + t*X + 1', 'X^9 - 1/t^6*X^3'),
    (3, 'X^2 - 1/t^3', 'X^3 - 1/t^3*X'),
    (5, '(t + 1)*X^2 + 1/(t + 1)', 'X^5 - 1/(t^4 + 4*t^3 + t^2 + 4*t + 1)*X'),
    (7, 'X - 1/t', 'X^7 - 1/t^6*X'),
    (3, 't*X^3 + X', 'X^3 + 1/t*X'),
    (2, '(t + 1)*X^3 + t*X + 1/t', 'X^4 + t/(t + 1)*X^2 + 1/(t^2 + t)*X'),
    (2, 't^3*X^2 + (t^2 + t)*X + 1/(t + 1)', 'X^4 + (t^3 + t^2 + 1)/(t^5 + t^4)*X^2 + 1/t^5*X'),
]


@pytest.mark.parametrize("p, text, companion", _EDGE_INPUTS)
def test_companion_text_pinned_on_edge_inputs(p, text, companion):
    # inseparable inputs, squares, powers of X, t-scaled inputs and leading
    # coefficients in t: free columns below n, pivots divisible by t and
    # kernels whose free entry is a unit or a power of t
    assert additive_text(addpol(parse_polynomial(text, p))) == companion


# the low a_i of these companions span more than _REDUCE_SPAN = 1024 powers
# of t and stay as built, their high a_i less, and those are gcd-reduced; in
# the second, a_9's denominator spans exactly 1024
_SPAN_INPUTS = [(3, "(t^2+1)*X^6 + t*X^5 + X + 1/t"), (2, "(t^2+t+1)*X^10 + t*X^9 + X + 1/t")]

# sha256 of each span input's addpol JSON response; their reductions run
# gcds of up to 856 and 933 terms, longer than any workload or other pinned
# companion asks for
_SPAN_DIGESTS = {
    "(t^2+1)*X^6 + t*X^5 + X + 1/t": "919b2d522ccad39412dedda1e8de8176ba7c73c3af3f7a5b39d73015a6202e16",
    "(t^2+t+1)*X^10 + t*X^9 + X + 1/t": "84cae4232334f4011a0e6725a7f2aea0516cb5b6d662fe69275bdf0c6653fe06",
}


_ROUTE_SETS = [
    corpus(seed=20260810, count=50, ps=(2, 3), max_deg=4),
    corpus(seed=20260810, count=30, ps=(5, 7), max_deg=4),
    [parse_polynomial(f"X^{n} + t*X^{n - 1} + X + 1/t", p) for p, n in ((2, 9), (3, 6), (5, 4), (11, 3))],
    [parse_polynomial(text, p) for p, text, _ in _EDGE_INPUTS] + [parse_polynomial(text, p) for p, text in _SPAN_INPUTS],
]
_ROUTE_IDS = ["acceptance", "p5_p7", "ladder", "edge_and_span"]


@pytest.mark.parametrize("fs", _ROUTE_SETS, ids=_ROUTE_IDS)
def test_int_coefficients_and_text_equal_the_ratfun_route(fs):
    # P's reduced int sides, its coeffs and addpol's "text" and "coeffs",
    # printed from those sides, against RatFun's constructor, negation and
    # to_text; P's sides against one lc division per a_i.  f is the
    # polynomial the request's text parses to
    for f in fs:
        text = poly_text(f)
        f = parse_polynomial(text, f.ctx.p)
        P = addpol(f)
        p, lc, shifts, matrix, divisors, free = _echelon(f)
        assert P.sides == divided_sides(_kernel(matrix, divisors, free, p), shifts, lc, p)
        ref = ratfun_coeffs(P)
        assert P.reduced == {i: ({e: c.coeffs[0] for e, c in a.num.items()},
                                 {e: c.coeffs[0] for e, c in a.den.items()}) for i, a in ref.items()}
        assert {i: (a.num, a.den) for i, a in P.coeffs.items()} == {i: (a.num, a.den) for i, a in ref.items()}
        code, out = run(Command("addpol", p, text, fmt="json"))
        assert code == 0
        additive, coeffs = ratfun_rendering(P)
        assert json.loads(out)["additive"] == {"text": additive, "coeffs": coeffs}


@pytest.mark.parametrize("fs", _ROUTE_SETS, ids=_ROUTE_IDS)
def test_sides_are_built_normalised(fs):
    # every denominator's lowest term is 1*t^0 as built, so reduction
    # hands an a_i with a one-term denominator back as its very dicts and
    # only runs the gcd for the rest
    for f in fs:
        P = addpol(f)
        reduced = P.reduced
        for i, (num, den) in P.sides.items():
            assert min(den) == 0 and den[0] == 1, (f, i)
            if len(den) == 1:
                assert reduced[i][0] is num and reduced[i][1] is den, (f, i)


@pytest.mark.parametrize("p, text", _SPAN_INPUTS)
def test_reduction_runs_on_one_side_of_the_span_limit(p, text, monkeypatch):
    # one gcd per a_i whose two sides span at most _REDUCE_SPAN powers of t,
    # none for the rest, which keep the normalised sides they were built with
    P = addpol(parse_polynomial(text, p))
    within = [i for i, (num, den) in P.sides.items() if len(den) > 1
              and max(num) - min(num) <= _REDUCE_SPAN and max(den) - min(den) <= _REDUCE_SPAN]
    beyond = [i for i, (num, den) in P.sides.items()
              if max(num) - min(num) > _REDUCE_SPAN or max(den) - min(den) > _REDUCE_SPAN]
    assert within and beyond
    calls = []
    gcd_ = intpoly.gcd
    monkeypatch.setattr(intpoly, "gcd", lambda *args: calls.append(args) or gcd_(*args))
    reduced = P.reduced
    assert len(calls) == len(within)
    for i in beyond:
        num, den = P.sides[i]
        e0, inv = min(den), pow(den[min(den)], p - 2, p)
        assert reduced[i] == ({e - e0: c * inv % p for e, c in num.items()},
                              {e - e0: c * inv % p for e, c in den.items()})
    code, out = run(Command("addpol", p, text, fmt="json"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SPAN_DIGESTS[text]


# the differential test keeps p^n at most 5^5, where the oracle's content
# gcd on entries hundreds of terms long still takes well under a second
_ORACLE_PN = 5**5

# denominators of the drawn coefficients: 1, t, t + 1 and t^2 + t
_DENS = ({0: 1}, {1: 1}, {0: 1, 1: 1}, {1: 1, 2: 1})


@st.composite
def _oracle_inputs(draw):
    # f of one of five shapes, deg f <= 5 and p^(deg f) <= _ORACLE_PN:
    # generic; inseparable, h(X^p); a repeated factor, h^2 k; X h, whose
    # free column lies below deg f; and a leading coefficient t^a (t + 1)^b
    # that shares factors with t and with the other coefficients'
    # denominators
    shape = draw(st.sampled_from(["generic", "inseparable", "square", "x_times", "lc_shares"]))
    p = draw(st.sampled_from([2, 3, 5] if shape == "inseparable" else [2, 3, 5, 7, 11]))
    top = max(n for n in range(1, 6) if p**n <= _ORACLE_PN)
    ctx = field_ctx(p)

    def coeff(nonzero: bool = False) -> RatFun:
        num = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
        if nonzero and not any(num):
            num[0] = 1
        return RatFun.from_t_coeffs(ctx, dict(enumerate(num)), draw(st.sampled_from(_DENS)))

    def poly(n: int) -> Poly:
        return Poly.make([coeff() for _ in range(n)] + [coeff(nonzero=True)])

    if shape == "inseparable":
        h = poly(draw(st.integers(1, top // p)))
        zero = RatFun.zero(ctx)
        return Poly.make([h.coeffs[j // p] if j % p == 0 else zero for j in range(p * h.degree + 1)])
    if shape == "square":
        h = poly(draw(st.integers(1, top // 2)))
        return poly_mul(poly_mul(h, h), poly(draw(st.integers(0, top - 2 * h.degree))))
    if shape == "x_times":
        return poly_mul(from_int_coeffs(ctx, [0, 1]), poly(draw(st.integers(0, top - 1))))
    f = poly(draw(st.integers(1, top)))
    if shape == "lc_shares":
        a, b = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        lc = t_power(ctx, a) * RatFun.from_t_coeffs(ctx, {0: 1, 1: 1}) ** b
        f = Poly.make([*f.coeffs[:-1], lc])
    return f


@given(_oracle_inputs())
@settings(max_examples=150, deadline=None)
def test_companion_sides_equal_the_cramer_oracle(f):
    # the back-substitution from 1 at the free column, with no content gcd,
    # gives the very sides of the Cramer kernel divided by its content once
    # both are normalised, not only the same reduced a_i
    assert addpol(f).sides == cramer_addpol(f).sides


@pytest.mark.parametrize("fs", [
    corpus(seed=20260810, count=50, ps=(2, 3), max_deg=4),
    corpus(seed=20260810, count=30, ps=(5, 7), max_deg=4),
    [parse_polynomial(f"X^{n} + t*X^{n - 1} + X + 1/t", p) for p, n in ((2, 9), (3, 6), (5, 4), (11, 3))],
], ids=["acceptance", "p5_p7", "ladder"])
def test_monic_models_minimal_additive_multiple_is_integral(fs):
    # the theorem ore's back-substitution rests on, checked on the Cramer
    # kernel K alone.  Let c be the earliest free column and
    # Q = sum_{i<=c} (K_i/K_c) X^(p^i), in the unstripped residues, the
    # monic additive multiple of the monic model g of least degree.  g is
    # monic over F_p[t], so its roots are integral over F_p[t].  Q's roots
    # all have one multiplicity p^e; the integral ones form an F_p-space that
    # holds g's roots and that the automorphisms over F_p(t) permute, so
    # the product of (X - x)^(p^e) over it is an additive multiple of g over
    # F_p(t), and by minimality it is Q.  Q's coefficients are then
    # integral over F_p[t] and lie in F_p(t), so they lie in F_p[t]: column
    # i carries t^shifts[i] less, so K_c divides K_i t^(shifts[c] - shifts[i])
    for f in fs:
        p, _, shifts, matrix, divisors, free = _echelon(f)
        K = cramer_kernel(matrix, divisors, free, p)
        assert K[free]
        for i in range(free):
            _, r = divmod_([0] * (shifts[free] - shifts[i]) + K[i], K[free], p)
            assert not r, (f, i)
