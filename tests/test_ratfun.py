from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot import intpoly
from hahnroot.ffield import field_ctx
from hahnroot.ratfun import _REDUCE_SPAN, RatFun, _side_text, fraction_text, to_text
from oracles import laurent_terms, leading_term, ratfun_pow, t_power


F3 = field_ctx(3)


def ratfuns(p=3, max_exp=4, M=1):
    ctx = field_ctx(p)

    def build(num_items, den_items):
        num = {e: ctx.from_int(c) for e, c in num_items.items() if c % p}
        den = {e: ctx.from_int(c) for e, c in den_items.items() if c % p}
        if not den:
            den = {0: ctx.one}
        return RatFun(ctx, M, num, den)

    items = st.dictionaries(st.integers(-max_exp, max_exp), st.integers(0, p - 1), max_size=3)
    return st.builds(build, items, items)


def test_leading_term_of_monomial():
    a = RatFun.from_t_coeffs(F3, {0: 1}, {1: 1})  # 1/t
    assert leading_term(a) == (Fraction(-1), F3.one)


def test_leading_term_with_laurent_oracle():
    # (t^2 - t)/t^4 = -t^-3 + t^-2; the long-division oracle confirms it
    a = RatFun.from_t_coeffs(F3, {2: 1, 1: -1}, {4: 1})
    terms = laurent_terms(a, 3)
    assert terms == [(Fraction(-3), F3.from_int(2)), (Fraction(-2), F3.one)]
    assert leading_term(a) == terms[0] == (Fraction(-3), F3.from_int(2))


def test_leading_term_after_cancellation():
    # u^2 (1+u) / (1+u) at M = 3 is the monomial t^(2/3)
    one_plus_u = {0: F3.one, 1: F3.one}
    num = {2: F3.one, 3: F3.one}
    a = RatFun(F3, 3, num, one_plus_u)
    assert leading_term(a) == (Fraction(2, 3), F3.one)


def test_leading_term_of_zero_signals():
    with pytest.raises(ZeroDivisionError):
        leading_term(RatFun.zero(F3))
    assert RatFun.zero(F3).valuation() == float("inf")


def test_rebase_monomials():
    t = t_power(F3, 1)
    r = t.rebase(2)
    assert r.M == 2 and r.num == {2: F3.one}
    inv = t_power(F3, -1)
    r = inv.rebase(6)
    assert r.M == 6 and r.num == {-6: F3.one}


def test_rebase_rejects_non_multiple():
    with pytest.raises(ValueError):
        t_power(F3, 1, M=2).rebase(3)


@given(ratfuns())
@settings(max_examples=50, deadline=None)
def test_rebase_preserves_leading_term(a):
    if a.is_zero():
        return
    assert leading_term(a.rebase(3 * a.M)) == leading_term(a)


@given(ratfuns(), ratfuns(), ratfuns())
@settings(max_examples=40, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero():
        assert a * a.inverse() == RatFun.one(a.ctx, a.M)


@given(ratfuns(), ratfuns())
@settings(max_examples=50, deadline=None)
def test_leading_term_multiplicativity(a, b):
    if a.is_zero() or b.is_zero():
        return
    va, ca = leading_term(a)
    vb, cb = leading_term(b)
    assert leading_term(a * b) == (va + vb, ca * cb)


@given(ratfuns(), ratfuns())
@settings(max_examples=50, deadline=None)
def test_ultrametric_inequality(a, b):
    v = (a + b).valuation()
    va, vb = a.valuation(), b.valuation()
    assert v >= min(va, vb)
    if va != vb:
        assert v == min(va, vb)


def test_pow_uses_frobenius_in_char_p():
    a = RatFun.from_t_coeffs(F3, {0: 1, 1: 1})  # 1 + t
    cubed = ratfun_pow(a, 3)
    assert cubed == RatFun.from_t_coeffs(F3, {0: 1, 3: 1})


def test_text_round_trip_shapes():
    a = RatFun.from_t_coeffs(F3, {0: 1}, {1: 1})
    assert to_text(a) == "1/t"
    b = RatFun.from_t_coeffs(F3, {2: 1, 0: 1}, {3: 1})
    assert to_text(b) == "(t^2 + 1)/t^3"
    assert to_text(RatFun.from_t_coeffs(F3, {1: 2})) == "2*t"


def _side_text_via_str(side, shift):
    # the rendering through FF.__str__ for every coefficient, as reference
    parts = []
    for e in sorted(side, reverse=True):
        cs, ee = str(side[e]), e + shift
        if "+" in cs:
            cs = f"({cs})"
        if ee == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append("t" if ee == 1 else f"t^{ee}")
        else:
            parts.append(f"{cs}*t" if ee == 1 else f"{cs}*t^{ee}")
    return " + ".join(parts) if parts else "0"


def test_side_text_prints_prime_and_extension_coefficients():
    F11, F9 = field_ctx(11), field_ctx(3, 2)
    s = F9.gen
    assert _side_text({4: F11.from_int(10), 2: F11.one, 1: F11.from_int(3), 0: F11.from_int(7)}, 0) \
        == "10*t^4 + t^2 + 3*t + 7"
    assert _side_text({-1: F11.from_int(2), -2: F11.one}, 2) == "2*t + 1"
    assert _side_text({3: s + F9.one, 2: s, 1: F9.from_int(2) * s + F9.from_int(2), 0: F9.one}, 0) \
        == "(s+1)*t^3 + s*t^2 + (2*s+2)*t + 1"
    assert _side_text({}, 0) == "0"
    for ctx in (F11, F9, field_ctx(2, 3)):
        elems = [c for c in ctx.elements() if c]
        side = {e: c for e, c in enumerate(elems)}
        for shift in (0, 1, 3):
            assert _side_text(side, shift) == _side_text_via_str(side, shift)


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=100, deadline=None)
def test_fraction_text_prints_int_sides_as_their_field_elements(p, data):
    # the companion prints int sides, and the parser's RatFuns field
    # elements; a fraction and its negation print alike either way
    a = data.draw(ratfuns(p, max_exp=6))
    for b in (a, -a):
        num = {e: c.coeffs[0] for e, c in b.num.items()}
        den = {e: c.coeffs[0] for e, c in b.den.items()}
        assert fraction_text(num, den) == to_text(b)


def test_repr_renders_fractional_exponent_groups():
    # to_text is defined for M = 1 only; repr must not raise for M = 2
    a = RatFun(F3, 2, {1: F3.one, -1: F3.from_int(2)}, {0: F3.one, 1: F3.one})
    assert repr(a) == "RatFun(num=u + 2*u^-1, den=u + 1, M=2, F_3)"
    assert repr(RatFun.from_t_coeffs(F3, {1: 2}, {0: 1, 2: 1})) == "RatFun(2*t/(t^2 + 1), M=1, F_3)"


@pytest.mark.parametrize("num, den", [
    # (t+1)(t^2+1) / ((t+1)(t+2)): reduced by its constructor
    ({3: 1, 2: 1, 1: 1, 0: 1}, {2: 1, 1: 3, 0: 2}),
    # (t^2000 - 1)/(t - 1): its span is above _REDUCE_SPAN, so it stays as built
    ({2000: 1, 0: -1}, {1: 1, 0: -1}),
])
def test_negation_and_scaling_run_no_gcd(monkeypatch, num, den):
    c = RatFun.from_t_coeffs(F3, num, den)
    assert (max(c.num) - min(c.num) > _REDUCE_SPAN) == (2000 in num)
    calls = []
    gcd = intpoly.gcd
    with monkeypatch.context() as patch:
        patch.setattr(intpoly, "gcd", lambda *args: calls.append(args) or gcd(*args))
        neg, scaled = -c, c.scale(F3.from_int(2))
    assert not calls
    # the result is the fraction the constructor builds and reduces
    for got, k in ((neg, -1), (scaled, 2)):
        u = F3.from_int(k)
        ref = RatFun(F3, 1, {e: x * u for e, x in c.num.items()}, dict(c.den))
        assert (got.num, got.den) == (ref.num, ref.den)
        assert got == ref
