from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahnroot.ffield import field_ctx
from hahnroot.hahn import (
    HahnSeries,
    expands_at,
    from_ratfun,
    is_approximation,
    ramifies_at,
    to_ratfun,
    truncate,
)


F3 = field_ctx(3)
F9 = field_ctx(3, 2)


def series(*terms):
    return HahnSeries.from_terms(F3, [(Fraction(a, b), F3.from_int(c)) for a, b, c in terms])


X = series((-1, 3, 1), (-2, 9, 1), (1, 2, 2))  # t^(-1/3) + t^(-2/9) + 2 t^(1/2)


def test_truncate_strict_and_inclusive():
    cut = Fraction(-2, 9)
    assert truncate(X, cut).terms == X.terms[:1]
    assert truncate(X, cut, inclusive=True).terms == X.terms[:2]
    assert truncate(X, Fraction(-5)).terms == ()


def test_truncate_is_idempotent_and_marked():
    y = truncate(X, Fraction(-2, 9))
    assert y.cut == Fraction(-2, 9) and not y.cut_inclusive
    assert truncate(y, Fraction(-2, 9)).terms == y.terms


def test_is_approximation():
    y = series((-1, 3, 1))
    x = series((-1, 3, 1), (-2, 9, 1))
    assert is_approximation(y, x)
    assert not is_approximation(x, x)
    not_prefix = series((-1, 3, 1), (1, 2, 2))
    assert not is_approximation(not_prefix, X)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_proper_truncations_are_approximations(data):
    n = data.draw(st.integers(1, 4))
    exps = sorted(
        data.draw(
            st.sets(
                st.fractions(min_value=-3, max_value=3, max_denominator=9),
                min_size=n,
                max_size=n,
            )
        )
    )
    x = HahnSeries.from_terms(F3, [(e, F3.one) for e in exps])
    cut = data.draw(st.sampled_from(exps))
    y = truncate(x, cut)
    assert is_approximation(y, x) == (y.terms != x.terms)


def test_ramifies_at_examples():
    assert ramifies_at([Fraction(-1, 3), Fraction(-2, 9)], Fraction(-1, 6), 2)
    assert not ramifies_at([Fraction(-1), Fraction(-1, 2)], Fraction(3), 2)
    assert not ramifies_at([Fraction(-1), Fraction(-1, 2)], Fraction(3), 5)
    assert ramifies_at([Fraction(-1, 3)], Fraction(-1, 9), 3)


def test_ramifies_is_destroyed_by_earlier_deep_denominator():
    # once 1/4 appears, 2 cannot ramify at exponents with a single power of 2
    support = [Fraction(-1, 4), Fraction(1, 2)]
    assert not ramifies_at(support, Fraction(3, 2), 2)
    assert ramifies_at(support, Fraction(1, 8), 2)


def test_expands_at():
    sqrt2 = next(z for z in F9.elements() if z * z == F9.from_int(2))
    prefix = [F9.one, F9.from_int(2)]
    assert expands_at(prefix, sqrt2)
    assert not expands_at(prefix, F9.from_int(2))
    assert not expands_at([], F9.one)


def test_series_arithmetic_agrees_with_exact_elements():
    a = series((-1, 1, 1), (1, 2, 2))
    b = series((0, 1, 2), (1, 2, 1))
    for op in ("add", "mul"):
        s = a + b if op == "add" else a * b
        ra, rb = to_ratfun(a, 2), to_ratfun(b, 2)
        r = ra + rb if op == "add" else ra * rb
        assert to_ratfun(s, 2) == r
        assert from_ratfun(r).terms == s.terms


def test_append_term_guards_order():
    with pytest.raises(ValueError):
        X.append_term(Fraction(-1), F3.one)
    y = X.append_term(Fraction(2), F3.one)
    assert y.terms[-1] == (Fraction(2), F3.one)

