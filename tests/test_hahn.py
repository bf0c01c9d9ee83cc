from fractions import Fraction

import pytest

from hahnroot.ffield import field_ctx
from hahnroot.hahn import HahnSeries, expands_at
from oracles import from_ratfun, ramifies_at, to_ratfun


F3 = field_ctx(3)
F9 = field_ctx(3, 2)


def series(*terms):
    return HahnSeries.from_terms(F3, [(Fraction(a, b), F3.from_int(c)) for a, b, c in terms])


X = series((-1, 3, 1), (-2, 9, 1), (1, 2, 2))  # t^(-1/3) + t^(-2/9) + 2 t^(1/2)


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
    ra, rb = to_ratfun(a, 2), to_ratfun(b, 2)
    for x in (a, b, X, HahnSeries.zero(F3)):
        assert from_ratfun(to_ratfun(x)).terms == x.terms
        assert from_ratfun(to_ratfun(x, 36)).terms == x.terms
    # from_terms merges like exponents, so it is the sum of two term lists
    total = HahnSeries.from_terms(F3, a.terms + b.terms)
    assert to_ratfun(total, 2) == ra + rb
    assert from_ratfun(ra + rb).terms == total.terms
    product = HahnSeries.from_terms(
        F3, [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
    )
    assert to_ratfun(product, 2) == ra * rb
    assert from_ratfun(ra * rb).terms == product.terms
    with pytest.raises(ValueError):
        to_ratfun(X, 2)


def test_append_term_guards_order():
    with pytest.raises(ValueError):
        X.append_term(Fraction(-1), F3.one)
    y = X.append_term(Fraction(2), F3.one)
    assert y.terms[-1] == (Fraction(2), F3.one)
    # a chain of appends equals the series built through the checked constructor
    terms = [(Fraction(-1, 2), F3.one), (Fraction(0), F3.from_int(2)), (Fraction(5, 3), F3.one)]
    chain = HahnSeries.zero(F3)
    for e, c in terms:
        chain = chain.append_term(e, c)
    assert chain == HahnSeries(F3, tuple(terms))
    # a zero coefficient leaves the series as it was
    assert chain.append_term(Fraction(7), F3.zero) is chain
    # exponents over big denominators: 1 - 1/3^201 exceeds 1 - 1/3^200, and
    # the same exponent again or a smaller one is refused
    a, b = 1 - Fraction(1, 3**200), 1 - Fraction(1, 3**201)
    big = HahnSeries.zero(F3).append_term(a, F3.one).append_term(b, F3.one)
    assert big.terms == ((a, F3.one), (b, F3.one))
    for e in (b, a, Fraction(b.numerator - 1, b.denominator)):
        with pytest.raises(ValueError):
            big.append_term(e, F3.one)

