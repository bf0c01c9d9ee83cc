"""Equality, hashing and checks of the kernel's plain value classes."""

from fractions import Fraction

import pytest

from hahnroot.cli import Command, parse_polynomial
from hahnroot.envelope import Breakpoint
from hahnroot.expand import BranchNode, expand_roots
from hahnroot.ffield import field_ctx, poly_roots
from hahnroot.hahn import HahnSeries
from hahnroot.hasse import INF
from oracles import NewtonLine


def test_contexts_built_apart_are_one_value():
    before = field_ctx(3, 2)
    field_ctx.cache_clear()
    after = field_ctx(3, 2)
    assert before is not after
    assert before == after and hash(before) == hash(after)
    assert len({before: 1, after: 2}) == 1
    assert before != field_ctx(3, 3)
    assert before.identity is before.identity


def test_contexts_are_immutable():
    ctx = field_ctx(5)
    with pytest.raises(AttributeError):
        ctx.p = 7
    with pytest.raises(AttributeError):
        del ctx.k
    with pytest.raises(AttributeError):
        ctx.no_such_slot
    assert ctx.p == 5 and ctx.k == 1


def test_series_lines_breakpoints_and_commands_compare_by_value():
    F3 = field_ctx(3)
    one, two = F3.from_int(1), F3.from_int(2)
    pairs = [
        (HahnSeries(F3, ((Fraction(1, 2), one),)), HahnSeries(F3, ((Fraction(1, 2), one),)),
         HahnSeries(F3, ((Fraction(1, 2), two),))),
        (NewtonLine(1, Fraction(1, 3), one), NewtonLine(1, Fraction(1, 3), one),
         NewtonLine(2, Fraction(1, 3), one)),
        (Breakpoint(Fraction(1, 2), frozenset({0, 1})), Breakpoint(Fraction(1, 2), frozenset({1, 0})),
         Breakpoint(INF, frozenset({0, 1}))),
        (Command("roots", 3, "X^2-t", depth=5), Command("roots", 3, "X^2-t", 5, "text"),
         Command("roots", 3, "X^2-t", depth=6)),
    ]
    for a, b, c in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != c


def _reports(text: str, p: int, depth: int) -> list:
    tree = expand_roots(parse_polynomial(text, p), depth)
    return [n.accumulation for n in tree.leaves() if n.accumulation is not None]


def test_reports_and_root_sets_compare_and_hash_by_value():
    reports, again = _reports("X^3-X^2-1/t", 3, 12), _reports("X^3-X^2-1/t", 3, 12)
    assert reports
    for a, b in zip(reports, again):
        assert a is not b
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a._replace(heuristic=not a.heuristic)
    F9 = field_ctx(3, 2)
    z2_plus_1 = [F9.one, F9.zero, F9.one]
    a, b = poly_roots(z2_plus_1), poly_roots(list(z2_plus_1))
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != poly_roots([-F9.one, F9.zero, F9.one])


def test_a_report_over_f_p_k_is_its_own_sigma_k_image():
    reports = _reports("X^3-X^2-1/t", 3, 12)
    assert {report.ctx.k for report in reports} == {2}
    for report in reports:
        assert report.conjugate(report.ctx.k) == report


def test_commands_default_to_depth_10_text_and_sharp():
    cmd = Command("roots", 3, "X^2-t")
    assert (cmd.depth, cmd.fmt, cmd.mode) == (10, "text", "sharp")
    assert cmd == Command(verb="roots", p=3, poly_text="X^2-t", depth=10, fmt="text", mode="sharp")


def test_only_finite_breakpoints_are_finite():
    assert not Breakpoint(INF, frozenset({0, 1})).is_finite
    assert Breakpoint(Fraction(1, 2), frozenset({0, 1})).is_finite


def test_polynomials_compare_by_value_and_are_unhashable():
    f, g = parse_polynomial("X^2-t", 3), parse_polynomial("X^2 + 2*t", 3)
    assert f == g and f is not g
    assert f != parse_polynomial("X^2+t", 3)
    with pytest.raises(TypeError):
        hash(f)


def test_branch_nodes_hash_by_identity():
    w = HahnSeries.zero(field_ctx(2))
    a, b = BranchNode(w, None, 1), BranchNode(w, None, 1)
    assert a != b and len({a: 1, b: 2}) == 2
    assert a.children == [] and a.children is not b.children


def test_series_keep_their_checks():
    F3 = field_ctx(3)
    one = F3.from_int(1)
    with pytest.raises(ValueError, match="strictly increasing"):
        HahnSeries(F3, ((Fraction(1), one), (Fraction(1), one)))
    with pytest.raises(ValueError, match="strictly increasing"):
        HahnSeries(F3, ((Fraction(2), one), (Fraction(1), one)))
    with pytest.raises(ValueError, match="zero coefficients"):
        HahnSeries(F3, ((Fraction(1), F3.zero),))
