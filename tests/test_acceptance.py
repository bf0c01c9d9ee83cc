"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Corpus-wide data (expansions to depth 25 and additive companions for fifty
seeded random polynomials) is computed once per module and shared.  Criteria
4, 6, 7a, 7b and 8 and the Frobenius closure of the leaves are stated in
``invariants``, which the corpus sweep
``scripts/run_corpus.py`` checks too; the tests here keep their PASS lines
and the corpus-wide assertions.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import invariants
from hahnroot.cli import Command, parse_polynomial, run
from hahnroot.corpus import corpus, random_poly, random_ratfun
from hahnroot.envelope import companion_points, intersection_points, maxram, order_type_bound
from hahnroot.expand import expand_roots
from hahnroot.ffield import field_ctx
from hahnroot.hasse import Poly
from hahnroot.ore import addpol
from hahnroot.ratfun import RatFun
from invariants import strip_p
from oracles import approximation_terms, poly_add, poly_mul, poly_scale

SEED = 20260810
CORPUS_SIZE = 50
CORPUS_DEPTH = 25


@pytest.fixture(scope="module")
def corpus_cases():
    polys = corpus(seed=SEED, count=CORPUS_SIZE, ps=(2, 3), max_deg=4)
    return [invariants.Case.build(g, CORPUS_DEPTH) for g in polys]


def _failures(criterion, cases, counts=None):
    counts = Counter() if counts is None else counts
    return [(i, problem) for i, case in enumerate(cases) for problem in criterion(case, counts)]


def test_criterion_1_golden_cubic_run():
    start = time.perf_counter()
    F3 = field_ctx(3)
    f = parse_polynomial("X^3-X^2-1/t", 3)

    from hahnroot.hahn import HahnSeries

    assert approximation_terms(f, HahnSeries.zero(F3)) == [(Fraction(-1, 3), F3.one, 3)]

    tree = expand_roots(f, 12)
    leaves = tree.leaves()
    assert len(leaves) == 1 and leaves[0].multiplicity == 3
    leaf = leaves[0]
    assert leaf.w.terms[:3] == (
        (Fraction(-1, 3), F3.one),
        (Fraction(-2, 9), F3.one),
        (Fraction(-5, 27), F3.from_int(2)),
    )
    residuals = [n.residual_valuation for n in leaf.chain()]
    assert all(b > a for a, b in zip(residuals, residuals[1:]))
    for e, _ in leaf.w.terms:
        assert strip_p(e.denominator, 3) == 1

    acc = leaf.accumulation
    assert acc is not None
    assert acc.r_star == Fraction(-1, 6)
    assert acc.J_star == frozenset({1, 3})
    assert [c.as_int() for c in acc.equation] == [0, 1, 0, 1]  # z^3 + z
    nonzero = [(z, flag) for z, flag in acc.solutions if z]
    assert len(nonzero) == 2
    assert all(flag for _, flag in nonzero)
    assert acc.ctx.order == 9
    two = acc.ctx.from_int(2)
    assert all(z * z == two for z, _ in nonzero)
    assert nonzero[0][0] + nonzero[1][0] == acc.ctx.zero

    assert maxram(*companion_points(f)) % 2 == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS (golden cubic run, {elapsed:.2f}s)")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_2_artin_schreier_family(p):
    start = time.perf_counter()
    ctx = field_ctx(p)
    f = parse_polynomial(f"X^{p}-X-1/t", p)
    tree = expand_roots(f, 20)
    leaves = tree.leaves()
    assert len(leaves) == 1
    leaf = leaves[0]
    assert leaf.multiplicity == p
    assert [e for e, _ in leaf.w.terms] == [Fraction(-1, p**n) for n in range(1, 21)]
    assert all(c == ctx.one for _, c in leaf.w.terms)
    for node in leaf.chain():
        n_steps = len(node.w.terms)
        if n_steps:
            assert node.residual_valuation == Fraction(-1, p**n_steps)

    acc = leaf.accumulation
    assert acc is not None and acc.r_star == 0
    assert {z for z, _ in acc.solutions} == set(ctx.elements())
    assert not any(flag for _, flag in acc.solutions)

    assert maxram(*companion_points(f)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 (p={p}): PASS (Artin-Schreier depth 20, {elapsed:.2f}s)")


def test_criterion_3_end_to_end_square_root():
    F3 = field_ctx(3)
    f = parse_polynomial("X^2-t", 3)

    tree = expand_roots(f, 5)
    leaves = sorted(tree.leaves(), key=lambda n: n.w.terms[0][1].coeffs)
    assert [leaf.status for leaf in leaves] == ["exact_root", "exact_root"]
    assert [leaf.w.terms for leaf in leaves] == [
        ((Fraction(1, 2), F3.one),),
        ((Fraction(1, 2), F3.from_int(2)),),
    ]

    P = addpol(f)
    assert P.coeffs == {0: RatFun.from_t_coeffs(F3, {1: -1}), 1: RatFun.one(F3)}

    points = intersection_points(P)
    assert [(b.r, b.J) for b in points] == [
        (Fraction(1, 2), frozenset({0, 1})),
        (float("inf"), frozenset({0, 1})),
    ]

    assert maxram(P, points) == 2
    assert order_type_bound(P, points) == (2, "ω^2")

    code, out = run(Command("roots", 3, "X^2-t", depth=5, fmt="json"))
    assert code == 0 and '"status": "exact_root"' in out
    print("\nACCEPTANCE 3: PASS (X^2 - t end to end)")


def test_criterion_4_addpol_corpus(corpus_cases):
    failures = _failures(invariants.companion, corpus_cases)
    assert failures == []
    print(f"\nACCEPTANCE 4: PASS (addpol contract on {len(corpus_cases)} random f)")


def test_criterion_5_taylor_identity():
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3])
        f = random_poly(rng, p, max_deg=4)
        lam = random_ratfun(rng, p, allow_zero=False)
        from oracles import taylor_at

        cs = taylor_at(f, lam)
        shift = Poly.make([-lam, RatFun.one(f.ctx)])
        acc = Poly(())
        power = Poly.make([RatFun.one(f.ctx)])
        for c in cs:
            acc = poly_add(acc, poly_scale(power, c))
            power = poly_mul(power, shift)
        assert acc == f, f"reconstruction failed at sample {checked}"
        checked += 1
    print("\nACCEPTANCE 5: PASS (Taylor identity on 100 random (f, lambda))")


def test_criterion_6_ramification_and_expansion_at_intersections(corpus_cases):
    counts = Counter()
    failures = _failures(invariants.sites, corpus_cases, counts)
    assert failures == []
    print(
        f"\nACCEPTANCE 6: PASS (ramification x{counts['ramification']},"
        f" expansion x{counts['expansion']}, all at finite intersection points)"
    )


def test_criterion_7_structural_bounds(corpus_cases):
    failures = _failures(invariants.census, corpus_cases)
    assert failures == []
    print("\nACCEPTANCE 7a: PASS (intersection counts and multiplicity conservation)")


def test_criterion_7_residual_ascent_as_stated(corpus_cases):
    # the clause and its tie edges are stated in invariants.ascent
    counts = Counter()
    violations = _failures(invariants.ascent, corpus_cases, counts)
    approx_edges, tie_edges = counts["index0_edges"], counts["tie_edges"]
    if violations:
        print(f"\nACCEPTANCE 7b: FAIL (residual ascent; {len(violations)} edges)")
    else:
        print(
            f"\nACCEPTANCE 7b: PASS (strict ascent on {approx_edges} index-0 edges;"
            f" edge-level ascent on {tie_edges} tie edges,"
            f" {counts['tie_without_ascent']} of them without ascent over the parent)"
        )
    assert approx_edges > 0 and tie_edges > 0, (
        f"corpus exercises {approx_edges} index-0 and {tie_edges} tie edges; both must occur"
    )
    assert violations == [], (
        "residual valuation fails to exceed the edge level "
        "min(lines at r, v(f(parent))); on index-0 edges that level is "
        "v(f(parent)) itself, on tie edges it sits below it "
        "(e.g. X^2+X+t over F_3 at w=2 keeps valuation 1 over level 0)"
    )


def test_criterion_8_bound_soundness(corpus_cases):
    counts = Counter()
    failures = _failures(invariants.bounds, corpus_cases, counts)
    assert failures == []
    print(
        f"\nACCEPTANCE 8: PASS (exponent groups x{counts['exponents']},"
        f" coefficient degrees x{counts['coefficients']})"
    )


def test_leaves_are_closed_under_frobenius(corpus_cases):
    counts = Counter()
    failures = _failures(invariants.frobenius_closure, corpus_cases, counts)
    assert failures == []
    print(f"\nFROBENIUS CLOSURE: PASS (leaf images x{counts['frobenius_images']})")
