import math
from collections import Counter
from fractions import Fraction

import pytest

from hahnroot.cli import parse_polynomial
from hahnroot.expand import BranchNode, accumulation_analysis, expand_roots
from hahnroot.ffield import coeffs_text, field_ctx
from hahnroot.hahn import HahnSeries
from hahnroot.hasse import INF
from oracles import (AlreadyRootError, approximation_terms, edges, gamma_J, monic, node_lines,
                     poly_mul, reference_accumulation_analysis)


F3 = field_ctx(3)
CUBIC = parse_polynomial("X^3 - X^2 - 1/t", 3)


def test_approximation_terms_cubic_at_zero():
    terms = approximation_terms(CUBIC, HahnSeries.zero(F3))
    assert terms == [(Fraction(-1, 3), F3.one, 3)]


def test_approximation_terms_cubic_second_step():
    w = HahnSeries.monomial(F3, Fraction(-1, 3), F3.one)
    terms = approximation_terms(CUBIC, w)
    assert terms == [(Fraction(-2, 9), F3.one, 3)]


def test_approximation_terms_square_root():
    f = parse_polynomial("X^2 - t", 3)
    terms = approximation_terms(f, HahnSeries.zero(F3))
    assert terms == [
        (Fraction(1, 2), F3.one, 1),
        (Fraction(1, 2), F3.from_int(2), 1),
    ]


def test_approximation_terms_at_root_signal():
    f = parse_polynomial("X^2 - t", 3)
    root = HahnSeries.monomial(F3, Fraction(1, 2), F3.one)
    with pytest.raises(AlreadyRootError):
        approximation_terms(f, root)


def test_branch_step_square_root_terminates():
    f = parse_polynomial("X^2 - t", 3)
    tree = expand_roots(f, 5)
    kids = tree.root.children
    assert [k.status for k in kids] == ["exact_root", "exact_root"]
    assert [(k.last_r, str(k.step_zeta)) for k in kids] == [
        (Fraction(1, 2), "1"),
        (Fraction(1, 2), "2"),
    ]
    assert all(k.residual_valuation == INF for k in kids)


def test_branch_step_artin_schreier_multiplicity():
    for p in (2, 3, 5):
        f = parse_polynomial(f"X^{p} - X - 1/t", p)
        tree = expand_roots(f, 1)
        kids = tree.root.children
        assert len(kids) == 1
        assert kids[0].multiplicity == p
        assert kids[0].last_r == Fraction(-1, p)
        assert kids[0].step_zeta == field_ctx(p).one


def test_branch_step_third_step_of_cubic():
    tree = expand_roots(CUBIC, 5)
    node = tree.leaves()[0].chain()[2]  # live internal node after two steps
    assert [e for e, _ in node.w.terms] == [Fraction(-1, 3), Fraction(-2, 9)]
    kids = node.children
    assert len(kids) == 1
    assert kids[0].last_r == Fraction(-5, 27)
    assert kids[0].step_zeta == F3.from_int(2)
    assert kids[0].multiplicity == 3


def test_expand_artin_schreier_chain():
    for p in (2, 3):
        ctx = field_ctx(p)
        f = parse_polynomial(f"X^{p} - X - 1/t", p)
        tree = expand_roots(f, 20)
        leaves = tree.leaves()
        assert len(leaves) == 1
        leaf = leaves[0]
        assert leaf.multiplicity == p
        assert [e for e, _ in leaf.w.terms] == [Fraction(-1, p**n) for n in range(1, 21)]
        assert all(c == ctx.one for _, c in leaf.w.terms)
        assert leaf.residual_valuation == Fraction(-1, p**20)


def test_expand_cubic_prefix():
    tree = expand_roots(CUBIC, 3)
    leaf = tree.leaves()[0]
    assert leaf.multiplicity == 3
    assert leaf.w.terms == (
        (Fraction(-1, 3), F3.one),
        (Fraction(-2, 9), F3.one),
        (Fraction(-5, 27), F3.from_int(2)),
    )
    chain = leaf.chain()
    residuals = [n.residual_valuation for n in chain]
    assert residuals[:3] == [Fraction(-1), Fraction(-2, 3), Fraction(-5, 9)]
    assert all(b > a for a, b in zip(residuals, residuals[1:]))


def test_expand_exact_roots_and_zero_root():
    f = parse_polynomial("X^3 - t*X^2", 3)  # X^2 (X - t)
    tree = expand_roots(f, 4)
    leaves = tree.leaves()
    assert sum(leaf.multiplicity for leaf in leaves) == 3
    zero_leaf = next(l for l in leaves if l.w.is_zero())
    assert zero_leaf.status == "exact_root" and zero_leaf.multiplicity == 2
    t_leaf = next(l for l in leaves if not l.w.is_zero())
    assert t_leaf.w.terms == ((Fraction(1), F3.one),)
    assert t_leaf.status == "exact_root"


def test_expand_rejects_bad_depth():
    with pytest.raises(ValueError):
        expand_roots(CUBIC, 0)


def test_multiplicity_conserved_at_every_level():
    f = parse_polynomial("X^4 + t*X^2 + X + t^2", 3)
    tree = expand_roots(f, 6)
    level = [tree.root]
    for _ in range(7):
        assert sum(n.multiplicity for n in level) == f.degree
        nxt = []
        for node in level:
            nxt.extend(node.children if node.children else [node])
        level = nxt


def test_branch_children_on_zero_edge_match_approximation_terms():
    f = parse_polynomial("X^4 + t*X^2 + X + t^2", 3)
    tree = expand_roots(f, 5)
    for node, kid in edges(tree):
        if kid.step_zeta is None or node_lines(node) == ():
            continue
        if 0 in _edge_full_indices(f, node, kid):
            expected = {(r, z.coeffs, m) for r, z, m in approximation_terms(f, node.w)}
            got = (kid.last_r, kid.step_zeta.coeffs, kid.multiplicity)
            assert got in expected


def _edge_full_indices(f, node, kid):
    # the hull edge of this step touched index 0 iff the step raised the
    # residual valuation from exactly v(f(w))
    gamma, _ = gamma_J(node_lines(node), kid.last_r)
    return {0, *kid.term_lines} if gamma == node.residual_valuation else set(kid.term_lines)


def test_every_step_beats_its_edge_level():
    # the provable form of ascent: v(f(child)) always exceeds the level of the
    # hull edge that produced the step, i.e. min(lines at r, v(f(parent)))
    f = parse_polynomial("X^4 + t*X^2 + X + t^2", 3)
    for g in (f, CUBIC):
        tree = expand_roots(g, 8)
        for node, kid in edges(tree):
            if kid.step_zeta is None:
                continue
            level, _ = gamma_J(node_lines(node), kid.last_r)
            edge_level = min(level, node.residual_valuation)
            assert kid.residual_valuation > edge_level


def test_tie_child_keeps_valuation_over_lower_edge_level():
    # X^2+X+t over F_3: at w = 0 the points (i, v(c_i)) are (0,1), (1,0),
    # (2,0).  The edge (1,0)-(2,0) avoids index 0 and gives the tie child
    # w = 2, which keeps v(f(w)) = 1 over an edge level of 0; the edge
    # (0,1)-(1,0) gives the approximation child w = 2t, which rises to 2.
    f = parse_polynomial("X^2 + X + t", 3)
    root = expand_roots(f, 3).root
    assert root.residual_valuation == 1
    by_terms = {kid.w.terms: kid for kid in root.children}
    two = F3.from_int(2)

    tie = by_terms[((Fraction(0), two),)]
    assert tie.term_lines == frozenset({1, 2})
    assert gamma_J(node_lines(root), tie.last_r)[0] == 0
    assert tie.residual_valuation == 1

    approx = by_terms[((Fraction(1), two),)]
    assert approx.term_lines == frozenset({1})
    assert gamma_J(node_lines(root), approx.last_r)[0] == 1
    assert approx.residual_valuation == 2
    assert set(by_terms) == {tie.w.terms, approx.w.terms}


def _orbit_representatives(tree):
    # the root, and each step child of a representative whose coefficient
    # is not sigma^(j*d) of an earlier sibling's on the same edge, d the
    # degree of the field that the parent's coefficients generate; the
    # exact-root leaf of a root w keeps w and is not counted
    reps = [tree.root]
    stack = [tree.root]
    while stack:
        node = stack.pop()
        d = math.lcm(1, *(c.degree() for _, c in node.w.terms))
        firsts = []
        for kid in node.children:
            zeta = kid.step_zeta
            if zeta is None:
                continue
            orbit = {zeta.frobenius(j * d) for j in range(zeta.degree())}
            if any(kid.last_r == r and z in orbit for r, z in firsts):
                continue
            firsts.append((kid.last_r, zeta))
            reps.append(kid)
            stack.append(kid)
    return reps


def test_taylor_data_is_shifted_not_recomputed(monkeypatch):
    # the root's Taylor data is the denominator-cleared f; every step child
    # that represents its Frobenius orbit derives its own from its parent's
    # by one Taylor shift, the other members are its conjugates and shift
    # nothing, so no node runs taylor_at or evaluate, and the order > 0
    # exact-root leaf of X^3 - t*X^2 reuses the root's w and computes nothing.
    # Every field here has tables, where orbits are shared
    from hahnroot import expand, ffield, hasse

    calls = dict.fromkeys(("taylor_at", "evaluate", "taylor_shift", "clear", "poly_roots"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(expand, "taylor_at", counted("taylor_at", expand.taylor_at))
    monkeypatch.setattr(expand, "evaluate", counted("evaluate", expand.evaluate))
    monkeypatch.setattr(hasse, "evaluate", counted("evaluate", hasse.evaluate))
    monkeypatch.setattr(expand, "taylor_shift", counted("taylor_shift", expand.taylor_shift))
    monkeypatch.setattr(
        expand, "cleared_coefficients", counted("clear", expand.cleared_coefficients)
    )
    monkeypatch.setattr(ffield, "poly_roots", counted("poly_roots", ffield.poly_roots))
    # (p, f, depth, fresh nodes, orbit representatives)
    for p, text, depth, fresh_count, rep_count in (
        (3, "X^3-X^2-1/t", 12, 13, 13),
        (3, "X^2+X+t", 3, 7, 7),
        (3, "X^3-t*X^2", 4, 2, 2),
        # the cube roots of unity over F_2 and the fourth roots of 2 over
        # F_3 lie in orbits of two, whose second members are images
        (2, "X^3+t", 3, 4, 3),
        (3, "X^4+t", 4, 5, 3),
        (2, "X^5+X+1/t", 6, 31, 13),
    ):
        calls.update(dict.fromkeys(calls, 0))
        tree = expand_roots(parse_polynomial(text, p), depth)
        nodes = [tree.root] + [kid for _, kid in edges(tree)]
        fresh = [n for n in nodes if n.parent is None or n.w is not n.parent.w]
        assert len(fresh) == fresh_count
        assert calls["clear"] + calls["taylor_shift"] == len(_orbit_representatives(tree)) == rep_count
        assert calls["clear"] == 1
        assert calls["taylor_at"] == calls["evaluate"] == 0
    # every edge of X^2 + X + 1/t over F_2 is {j, j + 2^a}, whose one root is
    # a Frobenius power, so the one solve left is the leaf's accumulation
    # equation z^2 + z
    calls["poly_roots"] = 0
    expand_roots(parse_polynomial("X^2+X+1/t", 2), 6)
    assert calls["poly_roots"] == 1


# P(X - s/t)*P(X - (s+1)/t) over F_2, P(Y) = Y^4 + Y + 1/t and s^2 = s + 1:
# its two branches are conjugate, and each accumulates at r = 0 with the
# equation z^4 + z, whose solutions 0, s, 1, s+1 Frobenius reorders
CONJUGATE_ACCUMULATIONS = "X^8 + (t^3+1)/t^4*X^4 + X^2 + (t^3+1)/t^4*X + (t^6+t^3+1)/t^8"


def test_orbit_images_print_as_their_expansions(monkeypatch):
    # the engine expands one member per Frobenius orbit and builds the rest
    # as its images; with orbits shared nowhere it expands every member, and
    # every response must be the same bytes
    from hahnroot.cli import Command, poly_text, run
    from hahnroot.corpus import corpus
    from hahnroot.ffield import FieldCtx

    requests = [(2, CONJUGATE_ACCUMULATIONS, 12), (3, "X^4+t", 4), (2, "X^5+X+1/t", 12)]
    for ps, count in (((2, 3), 50), ((5, 7), 30)):
        requests += [(f.ctx.p, poly_text(f), 25)
                     for f in corpus(seed=20260810, count=count, ps=ps, max_deg=4)]

    def responses():
        return [run(Command("roots", p, text, depth=depth, fmt="json")) for p, text, depth in requests]

    shared = responses()
    monkeypatch.setattr(FieldCtx, "has_tables", property(lambda ctx: False))
    assert responses() == shared


def test_conjugate_accumulations_are_frobenius_images():
    import invariants

    tree = expand_roots(parse_polynomial(CONJUGATE_ACCUMULATIONS, 2), 12)
    leaves = tree.leaves()
    assert [leaf.status for leaf in leaves] == ["accumulating"] * 2
    for leaf in leaves:
        solutions = [z for z, _ in leaf.accumulation.solutions]
        assert [str(z) for z in solutions] == ["0", "s", "1", "s+1"]
    case = invariants.Case(tree.f, None, [], tree)
    assert invariants.frobenius_closure(case, Counter()) == []


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (3, 2), (3, 4), (7, 3), (2, 11), (3, 7)])
def test_p_power_edge_root_matches_poly_roots(p, k):
    # an edge {j, j + p^a} has the one root (-b_j/b_(j+p^a))^(1/p^a), of
    # multiplicity p^a, in the node's own field: the same context, root and
    # multiplicity as poly_roots gives, in fields with tables (F_2 .. F_343)
    # and without them (F_(2^11), F_(3^7))
    import random

    from hahnroot import ffield
    from hahnroot.expand import _edge_roots

    ctx = field_ctx(p, k)
    assert ctx.has_tables == (p**k <= 1024)
    rng = random.Random(p * 100 + k)

    def nonzero():
        while True:
            x = ctx.from_coeffs([rng.randrange(p) for _ in range(k)])
            if x:
                return x

    for a in (0, 1, 2):
        for j in (0, 1, 2):
            b_j, b_top = nonzero(), nonzero()
            top = j + p**a
            solved = _edge_roots(ctx, {j: b_j, top: b_top}, (j, top))
            equation = [ctx.zero] * (top + 1)
            equation[j], equation[top] = b_j, b_top
            expected = ffield.poly_roots(equation)
            assert solved.ctx == expected.ctx == ctx
            assert solved.roots == tuple((z, m) for z, m in expected.roots if z)
            ((zeta, mult),) = solved.roots
            assert mult == p**a
            assert b_j + b_top * zeta ** (p**a) == ctx.zero


def _poly_from_roots(ctx, roots):
    from hahnroot.hasse import Poly
    from hahnroot.ratfun import RatFun
    from oracles import to_ratfun

    f = Poly.make([RatFun.one(ctx)])
    for root in roots:
        f = poly_mul(f, Poly.make([-to_ratfun(root), RatFun.one(ctx)]))
    return f


def test_engine_recovers_constructed_roots():
    ctx = field_ctx(3)
    one = HahnSeries.monomial(ctx, 0, ctx.one)
    t1 = HahnSeries.monomial(ctx, 1, ctx.one)
    t2 = HahnSeries.monomial(ctx, 1, ctx.from_int(2))
    f = _poly_from_roots(ctx, [one, t1, t2])
    leaves = expand_roots(f, 6).leaves()
    found = {leaf.w.terms for leaf in leaves}
    assert found == {one.terms, t1.terms, t2.terms}
    assert all(leaf.status == "exact_root" and leaf.multiplicity == 1 for leaf in leaves)


def test_engine_recovers_repeated_roots_with_multiplicity():
    ctx = field_ctx(3)
    double = HahnSeries.monomial(ctx, 1, ctx.one)
    single = HahnSeries.monomial(ctx, 0, ctx.one)
    f = _poly_from_roots(ctx, [double, double, single])
    leaves = expand_roots(f, 6).leaves()
    by_terms = {leaf.w.terms: leaf.multiplicity for leaf in leaves}
    assert by_terms == {double.terms: 2, single.terms: 1}


def test_engine_recovers_mixed_fractional_roots():
    ctx = field_ctx(3)
    # (X^2 - t)(X - 1) expanded by hand
    f = parse_polynomial("X^3 - X^2 - t*X + t", 3)
    leaves = expand_roots(f, 6).leaves()
    found = {leaf.w.terms for leaf in leaves}
    assert found == {
        ((Fraction(0), ctx.one),),
        ((Fraction(1, 2), ctx.one),),
        ((Fraction(1, 2), ctx.from_int(2)),),
    }


def test_expansion_can_enlarge_the_field():
    # z^2 = 2 has no solution in F_3, so the square roots of 2t live in F_9
    f = parse_polynomial("X^2 - 2*t", 3)
    leaves = expand_roots(f, 4).leaves()
    assert len(leaves) == 2
    for leaf in leaves:
        assert leaf.status == "exact_root"
        assert leaf.w.ctx.order == 9
        (e, c) = leaf.w.terms[0]
        assert e == Fraction(1, 2)
        assert c * c == leaf.w.ctx.from_int(2)


def test_accumulation_cubic():
    tree = expand_roots(CUBIC, 12)
    leaf = tree.leaves()[0]
    assert leaf.status == "accumulating"
    acc = leaf.accumulation
    assert acc.r_star == Fraction(-1, 6)
    assert acc.J_star == frozenset({1, 3})
    assert coeffs_text(acc.equation, "z") == "z^3+z"
    assert acc.ctx.order == 9
    by_expand = {flag for _, flag in acc.solutions}
    assert by_expand == {True, False}
    nonzero = [(z, flag) for z, flag in acc.solutions if z]
    assert len(nonzero) == 2 and all(flag for _, flag in nonzero)
    two = acc.ctx.from_int(2)
    assert all(z * z == two for z, _ in nonzero)
    assert acc.heuristic  # the cubic is not additive


def test_accumulation_artin_schreier():
    for p in (2, 3, 5):
        ctx = field_ctx(p)
        f = parse_polynomial(f"X^{p} - X - 1/t", p)
        leaf = expand_roots(f, 12).leaves()[0]
        acc = leaf.accumulation
        assert acc.r_star == 0
        assert acc.J_star == frozenset({1, p})
        assert {z for z, _ in acc.solutions} == set(ctx.elements())
        assert not any(flag for _, flag in acc.solutions)


def test_accumulation_none_for_exact_roots():
    f = parse_polynomial("X^2 - t", 3)
    leaf = expand_roots(f, 6).leaves()[0]
    assert accumulation_analysis(monic(f), leaf.chain()) is None


def _report_fields(report):
    if report is None:
        return None
    return (report.r_star, report.J_star, report.equation, report.solutions, report.ctx,
            report.heuristic)


def _detector_inputs():
    from hahnroot.corpus import corpus

    polys = corpus(20260810, 50) + corpus(20260810, 30, ps=(5, 7))
    polys += [parse_polynomial(f"X^{p}-X-1/t", p) for p in (2, 3, 5)]
    polys += [parse_polynomial(text, 3) for text in ("X^3-X^2-1/t", "X^3-X-1/t",
                                                     "X^3-t^2*X-1/t")]
    for f in polys:
        for depth in (10, 25):
            stack = [expand_roots(f, depth).root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                yield f, node.chain()


def _assert_detectors_agree(f, chain):
    got = _report_fields(accumulation_analysis(f, chain))
    assert got == _report_fields(reference_accumulation_analysis(f, chain))
    return got is not None


def test_accumulation_analysis_matches_the_reference_on_every_chain():
    # the detector cross-multiplies integer minima over each node's M; the
    # reference compares NewtonLines with Fraction offsets.  Every node's
    # chain is compared, not only the leaves the engine closes
    chains = reports = 0
    for f, chain in _detector_inputs():
        reported = _assert_detectors_agree(f, chain)
        # no chain of multiplicity 1 accumulates, so _close_out skips them
        assert not (reported and chain[-1].multiplicity == 1)
        reports += reported
        chains += 1
    assert chains > 5000 and reports > 200


def _raised(minima, lines, x):
    return [(i, e + x if i in lines else e) for i, e in minima]


def _variants(chain):
    # replacements {k: (M, minima, leads)} for one of the last five nodes,
    # the window's parents and the leaf, whose lines the detector compares:
    # the same lines over 2M, all lines or one raised by 1, one raised by
    # 1/M, one lead moved, and one line raised by 1 with the child's
    # residual valuation, so that it still meets it
    for j in range(len(chain) - 5, len(chain)):
        M, minima, leads = chain[j].M, chain[j].minima, chain[j].leads
        lines = {i for i, _ in minima if i}
        yield {j: (2 * M, [(i, 2 * e) for i, e in minima], leads)}
        yield {j: (M, _raised(minima, lines, M), leads)}
        for i in lines:
            yield {j: (M, _raised(minima, {i}, 1), leads)}
            if leads[i] + leads[i].ctx.one:
                yield {j: (M, minima, leads | {i: leads[i] + leads[i].ctx.one})}
            kid = chain[j + 1] if j + 1 < len(chain) else None
            if kid is not None and kid.minima and kid.minima[0][0] == 0:
                yield {j: (M, _raised(minima, {i}, M), leads),
                       j + 1: (kid.M, _raised(kid.minima, {0}, kid.M), kid.leads)}


def _perturbed(chain, replace):
    out = []
    for k, node in enumerate(chain):
        M, minima, leads = replace.get(k, (node.M, node.minima, node.leads))
        out.append(BranchNode(node.w, node.last_r, node.multiplicity, M, minima, leads,
                              step_zeta=node.step_zeta, term_lines=node.term_lines,
                              parent=out[-1] if out else None))
    return out


def test_accumulation_analysis_matches_the_reference_on_perturbed_chains():
    cases = reports = 0
    for f, chain in _detector_inputs():
        if accumulation_analysis(f, chain) is None:
            continue
        for replace in _variants(chain):
            reports += _assert_detectors_agree(f, _perturbed(chain, replace))
            cases += 1
    assert cases > 5000 and 0 < reports < cases


def test_budget_exhausted_without_cycle():
    # 1/(1-t) = 1 + t + t^2 + ...: exponents march to infinity, no finite limit
    f = parse_polynomial("(1-t)*X - 1", 3)
    leaf = expand_roots(f, 8).leaves()[0]
    assert leaf.status == "budget_exhausted"
    assert [e for e, _ in leaf.w.terms] == [Fraction(n) for n in range(8)]


def _assert_nodes_match_taylor_at(f, depth):
    # the engine's shifted, denominator-cleared Taylor data must give every
    # node the Newton data that taylor_at computes from scratch at its w
    from oracles import leading_term, newton_data, taylor_at

    tree = expand_roots(f, depth)
    g = monic(f)
    nodes = [tree.root] + [kid for node, kid in edges(tree) if kid.w is not node.w]
    for node in nodes:
        coeffs = taylor_at(g, node.w)
        expected = (INF, None) if coeffs[0].is_zero() else leading_term(coeffs[0])
        assert (node.residual_valuation, node.residual_lead) == expected
        assert node_lines(node) == newton_data(coeffs)
    return nodes


def test_shifted_taylor_data_matches_taylor_at_on_the_corpus():
    from hahnroot.corpus import corpus

    for f in corpus(seed=20260810, count=50, ps=(2, 3), max_deg=4):
        _assert_nodes_match_taylor_at(f, 12)


@pytest.mark.parametrize(
    "p, text, tower_k",
    [
        (5, "X^3-X^2-1/t", 2),
        (7, "X^3-X^2-1/t", 1),
        (5, "X^4+t*X^3+X+1/t", 2),
        (7, "X^4+t*X^3+X+1/t", 2),
        # two distinct non-monomial denominators, so D is a real product;
        # the steps also ramify (exponents in (1/3)Z)
        (7, "X^3 + 1/(t+1)*X + 1/(t^3+2*t)", 3),
        # two distinct dense denominators, of t-degree 7 and 9, one under a
        # leading coefficient that is not a monomial
        (
            5,
            "(t^2+3)/(t^7+2*t^6+t^5+3*t^4+2*t^3+t^2+4*t+1)*X^3 + 1/t*X"
            " + 1/(2*t^9+t^8+4*t^7+t^6+t^5+2*t^4+3*t^3+t^2+t+1)",
            2,
        ),
    ],
)
def test_shifted_taylor_data_matches_taylor_at(p, text, tower_k):
    from hahnroot.ratfun import RatFun

    f = parse_polynomial(text, p)
    nodes = _assert_nodes_match_taylor_at(f, 12)
    assert max(node.w.ctx.k for node in nodes) == tower_k
    if "/(" in text:
        dens = {str(RatFun(c.ctx, 1, c.den, {0: c.ctx.one})) for c in f.coeffs if len(c.den) > 1}
        assert len(dens) == 2


def _corpus_roots_json(depth):
    from hahnroot.cli import Command, poly_text, run
    from hahnroot.corpus import corpus

    out = []
    for ps, count in (((2, 3), 50), ((5, 7), 20)):
        for f in corpus(seed=20260810, count=count, ps=ps, max_deg=4):
            code, text = run(Command("roots", f.ctx.p, poly_text(f), depth=depth, fmt="json"))
            assert code == 0
            out.append(text)
    return out


def test_walk_bound_changes_no_answer(monkeypatch):
    # the engine's walk stops at the first edge with r <= last_r; walking the
    # whole hull and dropping those edges afterwards gives the same answers
    # on the acceptance corpus and the p = 5, 7 corpus
    from hahnroot import expand
    from hahnroot.hasse import newton_edges

    bounded = _corpus_roots_json(25)
    expanded, walkers, dropped = [], [], []
    edge_children = expand._edge_children

    def recording(node, data, images):
        expanded.append(node)
        return edge_children(node, data, images)

    def whole_hull(points, d=1, above=None):
        walkers.append(expanded[-1])
        edges = newton_edges(points, d)
        kept = [(r, xs) for r, xs in edges if above is None or r * d > above]
        dropped.append(len(edges) - len(kept))
        return kept

    monkeypatch.setattr(expand, "_edge_children", recording)
    monkeypatch.setattr(expand, "newton_edges", whole_hull)
    assert _corpus_roots_json(25) == bounded
    # a node of multiplicity 1 with f(w) != 0 builds its one child from the
    # multiplicity theorem, with no walk (ROADMAP item 12); every other
    # expanded node walks once
    assert walkers == [node for node in expanded if node.multiplicity > 1 or node.minima[0][0]]
    assert len(walkers) == 177 < len(expanded)
    # and the bound still leaves edges behind it in the walks that remain
    assert sum(1 for n in dropped if n) == 75


def _regime_node(e2, e0=5):
    # a node of multiplicity 1 over F_3 at w = t with last_r = 1 and Taylor
    # data c_0 = t^e0, c_1 = t^2, c_2 = 2*t^e2 (M = 1): line 1 reaches
    # v(c_0) at R = e0 - 2, and line 2 meets line 1 at r = 2 - e2
    from hahnroot.expand import _node

    one, two = F3.one, F3.from_int(2)
    data = (1, [{e0: one}, {2: one}, {e2: two}])
    w = HahnSeries.monomial(F3, 1, one)
    return _node(w, data, last_r=Fraction(1), multiplicity=1), data


def test_hensel_step_boundary():
    from hahnroot.expand import _edge_children

    # line 2 meets line 1 exactly at last_r: the walk's one edge past last_r
    # joins indices 0 and 1 alone, and its one child is t - t^3
    (kid, _), = _edge_children(*_regime_node(1), [])
    assert kid.w.terms == ((Fraction(1), F3.one), (Fraction(3), -F3.one))
    assert kid.term_lines == frozenset({1}) and kid.multiplicity == 1

    # one unit lower, line 2 dips below line 1 just past last_r: the walk
    # finds a second edge, which a node of multiplicity 1 cannot have, so the
    # census refuses it
    with pytest.raises(AssertionError, match="fail to account"):
        _edge_children(*_regime_node(0), [])
    # and when line 1 reaches v(c_0) at last_r itself (R = L), no edge lies
    # past last_r
    with pytest.raises(AssertionError, match="fail to account"):
        _edge_children(*_regime_node(1, e0=3), [])


def test_hensel_step_takes_no_walk(monkeypatch):
    # at the regime's boundary, line 2 through (1, e_1) at slope -last_r, and
    # one unit above it, the node's one child comes without newton_edges
    from hahnroot import expand

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(expand, "newton_edges", no_walk)
    for e2 in (1, 2):
        (kid, _), = expand._edge_children(*_regime_node(e2), [])
        assert kid.w.terms == ((Fraction(1), F3.one), (Fraction(3), -F3.one))
        assert kid.term_lines == frozenset({1}) and kid.field_degree == 1


# ROADMAP item 15: an exact-root child is closed with its edge root's
# multiplicity, which counts every root of f below it, so a root of lower
# order hides the others; its fix flips these two tests


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
def test_exact_root_of_lower_order_keeps_the_live_branch_over_f2():
    one = field_ctx(2).one
    leaves = expand_roots(parse_polynomial("t*X^3 + (t + 1)*X^2 + 1", 2), 8).leaves()
    assert sum(leaf.multiplicity for leaf in leaves) == 3
    exact = [leaf for leaf in leaves if leaf.status == "exact_root"]
    assert [(leaf.w.terms, leaf.multiplicity) for leaf in exact] == [(((Fraction(0), one),), 1)]
    # the root 1 + t + t^3 + t^7 + .. of f, beside 1 and the one of valuation -1
    live = [leaf for leaf in leaves if leaf.w.valuation() == 0 and leaf.status != "exact_root"]
    assert [[e for e, _ in leaf.w.terms][:4] for leaf in live] == [[0, 1, 3, 7]]
    assert all(c == one for _, c in live[0].w.terms) and live[0].multiplicity == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
def test_exact_roots_of_one_prefix_are_both_found_over_f3():
    # (X - t)(X - t - t^2)
    one = F3.one
    leaves = expand_roots(parse_polynomial("X^2 - (t^2 + 2*t)*X + t^3 + t^2", 3), 8).leaves()
    assert {(leaf.w.terms, leaf.multiplicity, leaf.status) for leaf in leaves} == {
        (((Fraction(1), one),), 1, "exact_root"),
        (((Fraction(1), one), (Fraction(2), one)), 1, "exact_root"),
    }
