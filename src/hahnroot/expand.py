"""Finite-depth root expansion of f in generalized power series.

The engine grows truncations w of roots of f one term at a time.  It clears
denominators once, in sparse dicts: D, the product of f's distinct
denominators, starts with 1*u^0 like each of them, and lam*u^e0, the
leading term of D*f_n, is that of f_n.  So D*f/(lam*u^e0) = D'*f/f_n, where
v(D') = 0 and D' has leading coefficient 1: it has the residual valuations,
leading coefficients and Newton lines of f/f_n at every w, and its Taylor
data c_i = D^(i)(D'*f/f_n)(w) are Laurent polynomials.  The engine holds
them as ``hasse.TaylorData``, one exponent denominator M and a sparse dict
per c_i, and does no ``RatFun`` arithmetic.  At w = 0 the data are the
cleared coefficients (``hasse.cleared_coefficients``); a child
w + zeta*t^r derives its own from its parent's by a monomial shift
(``hasse.taylor_shift``), so no node computes Taylor data from scratch.
The data lives on the frontier only until the node's children are built;
the node keeps M, the integer minima
e_i = min(c_i) and the leading coefficients c_i[e_i] of the nonzero c_i,
read off the dicts in one scan, and derives v(f(w)) = e_0/M and its Newton
lines from them.  The candidate next exponents r are the negated slopes of
the lower convex hull of the points (i, e_i/M), i = 0..n, that exceed
``last_r``: ``hasse.newton_edges`` walks the hull on the integers e_i over
M and stops at the first edge with r <= last_r.  The coefficient candidates
for an edge are the nonzero roots of the edge-restricted leading-coefficient
equation; a two-point edge {j, j+p^a} has the one root
(-b_j/b_(j+p^a))^(1/p^a), of multiplicity p^a and in w's field, a Frobenius
power of one quotient, so only the other edges need a root solve.

f has coefficients in F_p(t), so Frobenius sigma (c -> c^p on every
coefficient) maps roots of f to roots of f, and with d the degree of the
field that w's coefficients generate, sigma^d fixes w and permutes the roots
of each edge's equation (the rational Newton-Puiseux idea: Duval, Compositio
Math. 70, 1989; Poteaux & Rybowicz, AAECC 22, 2011).  The subtree of the
child w + sigma^s(zeta)*t^r is the sigma^s-image of the subtree of
w + zeta*t^r.  In fields with tables, where sigma is one lookup, only the
first root of each sigma^d-orbit gets Taylor data and is expanded; once the
frontier is empty each other member is built as the image of its
representative's finished subtree: conjugated coefficients, leading
coefficients and accumulation data, the same exponents, minima,
multiplicities and statuses, and children re-sorted as the engine sorts
them.  Contexts are canonical and embeddings deterministic, and sigma
commutes with both, so an image is the node that expanding it would give.
Edges through index 0 are exactly the valuation-raising "approximation
term" steps; edges avoiding index 0 are the tie branches that split off
roots diverging from w at r.  The hull census is sound and complete: the
children of a node of multiplicity mu account for exactly mu roots of f.

A simple root separates from the others after a few terms; from then on
its chain is in the Hensel regime, where each term is one linear step
(Kung & Traub, J. ACM 1978).  The multiplicity decides the regime: at a
node of multiplicity 1 with f(w) != 0, exactly one root of f(w + z) has
valuation above ``last_r``, so the only hull edge past ``last_r`` is
{0, 1} (ROADMAP item 12).  Such a node builds its one child
w - (c_0[e_0]/c_1[e_1])*t^r, r = (e_0 - e_1)/M, in w's own field, with no
walk, root solve or orbit split; O(n) integer comparisons check the
theorem's hypothesis, and a node outside it takes the walk, whose census
refuses it.

Expansion never continues past an accumulation of exponents: a prefix with
infinitely many terms below a finite bound has no exact finite carrier.
Instead, a stable two-line zigzag over the last steps of a chain is detected
and reported as the limit exponent, the line set tied there (the points on
the leaf's hull edge at that exponent), and the branch equation with its
solutions.  A chain of multiplicity 1 lies in F_q((t^(1/M))) and cannot
accumulate, so the detector closes only depth-limit leaves of multiplicity
2 or more.  It compares the integer minima over M of each window node and
its parent by cross-multiplication, each over its own M, and builds a
``Fraction`` only for a report.  For inputs that are not additive in X the
detector is an extrapolation and is labelled heuristic.  ``newton_edges``
is the only Newton-polygon query here; the tests check the index-0 steps
against a from-scratch oracle in ``tests/oracles.py`` that computes Taylor
data in ``RatFun`` arithmetic, the multiplicity-1 children against the walk
in ``tests/invariants.py``, and the detector against its ``Fraction`` and
``NewtonLine`` form in the oracles.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import ffield
from .ffield import FF, FieldCtx
from .hahn import HahnSeries, expands_at, prime_exponent
from .hasse import (INF, Poly, TaylorData, cleared_coefficients, is_additive, newton_edges,
                    taylor_shift)
# not called here: the engine's route to any w, which tests/oracles.py checks
# against RatFun arithmetic; perfbench/tracing.py wraps expand.taylor_at and
# expand.evaluate by name until ROADMAP item 3
from .hasse import evaluate, taylor_at  # noqa: F401

# chain steps over which the (term line, valuation line) pair must repeat
_STABLE_STEPS = 4


class AccumulationReport(namedtuple("AccumulationReport",
                                    "r_star J_star equation solutions ctx heuristic")):
    """Limit data for a chain whose exponents pile up below r_star: the
    tied lines J_star, the branch equation over ctx, its (zeta, expands)
    solutions and the heuristic flag; equal and hashed by value."""

    __slots__ = ()

    def conjugate(self, s: int) -> "AccumulationReport":
        """The report of the sigma^s-image chain: the equation and solutions
        conjugated, the solutions re-sorted as ``poly_roots`` orders them."""
        solutions = sorted(((z.frobenius(s), flag) for z, flag in self.solutions),
                           key=lambda sol: sol[0].sort_key())
        return self._replace(equation=tuple(c.frobenius(s) for c in self.equation),
                             solutions=tuple(solutions))


class BranchNode:
    """One node of the expansion tree: a truncation w plus its bookkeeping.

    ``minima`` holds (i, min(c_i)) for each nonzero Taylor coefficient c_i
    of f at w, over the exponent denominator ``M``, and ``leads`` the
    leading coefficient c_i[min(c_i)] by i; ``residual_valuation`` and
    ``residual_lead`` are read off them, and the Newton line of index
    i >= 1 is min(c_i)/M + i*r.  ``field_degree`` is
    the degree d over F_p of the field that f's and w's coefficients
    generate, so sigma^d fixes f and w; it is tracked while w lies in a field with tables and
    is None above them, where orbits are not shared.  Nodes hash by
    identity: ``_edge_children`` keys its live children by node.
    """

    __slots__ = ("w", "last_r", "multiplicity", "M", "minima", "leads", "status",
                 "step_zeta", "term_lines", "parent", "children", "accumulation",
                 "field_degree")

    def __init__(self, w: HahnSeries, last_r: Fraction | None, multiplicity: int, M: int = 1,
                 minima: list[tuple[int, int]] | None = None, leads: dict[int, FF] | None = None,
                 status: str = "live", step_zeta: FF | None = None,
                 term_lines: frozenset[int] = frozenset(), parent: "BranchNode | None" = None,
                 field_degree: int | None = 1):
        self.w = w
        self.last_r = last_r
        self.multiplicity = multiplicity
        self.M = M
        self.minima = [] if minima is None else minima
        self.leads = {} if leads is None else leads
        self.status = status
        self.step_zeta = step_zeta
        self.term_lines = term_lines
        self.parent = parent
        self.children: list[BranchNode] = []
        self.accumulation: AccumulationReport | None = None
        self.field_degree = field_degree

    @property
    def residual_valuation(self) -> Fraction | float:
        """v(f(w)) - v(f_n), the valuation of c_0 = D'*f(w)/f_n with v(D') = 0
        (see the module docstring); INF when f(w) = 0.  The CLI prints it
        under the label v(f(w)), which it is only when v(f_n) = 0 (ROADMAP
        item 18)."""
        if self.minima and self.minima[0][0] == 0:
            return Fraction(self.minima[0][1], self.M)
        return INF

    @property
    def residual_lead(self) -> FF | None:
        """The leading coefficient of f(w); None when f(w) = 0."""
        return self.leads.get(0)

    def chain(self) -> list["BranchNode"]:
        out: list[BranchNode] = []
        node: BranchNode | None = self
        while node is not None:
            out.append(node)
            node = node.parent
        out.reverse()
        return out

    def depth(self) -> int:
        return len(self.w.terms)


def _node(w: HahnSeries, data: TaylorData, **fields) -> BranchNode:
    """A node at w carrying the minima and leading coefficients of its Taylor
    data (M, [c_0, .., c_n]), read in one scan of the dicts."""
    M, cs = data
    minima = []
    leads = {}
    for i, c in enumerate(cs):
        if c:
            e = min(c)
            minima.append((i, e))
            leads[i] = c[e]
    return BranchNode(w=w, M=M, minima=minima, leads=leads, **fields)


def _tied_roots(ctx: FieldCtx, tied: dict[int, FF]) -> tuple[list[FF], ffield.RootsResult]:
    """The equation sum tied[i]*z^i, as an ascending coefficient list, and its roots."""
    equation = [ctx.zero] * (max(tied) + 1)
    for i, b in tied.items():
        equation[i] = b
    return equation, ffield.poly_roots(equation)


def _edge_roots(ctx: FieldCtx, lead: dict[int, FF], on_edge: tuple[int, ...]) -> ffield.RootsResult:
    """The roots of an edge's equation sum lead[i]*z^i, i in on_edge.

    A two-point edge {j, j+p^a} has the one nonzero root
    (-b_j/b_(j+p^a))^(1/p^a), of multiplicity p^a and in ctx, as
    ``poly_roots`` finds it, and it gets that root without the solve: the
    p^a-th root is the Frobenius power sigma^(-a mod k).  Every other edge
    goes through ``poly_roots``.
    """
    if len(on_edge) == 2:
        j, top = on_edge
        a = prime_exponent(top - j, ctx.p)
        if top - j == ctx.p ** a:
            zeta = (-lead[j] / lead[top]).frobenius(-a % ctx.k)
            return ffield.RootsResult(ctx, ctx.identity, ((zeta, top - j),))
    return _tied_roots(ctx, {i: lead[i] for i in on_edge})[1]


def _child_key(kid: BranchNode) -> tuple:
    # the exact-root leaf of a root w first, then the steps by r and coefficient
    if kid.step_zeta is None:
        return False, Fraction(0), ()
    return True, kid.last_r, kid.step_zeta.sort_key()


def _edge_children(node: BranchNode, data: TaylorData,
                   images: list[tuple[BranchNode, BranchNode, int]]) -> list[tuple[BranchNode, TaylorData]]:
    """All children of a node, including an exact-root leaf when f(w) = 0.

    ``data`` is the node's denominator-cleared Taylor data; each step
    child that represents its orbit gets its own by ``taylor_shift``.
    Returns the live representatives with their Taylor data, and appends
    each other orbit member to ``images`` as (member, representative, s).

    A node of multiplicity 1 with f(w) != 0 has the one child of
    ``_hensel_child``.  Any other node's children come from the hull edges
    past ``last_r``, which ``newton_edges`` walks on the node's integer
    minima.  Each step child w + zeta*t^r comes from a hull edge of level
    L = min(min_i (v(D^(i)f(w)) + i*r), v(f(w))), and zeta cancels the
    leading terms along that edge, so every step child has v(f(child)) > L.
    The inequality is strict over v(f(w)) exactly when the edge passes
    through index 0 (then L = v(f(w))); a tie edge avoids index 0, its level
    lies below v(f(w)), and its child may keep or lower v(f(w)).

    sigma^d, d the node's ``field_degree``, fixes w and the edge equation,
    so it permutes an edge's roots.  In a field with tables the roots fall
    into sigma^d-orbits: the first root of an orbit in ``poly_roots``' order
    is its representative, and the member sigma^s(zeta) is a stub built by
    ``_conjugate`` whose subtree ``_fill_image`` copies once the
    representative's is finished.
    """
    w, M, lead, last_r = node.w, node.M, node.leads, node.last_r
    order = node.minima[0][0]
    above = None if last_r is None else last_r.numerator * (M // last_r.denominator)
    if node.multiplicity == 1 and not order:
        s = _hensel_exponent(node.minima, above)
        if s is not None:
            return _hensel_child(node, data, Fraction(s, M))
    kids: list[BranchNode] = []
    live: dict[BranchNode, TaylorData] = {}
    if order > 0:
        kids.append(BranchNode(w=w, last_r=last_r, multiplicity=order, status="exact_root",
                               parent=node, field_degree=node.field_degree))
    for r, on_edge in newton_edges(node.minima, M, above):
        solved = _edge_roots(w.ctx, lead, on_edge)
        w_base, data_base = w, data
        if solved.ctx != w.ctx:
            emb = solved.embed
            w_base = w.embed(emb)
            data_base = M, [{e: emb(c) for e, c in d.items()} for d in data[1]]
        term_lines = frozenset(i for i in on_edge if i >= 1)
        d = node.field_degree if solved.ctx.has_tables else None
        seen: set[FF] = set()
        for zeta, mult in solved.roots:
            if not zeta or zeta in seen:
                continue
            kid_data = taylor_shift(data_base, zeta, r)
            kid = _node(
                w_base.append_term(r, zeta),
                kid_data,
                last_r=r,
                multiplicity=mult,
                step_zeta=zeta,
                term_lines=term_lines,
                parent=node,
                field_degree=None,
            )
            if kid.residual_lead is None:
                kid.status = "exact_root"
            else:
                live[kid] = kid_data
            kids.append(kid)
            if d is None:
                continue
            # the orbit zeta, sigma^d(zeta), ..: it closes at s = lcm(d, deg zeta)
            s, z = d, zeta.frobenius(d)
            members = []
            while z != zeta:
                members.append((z, s))
                s, z = s + d, z.frobenius(d)
            kid.field_degree = s
            for z, shift in members:
                seen.add(z)
                image = _conjugate(kid, shift, node)
                images.append((image, kid, shift))
                kids.append(image)
    total = sum(k.multiplicity for k in kids)
    if total != node.multiplicity:
        raise AssertionError(
            f"child multiplicities {total} fail to account for the node's {node.multiplicity}"
        )
    kids.sort(key=_child_key)
    node.children = kids
    return [(kid, live[kid]) for kid in kids if kid in live]


def _hensel_exponent(minima: list[tuple[int, int]], above: int | None) -> int | None:
    """s = e_0 - e_1 when the only hull edge past ``above`` = last_r*M is
    {0, 1}, else None.

    That holds exactly when s > above and every e_i, i >= 2, lies on or
    above the line of slope -above through (1, e_1): then each point i lies
    strictly above the edge {0, 1}, and the walk's step from index 1 reaches
    no r above ``last_r``.  At the root (``above`` None) a node of
    multiplicity 1 has deg f = 1, so there is no i >= 2.
    """
    if len(minima) < 2 or minima[1][0] != 1:
        return None
    e1 = minima[1][1]
    s = minima[0][1] - e1
    if above is not None and (s <= above or any(e < e1 - (i - 1) * above
                                                for i, e in minima[2:])):
        return None
    return s


_LINE_1 = frozenset({1})


def _hensel_child(node: BranchNode, data: TaylorData,
                  r: Fraction) -> list[tuple[BranchNode, TaylorData]]:
    """The one child w - (c_0[e_0]/c_1[e_1])*t^r of a node in the Hensel
    regime, with its Taylor data unless f(child) = 0.

    It is the child that the walk's one edge {0, 1} gives: one root of
    multiplicity 1 in w's field, which sigma^d fixes, so its orbit is
    trivial and its field degree is the node's.  r's denominator divides
    M, so ``taylor_shift`` keeps M.
    """
    w = node.w
    zeta = -node.leads[0] / node.leads[1]
    kid_data = taylor_shift(data, zeta, r)
    kid = _node(w.append_term(r, zeta), kid_data, last_r=r, multiplicity=1, step_zeta=zeta,
                term_lines=_LINE_1, parent=node,
                field_degree=node.field_degree if w.ctx.has_tables else None)
    node.children = [kid]
    if kid.residual_lead is None:
        kid.status = "exact_root"
        return []
    return [(kid, kid_data)]


def _conjugate(node: BranchNode, s: int, parent: BranchNode) -> BranchNode:
    """sigma^s of a node, without children, under ``parent``, the image of
    its parent (the parent itself where sigma^s fixes it): w is the parent image's w plus one conjugated term, or every
    term conjugated where the node's field is larger than its parent's; the
    leads and step coefficient are conjugated; M, minima, multiplicity,
    status and term lines are the node's own."""
    zeta = node.step_zeta
    if zeta is None:
        w = parent.w
    else:
        zeta = zeta.frobenius(s)
        if node.w.ctx == node.parent.w.ctx:
            w = parent.w.append_term(node.last_r, zeta)
        else:
            w = HahnSeries(node.w.ctx, tuple((e, c.frobenius(s)) for e, c in node.w.terms))
    return BranchNode(w=w, last_r=node.last_r, multiplicity=node.multiplicity, M=node.M,
                      minima=node.minima,
                      leads={i: c.frobenius(s) for i, c in node.leads.items()},
                      status=node.status, step_zeta=zeta, term_lines=node.term_lines,
                      parent=parent, field_degree=node.field_degree)


def _fill_image(image: BranchNode, rep: BranchNode, s: int) -> None:
    """Give an orbit member the sigma^s-image of its representative's
    finished subtree: statuses, accumulation reports and children, each
    node's children re-sorted as ``_edge_children`` sorts them."""
    stack = [(image, rep)]
    while stack:
        img, src = stack.pop()
        img.status = src.status
        if src.accumulation is not None:
            img.accumulation = src.accumulation.conjugate(s)
        kids = [_conjugate(kid, s, img) for kid in src.children]
        stack.extend(zip(kids, src.children))
        kids.sort(key=_child_key)
        img.children = kids


class ExpansionTree(namedtuple("ExpansionTree", "f depth root")):
    """The expansion of f to a depth: the root node w = 0 and its subtree."""

    __slots__ = ()

    def leaves(self) -> list[BranchNode]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children)
            else:
                out.append(node)
        return out


def expand_roots(f: Poly, depth: int) -> ExpansionTree:
    """Breadth-limited expansion tree of all roots of f starting from w = 0.

    Every leaf is an exact root, an accumulation report, or a budget cut;
    leaf multiplicities sum to deg f.
    """
    if depth < 1:
        raise ValueError("expansion depth must be at least 1")
    if f.is_zero() or f.degree < 1:
        raise ValueError("expansion requires a polynomial of degree >= 1")
    data, _ = cleared_coefficients(f)
    # sigma^k fixes f's coefficients, k = 1 for the parser's F_p(t)
    root = _node(HahnSeries.zero(f.ctx), data, last_r=None, multiplicity=f.degree,
                 field_degree=f.ctx.k)
    tree = ExpansionTree(f, depth, root)
    # a node's Taylor data lives only on the frontier, until its children exist
    frontier = [(root, data)]
    images: list[tuple[BranchNode, BranchNode, int]] = []
    while frontier:
        node, data = frontier.pop()
        if node.depth() >= depth:
            _close_out(f, node)
            continue
        frontier.extend(_edge_children(node, data, images))
    # an image may lie in the subtree of the representative of one recorded
    # before it, never of one recorded after it, so the last is filled first
    for image, rep, s in reversed(images):
        _fill_image(image, rep, s)
    return tree


def _close_out(f: Poly, node: BranchNode) -> None:
    # a chain of multiplicity 1 lies in F_q((t^(1/M))) (ROADMAP item 12), so
    # its exponents cannot accumulate
    report = accumulation_analysis(f, node.chain()) if node.multiplicity >= 2 else None
    if report is None:
        node.status = "budget_exhausted"
    else:
        node.status = "accumulating"
        node.accumulation = report


def accumulation_analysis(f: Poly, chain: list[BranchNode]) -> AccumulationReport | None:
    """Detect a two-line zigzag limit at the end of a chain.

    The last steps must use one fixed term line l (a singleton edge) while
    the residual valuation lands on one fixed other line m, with both lines'
    data unchanged; the limit is then the exact intersection of the two
    lines, approached monotonically from below.  Returns None if no such
    stable cycle exists.  The window's exponents ascend strictly by
    construction: ``_edge_children`` asks ``newton_edges`` only for edges
    above ``last_r``, so each step's r exceeds its parent's, and only their
    bound by the limit is tested.

    The lines are those of the parents' minima: line i of a node is
    e_i/M + i*r.  Every test is an integer cross-multiplication of the
    minima over each node's own M, so only a report builds a ``Fraction``.
    """
    steps = [n for n in chain if n.parent is not None and n.step_zeta is not None]
    if len(steps) < _STABLE_STEPS:
        return None
    window = steps[-_STABLE_STEPS:]
    ref = None
    for node in window:
        parent = node.parent
        if len(node.term_lines) != 1 or node.minima[0][0]:
            return None
        (ell,) = node.term_lines
        rn, rd, Mp = node.last_r.numerator, node.last_r.denominator, parent.M
        # line i at r = rn/rd meets v(f(node)) = e_0/M: (e_i*rd + i*rn*Mp)*M == e_0*Mp*rd
        v = node.minima[0][1] * Mp * rd
        matches = [i for i, e in parent.minima
                   if i and i != ell and (e * rd + i * rn * Mp) * node.M == v]
        if len(matches) != 1:
            return None
        m = matches[0]
        e = dict(parent.minima)
        key = ell, m, parent.leads[ell], parent.leads[m]
        if ref is None:
            ref, M0, e_l, e_m = key, Mp, e[ell], e[m]
        elif key != ref or e[ell] * M0 != e_l * Mp or e[m] * M0 != e_m * Mp:
            return None
    ell, m, b_l, b_m = ref
    # r_star = (rho_m - rho_l)/(l - m) = num/den, den > 0
    num, den = e_m - e_l, M0 * (ell - m)
    if den < 0:
        num, den = -num, -den
    if any(n.last_r.numerator * den >= num * n.last_r.denominator for n in window):
        return None

    leaf = chain[-1]
    # the lines tied at r_star are those of least e_i/ML + i*r_star, scaled
    # by ML*den; two or more tie exactly on the leaf's hull edge at r_star
    e, ML = dict(leaf.minima), leaf.M
    at_r = {i: x * den + i * num * ML for i, x in e.items() if i}
    low = min(at_r.values(), default=None)
    J_star = frozenset(i for i, x in at_r.items() if x == low)
    if (not {ell, m} <= J_star or e[ell] * M0 != e_l * ML or e[m] * M0 != e_m * ML
            or leaf.leads[ell] != b_l or leaf.leads[m] != b_m):
        return None
    equation, solved = _tied_roots(leaf.w.ctx, {j: leaf.leads[j] for j in J_star})
    prefix = [c for _, c in leaf.w.terms]
    solutions = tuple(
        (zeta, expands_at(prefix, zeta)) for zeta, _ in solved.roots
    )
    return AccumulationReport(
        r_star=Fraction(num, den),
        J_star=J_star,
        equation=tuple(equation),
        solutions=solutions,
        ctx=solved.ctx,
        heuristic=not is_additive(f),
    )
