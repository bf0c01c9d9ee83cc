"""Independent oracles the tests check the kernel against.

None of this runs in a request.  Each function was a method or function of
the module named in its section, moved here with its body unchanged (a
method became a function that takes the object first):

- ``add`` sums two coefficient lists in the plain loop that was the short
  path of ``intpoly.add``, where the kernel adds only inside ``dot``'s
  sums of products;
- ``approximation_terms`` finds a node's valuation-raising steps from
  scratch (``taylor_at``), where the engine shifts Taylor data;
- ``NewtonLine``, a namedtuple (i, rho, b) with ``gamma(r) = rho + i*r``,
  was ``hasse``'s; only these oracles build Newton lines as objects;
- ``node_lines`` builds a node's Newton lines as ``NewtonLine``s with
  ``Fraction`` offsets, and ``reference_accumulation_analysis`` detects a
  zigzag limit by comparing them, where ``expand`` cross-multiplies the
  integer minima over each node's M;
- ``taylor_at`` and ``evaluate`` compute Taylor data and values from
  scratch in ``RatFun`` arithmetic, with Lucas' binomials
  (``binom_mod_p``) and cached powers of the point, at a finite series
  (through ``to_ratfun``) or at a rational function, where ``hasse``
  shifts the engine's cleared coefficients by each term of a series;
- ``ratfun_pow`` raises a ``RatFun`` to a power digit by digit in base p,
  with Frobenius steps, and ``ratfun_embed`` moves it through a field
  embedding; that route alone needs them;
- ``hasse_derivative``, ``newton_data`` and ``gamma_J`` give Taylor data,
  Newton lines and tied lines by definition, where the engine reads them
  off ``taylor_shift``'s carriers and ``newton_edges``;
- the ``Poly`` arithmetic rebuilds f from its Taylor data and divides the
  dense companion ``to_poly(P)`` by f, and ``monic`` gives f/f_n, whose
  Taylor data have the leading terms the engine reads off its own;
- ``from_ratfun``, ``laurent_terms`` and ``t_power`` convert between
  series, rational functions and monomials, and ``leading_term`` reads a
  rational function's initial term;
- ``frobenius_residue`` reduces the p-th power of a residue mod g one
  row at a time, from the top, where ``ore`` sums stretched entries times
  one table of X^(jp) mod g;
- ``cramer_kernel`` back-substitutes from the last pivot, a kernel entry
  by Cramer's rule, and ``cramer_addpol`` divides that vector by its
  content, where ``ore`` starts from 1 at the free column and needs no gcd;
- ``divided_sides`` divides a stretched lc by lc for every a_i and
  normalises each a_i by its denominator's lowest term, where ``ore``
  builds one chain of lc powers and reads that term off the kernel;
- ``ratfun_coeffs`` builds each a_i as a ``RatFun``, which reduces it, and
  ``ratfun_rendering`` prints those, sign-folded by ``RatFun`` negation,
  where ``ore`` and ``cli`` reduce and print the int sides;
- ``ramifies_at`` is the paper's ramification predicate on a support;
- ``reference_parse`` is the parser that built a ``RatFun`` per monomial
  and summed them in ``RatFun`` arithmetic, where ``cli`` sums int dicts.

Scripts put ``tests/`` on ``sys.path`` to import it; pytest does so for
the test modules.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from hahnroot import intpoly
from hahnroot.cli import _X_DEGREE_LIMIT, ParseError, _terms_text
from hahnroot.expand import (_STABLE_STEPS, AccumulationReport, BranchNode, ExpansionTree,
                             _tied_roots)
from hahnroot.ffield import FF, Embedding, FieldCtx, field_ctx, find_embedding, sparse_mul
from hahnroot.hahn import HahnSeries, expands_at, prime_exponent
from hahnroot.hasse import INF, Poly, is_additive, newton_edges
from hahnroot.ore import AdditivePolynomial, _echelon, _sides, _stretch, _strip_content
from hahnroot.ratfun import RatFun, to_text


# ---------------------------------------------------------------------------
# intpoly


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return intpoly.trim(out)


# ---------------------------------------------------------------------------
# expand


class AlreadyRootError(ValueError):
    """Raised when next-term candidates are requested at an exact root."""


class NewtonLine(namedtuple("NewtonLine", "i rho b")):
    """gamma(r) = rho + i*r for the index-i term, with leading coefficient b;
    equal and hashed by value."""

    __slots__ = ()

    def gamma(self, r) -> Fraction | float:
        if r == INF:
            return INF
        return self.rho + self.i * Fraction(r)


def approximation_terms(f: Poly, w: HahnSeries) -> list[tuple[Fraction, FF, int]]:
    """All (r, zeta, multiplicity) making w + zeta*t^r a valuation-raising step.

    r is pinned by requiring the minimum of the lines at r to equal v(f(w)),
    and zeta runs over the nonzero roots of the tied-line cancellation
    equation.  Empty when the forced r does not extend w's support.
    """
    coeffs = taylor_at(f, w)
    if coeffs[0].is_zero():
        raise AlreadyRootError("w is already an exact root; no terms to add")
    lines = newton_data(coeffs)
    if not lines:
        return []
    vfw, b = leading_term(coeffs[0])
    r = max(Fraction(vfw - line.rho, line.i) for line in lines)
    if w.terms and r <= w.terms[-1][0]:
        return []
    _, J = gamma_J(lines, r)
    _, solved = _tied_roots(w.ctx, {0: b} | {line.i: line.b for line in lines if line.i in J})
    return [(r, zeta, mult) for zeta, mult in solved.roots if zeta]


def node_lines(node: BranchNode) -> tuple[NewtonLine, ...]:
    """The Newton lines v(c_i) + i*r of a node's nonzero c_i with i >= 1."""
    M, leads = node.M, node.leads
    return tuple(NewtonLine(i, Fraction(e, M), leads[i]) for i, e in node.minima if i)


def reference_accumulation_analysis(f: Poly, chain: list[BranchNode]) -> AccumulationReport | None:
    """Detect a two-line zigzag limit at the end of a chain.

    The last steps must use one fixed term line l (a singleton edge) while
    the residual valuation lands on one fixed other line m, with both lines'
    data unchanged; the limit is then the exact intersection of the two
    lines, approached monotonically from below.  Returns None if no such
    stable cycle exists.
    """
    steps = [n for n in chain if n.parent is not None and n.step_zeta is not None]
    if len(steps) < _STABLE_STEPS:
        return None
    window = steps[-_STABLE_STEPS:]
    pairs = []
    for node in window:
        parent = node.parent
        assert parent is not None
        if len(node.term_lines) != 1:
            return None
        (ell,) = node.term_lines
        if node.residual_valuation == INF:
            return None
        matches = {
            line.i
            for line in node_lines(parent)
            if line.i != ell and line.gamma(node.last_r) == node.residual_valuation
        }
        if len(matches) != 1:
            return None
        (m,) = matches
        line_map = {line.i: line for line in node_lines(parent)}
        pairs.append((ell, m, line_map[ell], line_map[m]))
    ref = pairs[0]
    if any(p[:2] != ref[:2] for p in pairs):
        return None
    ell, m = ref[0], ref[1]
    if any(p[2] != ref[2] or p[3] != ref[3] for p in pairs):
        return None
    line_l, line_m = ref[2], ref[3]
    r_star = Fraction(line_m.rho - line_l.rho, line_l.i - line_m.i)
    exponents = [n.last_r for n in window]
    if any(b <= a for a, b in zip(exponents, exponents[1:])):
        return None
    if any(e >= r_star for e in exponents):
        return None

    leaf = chain[-1]
    # the lines tied at r_star are the points on the leaf's hull edge of
    # negated slope r_star; with no such edge one line alone is minimal there
    edges = newton_edges([(i, e) for i, e in leaf.minima if i], leaf.M)
    J_star = next((frozenset(xs) for r, xs in edges if r == r_star), None)
    if J_star is None or not {ell, m} <= J_star:
        return None
    by_index = {line.i: line for line in node_lines(leaf)}
    if by_index[ell] != line_l or by_index[m] != line_m:
        return None
    equation, solved = _tied_roots(leaf.w.ctx, {j: by_index[j].b for j in J_star})
    prefix = [c for _, c in leaf.w.terms]
    solutions = tuple(
        (zeta, expands_at(prefix, zeta)) for zeta, _ in solved.roots
    )
    return AccumulationReport(
        r_star=r_star,
        J_star=J_star,
        equation=tuple(equation),
        solutions=solutions,
        ctx=solved.ctx,
        heuristic=not is_additive(f),
    )


def edges(tree: ExpansionTree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for kid in node.children:
            yield node, kid
            stack.append(kid)


# ---------------------------------------------------------------------------
# hasse


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' digit product (for taylor_at)."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        out = (out * math.comb(nd, kd)) % p
    return out


def _as_ratfun(w) -> RatFun:
    # for taylor_at and evaluate
    if isinstance(w, HahnSeries):
        return to_ratfun(w)
    if isinstance(w, RatFun):
        return w
    raise TypeError(f"cannot evaluate at {type(w).__name__}")


def _lift_poly(f: Poly, ctx: FieldCtx, M: int) -> list[RatFun]:
    """Re-express f's coefficients over the target context and exponent group
    (for taylor_at and evaluate)."""
    out = []
    emb = None
    for c in f.coeffs:
        if c.ctx != ctx:
            if emb is None:
                emb = find_embedding(c.ctx, ctx)
            c = ratfun_embed(c, emb)
        out.append(c.rebase(math.lcm(c.M, M)))
    return out


class _LazyPowers:
    """Powers of a fixed point, computed on demand via base-p decomposition
    (for taylor_at and evaluate)."""

    def __init__(self, x: RatFun):
        self.x = x
        self.cache = {0: RatFun.one(x.ctx, x.M), 1: x}

    def __getitem__(self, e: int) -> RatFun:
        got = self.cache.get(e)
        if got is None:
            got = ratfun_pow(self.x, e)
            self.cache[e] = got
        return got


def taylor_at(f: Poly, w) -> list[RatFun]:
    """[c_0, .., c_n] with f(X) = sum c_k (X - w)^k; c_k is the k-th Hasse
    derivative of f at w.  Exact."""
    if f.is_zero():
        raise ValueError("no Taylor data for the zero polynomial")
    x = _as_ratfun(w)
    coeffs = _lift_poly(f, x.ctx, x.M)
    n = len(coeffs) - 1
    p = x.ctx.p
    powers = _LazyPowers(x)
    out = []
    for k in range(n + 1):
        acc = RatFun.zero(x.ctx, x.M)
        for i in range(k, n + 1):
            b = binom_mod_p(i, k, p)
            if b and not coeffs[i].is_zero():
                acc = acc + coeffs[i].scale(x.ctx.from_int(b)) * powers[i - k]
        out.append(acc)
    return out


def evaluate(f: Poly, w) -> RatFun:
    """f(w), exactly, for a finite exact series or rational-function point."""
    x = _as_ratfun(w)
    if f.is_zero():
        return RatFun.zero(x.ctx, x.M)
    coeffs = _lift_poly(f, x.ctx, x.M)
    powers = _LazyPowers(x)
    acc = RatFun.zero(x.ctx, x.M)
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            acc = acc + c * powers[i]
    return acc


def hasse_derivative(f: Poly, k: int) -> Poly:
    """The k-th divided-power derivative: coefficient j becomes C(j+k, k) a_{j+k}."""
    if k == 0:
        return f
    if f.is_zero() or k > f.degree:
        return Poly(())
    p = f.ctx.p
    out = []
    for j in range(f.degree - k + 1):
        b = binom_mod_p(j + k, k, p)
        c = f.coeffs[j + k]
        out.append(c.scale(c.ctx.from_int(b)))
    return Poly.make(out)


def newton_data(coeffs: list[RatFun]) -> tuple[NewtonLine, ...]:
    """One line per index i >= 1 with a nonzero Taylor coefficient c_i.

    ``coeffs`` is Taylor data [c_0, .., c_n] as returned by ``taylor_at``.
    """
    return tuple(
        NewtonLine(i, *leading_term(c)) for i, c in enumerate(coeffs) if i >= 1 and not c.is_zero()
    )


def gamma_J(lines, r) -> tuple[Fraction | float, frozenset[int]]:
    """The minimum of the lines at r and the set of indices attaining it."""
    lines = tuple(lines)
    if not lines:
        raise ValueError("no lines to minimise over")
    if r == INF:
        return INF, frozenset(line.i for line in lines)
    values = [(line.gamma(r), line.i) for line in lines]
    low = min(v for v, _ in values)
    return low, frozenset(i for v, i in values if v == low)


def monic(f: Poly) -> Poly:
    if f.is_zero():
        raise ValueError("cannot normalise the zero polynomial")
    lead = f.coeffs[-1]
    if lead == RatFun.one(lead.ctx, lead.M):
        return f
    return Poly.make([c / lead for c in f.coeffs])


def from_int_coeffs(ctx: FieldCtx, ints) -> Poly:
    return Poly.make([RatFun.from_int(ctx, n) for n in ints])


def poly_add(f: Poly, other: Poly) -> Poly:
    if f.is_zero():
        return other
    if other.is_zero():
        return f
    n = max(len(f.coeffs), len(other.coeffs))
    ctx = f.ctx
    out = []
    for i in range(n):
        a = f.coeffs[i] if i < len(f.coeffs) else RatFun.zero(ctx)
        b = other.coeffs[i] if i < len(other.coeffs) else RatFun.zero(ctx)
        out.append(a + b)
    return Poly.make(out)


def poly_neg(f: Poly) -> Poly:
    return Poly(tuple(-c for c in f.coeffs))


def poly_sub(f: Poly, other: Poly) -> Poly:
    return poly_add(f, poly_neg(other))


def poly_mul(f: Poly, other: Poly) -> Poly:
    if f.is_zero() or other.is_zero():
        return Poly(())
    ctx = f.ctx
    out = [RatFun.zero(ctx) for _ in range(len(f.coeffs) + len(other.coeffs) - 1)]
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(other.coeffs):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return Poly.make(out)


def poly_scale(f: Poly, c: RatFun) -> Poly:
    return Poly.make([a * c for a in f.coeffs])


def poly_divmod(f: Poly, other: Poly) -> tuple[Poly, Poly]:
    if other.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    db = other.degree
    inv = other.coeffs[-1].inverse()
    q = [RatFun.zero(other.ctx)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if not rem[i].is_zero():
            factor = rem[i] * inv
            q[i - db] = factor
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] = rem[i - db + j] - factor * b
    return Poly.make(q), Poly.make(rem)


# ---------------------------------------------------------------------------
# ore


def to_poly(P: AdditivePolynomial) -> Poly:
    """The same element of F_p(t)[X], dense in X."""
    ctx = P.ctx
    top = P.p ** max(P.coeffs)
    out = [RatFun.zero(ctx) for _ in range(top + 1)]
    for i, a in P.coeffs.items():
        out[P.p**i] = a
    return Poly.make(out)


def frobenius_residue(vec: list[list[int]], g: list[list[int]], p: int) -> list[list[int]]:
    # map sum_j vec_j X^j to its p-th power and reduce mod the monic g
    n = len(g) - 1
    top = (len(vec) - 1) * p
    out: list[list[int]] = [[] for _ in range(top + 1)]
    for j, entry in enumerate(vec):
        if entry:
            out[j * p] = _stretch(entry, p)
    for m in range(top, n - 1, -1):
        c = out[m]
        if c:
            out[m] = []
            for j in range(n):
                if g[j]:
                    out[m - n + j] = intpoly.sub(out[m - n + j], intpoly.mul(c, g[j], p), p)
    return out[:n] + [[] for _ in range(n - len(out))]


def cramer_kernel(matrix: list[list[list[int]]], divisors: list[intpoly.Divisor | None],
                  free: int, p: int) -> list[list[int]]:
    # kernel vector for the free column c, by exact back-substitution.  Row
    # i's pivot is the leading (i+1)-minor (Bareiss), so by Cramer the last
    # pivot, in row c-1, is a kernel entry at c that makes every other entry
    # a polynomial
    prev = divisors[free - 1] if free else None
    kernel: list[list[int]] = [[] for _ in range(len(matrix) + 1)]
    kernel[free] = prev.b if prev else [1]
    for row in range(free - 1, -1, -1):
        acc: list[int] = []
        for col in range(row + 1, free + 1):
            if matrix[row][col] and kernel[col]:
                acc = add(acc, intpoly.mul(matrix[row][col], kernel[col], p), p)
        acc = intpoly.neg(acc, p)
        kernel[row] = divisors[row].divexact_all([acc])[0] if divisors[row] else acc
    return kernel


def cramer_addpol(f: Poly) -> AdditivePolynomial:
    """``ore.addpol`` with its kernel taken by Cramer's scale and divided by
    its content, a gcd over entries thousands of terms long."""
    p, lc, shifts, matrix, divisors, free = _echelon(f)
    # the ray is all that matters
    kernel = _strip_content(cramer_kernel(matrix, divisors, free, p), p)
    return AdditivePolynomial(p, _sides(kernel, shifts, lc, p))


def divided_sides(kernel: list[list[int]], shifts: list[int], lc: list[int], p: int) -> dict:
    # undo the monic model (a_i picks up lc^(p^i)) and the t-power strips,
    # normalise the highest nonzero coefficient to 1, then divide both sides
    # by the denominator's lowest term
    supported = [i for i in range(len(kernel)) if kernel[i]]
    top_i = max(supported)
    sides = {}
    for i in supported:
        delta = shifts[top_i] - shifts[i]
        # lc^(p^top) / lc^(p^i) = (lc^(p^(top-i) - 1))^(p^i), folded into the
        # denominator; the division is by lc itself, not by its p^i-th power
        lc_pow = _stretch(intpoly.divexact(_stretch(lc, p**(top_i - i)), lc, p), p**i)
        den_poly = intpoly.mul(kernel[top_i], lc_pow, p)
        e0 = next(e for e, c in enumerate(den_poly) if c)
        inv = pow(den_poly[e0], p - 2, p)
        sides[i] = ({e + delta - e0: c * inv % p for e, c in enumerate(kernel[i]) if c},
                    {e - e0: c * inv % p for e, c in enumerate(den_poly) if c})
    return sides


def ratfun_coeffs(P: AdditivePolynomial) -> dict[int, RatFun]:
    """Each a_i as a ``RatFun``, reduced by its constructor."""
    ctx = P.ctx
    return {i: RatFun(ctx, 1, {e: ctx.from_int(c) for e, c in num.items()},
                      {e: ctx.from_int(c) for e, c in den.items()})
            for i, (num, den) in P.sides.items()}


def _fold_sign(c: RatFun) -> tuple[bool, RatFun]:
    # render prime-field coefficients in the symmetric range: 2 mod 3 prints as -1
    p = c.ctx.p
    if p == 2 or c.is_zero() or c.ctx.k != 1:
        return False, c
    lead = c.num[max(c.num)]
    if lead.coeffs[0] > p // 2:
        return True, -c
    return False, c


def _signed_text(c: RatFun) -> tuple[bool, str]:
    """(False, text of c), or (True, text of -c) when c prints as -(-c)."""
    neg, cc = _fold_sign(c)
    return neg, to_text(cc)


def ratfun_rendering(P: AdditivePolynomial) -> tuple[str, dict[str, str]]:
    """The "text" and "coeffs" of ``addpol``'s JSON, printed from
    ``ratfun_coeffs(P)``."""
    coeffs = ratfun_coeffs(P)
    signed = {i: _signed_text(a) for i, a in coeffs.items() if not a.is_zero()}
    text = _terms_text((P.p**i, signed[i]) for i in sorted(signed, reverse=True))
    return text, {str(i): to_text(coeffs[i]) if neg else body
                  for i, (neg, body) in sorted(signed.items())}


# ---------------------------------------------------------------------------
# hahn


def ramifies_at(support: list[Fraction], r: Fraction, q: int) -> bool:
    """Does the prime q ramify at r given the prior support?

    Requires r = a/(b*q^K) with K >= 1 and a, b coprime to q, while every
    earlier support element carries q in its denominator to a power < K.
    """
    r = Fraction(r)
    K = prime_exponent(r.denominator, q)
    if K < 1:
        return False
    return all(prime_exponent(Fraction(s).denominator, q) < K for s in support if s < r)


def to_ratfun(x: HahnSeries, M: int | None = None) -> RatFun:
    """The finite series as an element of F_{p^k}(u)."""
    need = math.lcm(1, *(e.denominator for e, _ in x.terms))
    if M is None:
        M = need
    elif M % need:
        raise ValueError(f"exponents of the series do not live in (1/{M})Z")
    num = {int(e * M): c for e, c in x.terms}
    return RatFun(x.ctx, M, num, {0: x.ctx.one})


def from_ratfun(a: RatFun) -> HahnSeries:
    """Exact conversion back; defined when a is a Laurent polynomial in u."""
    if a.den != {0: a.ctx.one}:
        raise ValueError("element is not a finite series")
    return HahnSeries.from_terms(a.ctx, [(Fraction(e, a.M), c) for e, c in a.num.items()])


# ---------------------------------------------------------------------------
# ratfun


def _sp_frobenius(a: dict[int, FF], p: int) -> dict[int, FF]:
    # (sum c u^e)^p = sum c^p u^(e*p) in characteristic p
    return {e * p: c.frobenius() for e, c in a.items()}


def _sp_pow(a: dict[int, FF], e: int, ctx: FieldCtx) -> dict[int, FF]:
    """a**e, decomposing e in base p so Frobenius steps stay sparse."""
    if e < 0:
        raise ValueError("negative exponent on a sparse carrier")
    if e == 0:
        return {0: ctx.one}
    result: dict[int, FF] | None = None
    base = a
    while e:
        e, digit = divmod(e, ctx.p)
        if digit:
            piece = base
            for _ in range(digit - 1):
                piece = sparse_mul(piece, base)
            result = piece if result is None else sparse_mul(result, piece)
        if e:
            base = _sp_frobenius(base, ctx.p)
    assert result is not None
    return result


def ratfun_pow(a: RatFun, e: int) -> RatFun:
    """a**e, which was ``RatFun.__pow__``."""
    if e < 0:
        return ratfun_pow(a.inverse(), -e)
    return RatFun(a.ctx, a.M, _sp_pow(a.num, e, a.ctx),
                  _sp_pow(a.den, e, a.ctx))


def ratfun_embed(a: RatFun, embedding: Embedding) -> RatFun:
    """Move every coefficient through a field embedding."""
    return RatFun(embedding.dst, a.M,
                  {e: embedding(c) for e, c in a.num.items()},
                  {e: embedding(c) for e, c in a.den.items()})


def t_power(ctx: FieldCtx, exponent: Fraction | int, M: int | None = None) -> RatFun:
    """The monomial t^exponent, choosing M from the exponent if omitted."""
    exponent = Fraction(exponent)
    if M is None:
        M = exponent.denominator
    e = exponent * M
    if e.denominator != 1:
        raise ValueError(f"exponent {exponent} does not live in (1/{M})Z")
    return RatFun(ctx, M, {int(e): ctx.one}, {0: ctx.one})


def leading_term(a: RatFun) -> tuple[Fraction, FF]:
    """(v, c) with c*t^v the initial term of a; a - c*t^v has valuation > v."""
    if not a.num:
        raise ZeroDivisionError("the zero element has infinite valuation")
    e = min(a.num)
    return Fraction(e, a.M), a.num[e]


def laurent_terms(a: RatFun, count: int) -> list[tuple[Fraction, FF]]:
    """The first `count` terms of the Laurent expansion of a, exactly.

    Long division against the (normalised) denominator: each emitted term is
    final because the denominator starts with 1*u^0.
    """
    rem = dict(a.num)
    out: list[tuple[Fraction, FF]] = []
    while rem and len(out) < count:
        e = min(rem)
        c = rem[e]
        out.append((Fraction(e, a.M), c))
        for de, dc in a.den.items():
            ee = e + de
            s = rem.get(ee)
            prod = c * dc
            s = -prod if s is None else s - prod
            if s:
                rem[ee] = s
            else:
                rem.pop(ee, None)
    return out


# ---------------------------------------------------------------------------
# cli


_TOKEN = re.compile(r"\s*(\d+|[Xt^*/+()-])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                bad = len(text) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, ctx: FieldCtx):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.length = len(text)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.length

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    # polynomial := [sign] term (sign term)*
    def parse_poly(self) -> Poly:
        coeffs: dict[int, RatFun] = {}
        sign = 1
        if self.peek() in {"+", "-"}:
            sign = -1 if self.take() == "-" else 1
        while True:
            exp, coeff = self.parse_term()
            if sign < 0:
                coeff = -coeff
            coeffs[exp] = coeffs.get(exp, RatFun.zero(self.ctx)) + coeff
            nxt = self.peek()
            if nxt is None:
                break
            if nxt not in {"+", "-"}:
                raise ParseError(f"expected '+' or '-', found {nxt!r}", self.pos())
            sign = -1 if self.take() == "-" else 1
        top = max(coeffs)
        return Poly.make([coeffs.get(i, RatFun.zero(self.ctx)) for i in range(top + 1)])

    # term := [coeff ['*']] 'X' ['^' nat] | coeff
    def parse_term(self) -> tuple[int, RatFun]:
        coeff = None
        if self.peek() in {"(", "t"} or (self.peek() or "").isdigit():
            coeff = self.parse_ratfun()
            if self.peek() == "*":
                self.take()
        if self.peek() == "X":
            self.take()
            exp = 1
            if self.peek() == "^":
                self.take()
                exp_pos = self.pos()
                exp = self.parse_nat()
                if exp > _X_DEGREE_LIMIT:
                    raise ParseError(
                        f"X-exponent {exp} is above the limit {_X_DEGREE_LIMIT}", exp_pos
                    )
            return exp, coeff if coeff is not None else RatFun.one(self.ctx)
        if coeff is None:
            raise ParseError("expected a coefficient or 'X'", self.pos())
        return 0, coeff

    # ratfun := tfactor ['/' tfactor]
    def parse_ratfun(self) -> RatFun:
        num = self.parse_tfactor()
        if self.peek() == "/":
            slash_pos = self.pos()
            self.take()
            den = self.parse_tfactor()
            if den.is_zero():
                raise ParseError("division by the zero polynomial", slash_pos)
            return num / den
        return num

    # tfactor := '(' tpoly ')' | tmonomial
    def parse_tfactor(self) -> RatFun:
        if self.peek() == "(":
            self.take()
            value = self.parse_tpoly()
            self.expect(")")
            return value
        return self.parse_tmonomial()

    # tpoly := [sign] tmonomial (sign tmonomial)*
    def parse_tpoly(self) -> RatFun:
        sign = 1
        if self.peek() in {"+", "-"}:
            sign = -1 if self.take() == "-" else 1
        acc = RatFun.zero(self.ctx)
        while True:
            mono = self.parse_tmonomial()
            acc = acc + (-mono if sign < 0 else mono)
            if self.peek() not in {"+", "-"}:
                return acc
            sign = -1 if self.take() == "-" else 1

    # tmonomial := int ['*'] ['t' ['^' nat]] | 't' ['^' nat]
    def parse_tmonomial(self) -> RatFun:
        n = None
        tok = self.peek()
        if tok is not None and tok.isdigit():
            n = int(self.take())
            if self.peek() == "*":
                self.take()
        if self.peek() == "t":
            self.take()
            e = 1
            if self.peek() == "^":
                self.take()
                e = self.parse_nat()
            value = RatFun.from_t_coeffs(self.ctx, {e: 1})
            return value if n is None else value.scale(self.ctx.from_int(n))
        if n is None:
            raise ParseError("expected an integer or 't'", self.pos())
        return RatFun.from_int(self.ctx, n)

    def parse_nat(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ParseError("expected a natural number", self.pos())
        return int(self.take())


def reference_parse(text: str, p: int) -> Poly:
    """``cli.parse_polynomial`` through the reference parser."""
    parser = _Parser(text, field_ctx(p))
    if not parser.tokens:
        raise ParseError("empty polynomial", 0)
    poly = parser.parse_poly()
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.pos())
    return poly
