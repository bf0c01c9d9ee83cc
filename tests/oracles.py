"""Independent oracles the tests check the kernel against.

None of this runs in a request.  Each function was a method or function of
the module named in its section, moved here with its body unchanged (a
method became a function that takes the object first):

- ``approximation_terms`` finds a node's valuation-raising steps from
  scratch (``taylor_at``), where the engine shifts Taylor data;
- ``hasse_derivative``, ``newton_data`` and ``gamma_J`` give Taylor data,
  Newton lines and tied lines by definition, where the engine reads them
  off ``taylor_shift``'s carriers and ``newton_edges``;
- the ``Poly`` arithmetic rebuilds f from its Taylor data and divides the
  dense companion ``to_poly(P)`` by f, and ``monic`` gives f/f_n, whose
  Taylor data have the leading terms the engine reads off its own;
- ``from_ratfun``, ``laurent_terms`` and ``t_power`` convert between
  series, rational functions and monomials, and ``leading_term`` reads a
  rational function's initial term;
- ``ramifies_at`` is the paper's ramification predicate on a support;
- ``reference_parse`` is the parser that built a ``RatFun`` per monomial
  and summed them in ``RatFun`` arithmetic, where ``cli`` sums int dicts.

Scripts put ``tests/`` on ``sys.path`` to import it; pytest does so for
the test modules.
"""

from __future__ import annotations

import re
from fractions import Fraction

from hahnroot.cli import _X_DEGREE_LIMIT, ParseError
from hahnroot.expand import ExpansionTree, _tied_roots
from hahnroot.ffield import FF, FieldCtx, field_ctx
from hahnroot.hahn import HahnSeries, prime_exponent
from hahnroot.hasse import INF, NewtonLine, Poly, binom_mod_p, taylor_at
from hahnroot.ore import AdditivePolynomial
from hahnroot.ratfun import RatFun


# ---------------------------------------------------------------------------
# expand


class AlreadyRootError(ValueError):
    """Raised when next-term candidates are requested at an exact root."""


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


def edges(tree: ExpansionTree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for kid in node.children:
            yield node, kid
            stack.append(kid)


# ---------------------------------------------------------------------------
# hasse


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


def from_ratfun(a: RatFun) -> HahnSeries:
    """Exact conversion back; defined when a is a Laurent polynomial in u."""
    if a.den != {0: a.ctx.one}:
        raise ValueError("element is not a finite series")
    return HahnSeries.from_terms(a.ctx, [(Fraction(e, a.M), c) for e, c in a.num.items()])


# ---------------------------------------------------------------------------
# ratfun


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
