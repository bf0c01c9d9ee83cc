"""Command-line front end: polynomial parsing, dispatch, report emission.

Input polynomials live in F_p(t)[X], written like "X^3 - X^2 - 1/t" or
"(t^2+1)/(t^3)*X - t"; p is always an explicit flag.  Reports are emitted
as text or as JSON under the stable schema tag "hahnroot-json/1".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import envelope, expand, ore
from .ffield import FieldCtx, field_ctx
from .hahn import series_text
from .hasse import Poly
from .ratfun import RatFun, to_text

SCHEMA = "hahnroot-json/1"

# largest X-exponent the parser accepts: f is stored densely in X, and the
# engine's binomial table has (n+1)(n+2)/2 entries; roots of X^4096+t over
# F_2 answer in about 5 s
_X_DEGREE_LIMIT = 4096


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


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


def parse_polynomial(text: str, p: int) -> Poly:
    """Parse f in F_p(t)[X]; raises ParseError with a position on bad input."""
    ctx = field_ctx(p)
    parser = _Parser(text, ctx)
    if not parser.tokens:
        raise ParseError("empty polynomial", 0)
    poly = parser.parse_poly()
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", parser.pos())
    return poly


# ---------------------------------------------------------------------------
# Printing.


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


def _terms_text(terms) -> str:
    """Text of sum c*X^i over (i, _signed_text(c)) pairs given in descending
    i, every c nonzero."""
    parts: list[tuple[bool, str]] = []
    for i, (neg, body) in terms:
        if i == 0:
            parts.append((neg, body))
            continue
        if " + " in body and "/" not in body:
            body = f"({body})"
        x = "X" if i == 1 else f"X^{i}"
        parts.append((neg, x if body == "1" else f"{body}*{x}"))
    if not parts:
        return "0"
    first_neg, first = parts[0]
    out = ("-" if first_neg else "") + first
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def poly_text(f: Poly) -> str:
    """Canonical text of f, round-trippable through parse_polynomial."""
    coeffs = ((i, f.coeffs[i]) for i in range(f.degree, -1, -1))
    return _terms_text((i, _signed_text(c)) for i, c in coeffs if not c.is_zero())


def _signed_coeffs(P: ore.AdditivePolynomial) -> dict[int, tuple[bool, str]]:
    """_signed_text(a_i) for each nonzero coefficient a_i of P, keyed by i."""
    return {i: _signed_text(a) for i, a in P.coeffs.items() if not a.is_zero()}


def additive_text(P: ore.AdditivePolynomial) -> str:
    """The text poly_text gives for P written densely in X, read off P's
    sparse support."""
    signed = _signed_coeffs(P)
    return _terms_text((P.p**i, signed[i]) for i in sorted(signed, reverse=True))


def _fraction_str(r) -> str:
    return "inf" if r == envelope.INF else str(Fraction(r))


# ---------------------------------------------------------------------------
# Commands.


@dataclass(frozen=True)
class Command:
    verb: str
    p: int
    poly_text: str
    depth: int = 10
    fmt: str = "text"
    mode: str = "sharp"


def _branch_json(node: expand.BranchNode) -> dict:
    out = {
        "field": node.w.ctx.label,
        "terms": [{"exp": str(e), "coeff": str(c)} for e, c in node.w.terms],
        "multiplicity": node.multiplicity,
        "status": node.status,
        "residual_valuation": _fraction_str(node.residual_valuation),
    }
    if node.accumulation is not None:
        acc = node.accumulation
        out["accumulation"] = {
            "r": str(acc.r_star),
            "J": sorted(acc.J_star),
            "equation": expand.equation_text(acc.equation),
            "field": acc.ctx.label,
            "heuristic": acc.heuristic,
            "solutions": [
                {"zeta": str(z), "expands": flag} for z, flag in acc.solutions
            ],
        }
    return out


def _branch_text(node: expand.BranchNode) -> str:
    series = series_text(node.w) if node.w.terms else "0"
    line = f"  [{node.status} x{node.multiplicity}] {series}"
    line += f"  (field {node.w.ctx.label}, v(f(w)) = {_fraction_str(node.residual_valuation)})"
    if node.accumulation is not None:
        acc = node.accumulation
        sols = ", ".join(
            f"{z}{' (expands)' if flag else ''}" for z, flag in acc.solutions
        )
        line += (
            f"\n    accumulation at r = {acc.r_star}: equation {expand.equation_text(acc.equation)}"
            f" over {acc.ctx.label}; solutions {sols}"
            + ("; heuristic" if acc.heuristic else "")
        )
    return line


def run(cmd: Command) -> tuple[int, str]:
    """Execute a command; returns (exit status, report text)."""
    try:
        f = parse_polynomial(cmd.poly_text, cmd.p)
        if f.is_zero() or f.degree < 1:
            raise ParseError("polynomial must have degree >= 1", 0)
        payload: dict = {"schema": SCHEMA, "command": cmd.verb, "p": cmd.p,
                         "poly": poly_text(f)}
        lines: list[str] = []
        if cmd.verb == "roots":
            tree = expand.expand_roots(f, cmd.depth)
            leaves = sorted(
                tree.leaves(), key=lambda n: [(e, c.sort_key()) for e, c in n.w.terms]
            )
            payload["depth"] = cmd.depth
            payload["branches"] = [_branch_json(n) for n in leaves]
            lines.append(f"roots of {payload['poly']} over F_{cmd.p} (depth {cmd.depth}):")
            lines.extend(_branch_text(n) for n in leaves)
        elif cmd.verb == "addpol":
            P = ore.addpol(f)
            # each coefficient is rendered once; only a sign-folded one is
            # rendered again, unfolded, for "coeffs"
            signed = _signed_coeffs(P)
            text = _terms_text((P.p**i, signed[i]) for i in sorted(signed, reverse=True))
            payload["additive"] = {
                "text": text,
                "coeffs": {str(i): to_text(P.coeffs[i]) if neg else body
                           for i, (neg, body) in sorted(signed.items())},
            }
            lines.append(text)
        elif cmd.verb == "intersections":
            P, pts = envelope.companion_points(f)
            text = additive_text(P)
            payload["additive"] = text
            payload["points"] = [
                {"r": _fraction_str(b.r), "J": sorted(b.J)} for b in pts
            ]
            lines.append(f"additive companion: {text}")
            for b in pts:
                lines.append(f"  r = {_fraction_str(b.r)}, J = {sorted(b.J)}")
            if not pts:
                lines.append("  (no intersection points)")
        elif cmd.verb == "bounds":
            companion = envelope.companion_points(f)
            m_ram = envelope.maxram(*companion)
            base_sharp = envelope.maxexp_base(*companion)
            base_paper = envelope.paper_base(f)
            m_order, label = envelope.order_type_bound(*companion)
            payload["maxram"] = m_ram
            payload["maxexp_sharp_base"] = base_sharp
            payload["maxexp_sharp"] = str(envelope.maxexp(base_sharp))
            payload["maxexp_paper_base"] = base_paper
            if cmd.mode == "paper":
                payload["maxexp_paper"] = str(envelope.maxexp(base_paper))
            payload["order_m"] = m_order
            payload["order_bound"] = label
            lines.append(f"maxram: {m_ram}")
            lines.append(f"maxexp (sharp): {base_sharp}! = {payload['maxexp_sharp']}")
            lines.append(f"maxexp (paper): {base_paper}!")
            lines.append(f"order bound: {label}")
        elif cmd.verb == "order-bound":
            m_order, label = envelope.order_type_bound(*envelope.companion_points(f))
            payload["order_m"] = m_order
            payload["order_bound"] = label
            lines.append(f"order bound: {label}")
        else:
            raise ParseError(f"unknown command {cmd.verb!r}", 0)
        if cmd.fmt == "json":
            return 0, json.dumps(payload, ensure_ascii=False)
        return 0, "\n".join(lines)
    except (ParseError, ValueError, MemoryError) as exc:
        # a MemoryError carries no message of its own
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        if cmd.fmt == "json":
            err = {"schema": SCHEMA, "error": {"kind": type(exc).__name__,
                                               "message": message}}
            if isinstance(exc, ParseError):
                err["error"]["position"] = exc.position
            return 2, json.dumps(err, ensure_ascii=False)
        return 2, f"error: {message}"


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hahnroot",
                                  description="exact root expansions over F_p(t)")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb in ("roots", "addpol", "intersections", "bounds", "order-bound"):
        sp = sub.add_parser(verb)
        sp.add_argument("--p", type=int, required=True, help="the prime p")
        sp.add_argument("--poly", type=str, required=True, help="f in F_p(t)[X]")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if verb == "roots":
            sp.add_argument("--depth", type=int, default=10)
        if verb == "bounds":
            sp.add_argument("--mode", choices=("paper", "sharp"), default="sharp")
    return top


def main(argv: list[str] | None = None) -> int:
    ns = _build_argparser().parse_args(argv)
    cmd = Command(
        verb=ns.verb,
        p=ns.p,
        poly_text=ns.poly,
        depth=getattr(ns, "depth", 10),
        fmt=ns.format,
        mode=getattr(ns, "mode", "sharp"),
    )
    code, text = run(cmd)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
