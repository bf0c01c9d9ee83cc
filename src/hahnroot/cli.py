"""Command-line front end: polynomial parsing, dispatch, report emission.

Input polynomials live in F_p(t)[X], written like "X^3 - X^2 - 1/t" or
"(t^2+1)/(t^3)*X - t"; p is always an explicit flag.  Reports are emitted
as text or as JSON under the stable schema tag "hahnroot-json/1".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .ffield import FieldCtx, field_ctx
from .hahn import series_text
from .hasse import INF, MAX_DIGITS, Poly
from .ratfun import RatFun, to_text

# ``expand``, ``ore`` and ``envelope`` are imported inside the verbs that run
# them, so that a process loads only its verb's modules.  ``run`` reaches
# ``expand.expand_roots``, ``ore.addpol`` and the envelope functions as
# module attributes at call time, so a wrapper set on the module (as
# perfbench/tracing.py sets them) sees every call.

SCHEMA = "hahnroot-json/1"

# largest X-exponent the parser accepts: f is stored densely in X, and the
# engine's binomial table has (n+1)(n+2)/2 entries; roots of X^4096+t over
# F_2 answer in about 5 s
_X_DEGREE_LIMIT = 4096

# largest roots depth: X^2+X+t over F_3 answers in about 0.2 s at it, and
# X^3-X^2-1/t, whose accumulating chain's exponent denominator grows like
# 3^depth, in about 40 s
_DEPTH_LIMIT = 800


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# a run of digits, a symbol of the grammar, or any other visible character
_TOKEN = re.compile(r"(\d+)|([Xt^*/+()-])|(\S)")

# a t-polynomial (or Laurent polynomial) over F_p: {t-exponent: int mod p},
# zero entries dropped
TPoly = dict[int, int]


def _tokenize(text: str) -> tuple[list[str | None], list[int]]:
    """The tokens of text and their positions, from one regex scan, closed
    by the end marker None at position len(text)."""
    toks: list[str | None] = []
    poss = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 3:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        toks.append(m.group())
        poss.append(m.start())
    toks.append(None)
    poss.append(len(text))
    return toks, poss


def _add_into(acc: TPoly, src: TPoly, scale: int, shift: int, p: int) -> None:
    # acc += scale * t^shift * src over F_p, in place
    for e, c in src.items():
        e += shift
        s = (acc.get(e, 0) + c * scale) % p
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)


class _Parser:
    """Recursive descent over the token list.  Every value is summed as
    {t-exponent: int mod p}; a term whose denominator has two or more terms
    stays a fraction (numerator, denominator), and ``parse_poly`` builds
    one ``RatFun`` per X-power at the end."""

    def __init__(self, text: str, ctx: FieldCtx):
        self.toks, self.poss = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.p = ctx.p

    def peek(self) -> str | None:
        return self.toks[self.i]

    def pos(self) -> int:
        return self.poss[self.i]

    def take(self) -> str:
        tok = self.toks[self.i]
        if tok is None:
            raise ParseError("unexpected end of input", self.poss[self.i])
        self.i += 1
        return tok

    def take_int(self) -> int:
        # the next token, a run of digits, as an int; refused above the
        # length int() converts
        pos = self.pos()
        tok = self.take()
        if len(tok) > MAX_DIGITS:
            raise ParseError(f"integer literal of {len(tok)} digits is above the limit "
                             f"of {MAX_DIGITS} digits", pos)
        return int(tok)

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.pos())
        self.i += 1

    def take_sign(self) -> int:
        return -1 if self.take() == "-" else 1

    # polynomial := [sign] term (sign term)*
    def parse_poly(self) -> Poly:
        p = self.p
        polys: dict[int, TPoly] = {}
        fracs: dict[int, list[tuple[TPoly, TPoly]]] = {}
        sign = 1
        if self.peek() in {"+", "-"}:
            sign = self.take_sign()
        while True:
            exp, num, den = self.parse_term()
            acc = polys.setdefault(exp, {})
            if len(den) == 1:
                # a monomial denominator d*t^k: a Laurent polynomial
                (k, d), = den.items()
                _add_into(acc, num, sign * pow(d, -1, p), -k, p)
            elif num:
                fracs.setdefault(exp, []).append(({e: sign * c % p for e, c in num.items()}, den))
            nxt = self.peek()
            if nxt is None:
                break
            if nxt not in {"+", "-"}:
                raise ParseError(f"expected '+' or '-', found {nxt!r}", self.pos())
            sign = self.take_sign()
        zero = RatFun.zero(self.ctx)
        coeffs = [zero] * (max(polys) + 1)
        for exp, acc in polys.items():
            coeffs[exp] = self.coefficient(acc, fracs.get(exp, []))
        return Poly.make(coeffs)

    def coefficient(self, poly: TPoly, fractions: list[tuple[TPoly, TPoly]]) -> RatFun:
        """poly plus the fractions num/den, summed in the order given."""
        ctx = self.ctx
        out = None
        for num, den in ([(poly, {0: 1})] if poly or not fractions else []) + fractions:
            term = RatFun(ctx, 1, {e: ctx.from_int(c) for e, c in num.items()},
                          {e: ctx.from_int(c) for e, c in den.items()})
            out = term if out is None else out + term
        return out

    # term := [coeff ['*']] 'X' ['^' nat] | coeff
    def parse_term(self) -> tuple[int, TPoly, TPoly]:
        num = den = None
        if self.peek() in {"(", "t"} or (self.peek() or "").isdigit():
            num, den = self.parse_ratfun()
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
            if num is None:
                return exp, {0: 1}, {0: 1}
            return exp, num, den
        if num is None:
            raise ParseError("expected a coefficient or 'X'", self.pos())
        return 0, num, den

    # ratfun := tfactor ['/' tfactor]
    def parse_ratfun(self) -> tuple[TPoly, TPoly]:
        num = self.parse_tfactor()
        if self.peek() == "/":
            slash_pos = self.pos()
            self.take()
            den = self.parse_tfactor()
            if not den:
                raise ParseError("division by the zero polynomial", slash_pos)
            return num, den
        return num, {0: 1}

    # tfactor := '(' tpoly ')' | tmonomial
    def parse_tfactor(self) -> TPoly:
        if self.peek() == "(":
            self.take()
            value = self.parse_tpoly()
            self.expect(")")
            return value
        return self.parse_tmonomial()

    # tpoly := [sign] tmonomial (sign tmonomial)*
    def parse_tpoly(self) -> TPoly:
        sign = 1
        if self.peek() in {"+", "-"}:
            sign = self.take_sign()
        acc: TPoly = {}
        while True:
            _add_into(acc, self.parse_tmonomial(), sign, 0, self.p)
            if self.peek() not in {"+", "-"}:
                return acc
            sign = self.take_sign()

    # tmonomial := int ['*'] ['t' ['^' nat]] | 't' ['^' nat]
    def parse_tmonomial(self) -> TPoly:
        n = 1
        tok = self.peek()
        digits = tok is not None and tok.isdigit()
        if digits:
            n = self.take_int()
            if self.peek() == "*":
                self.take()
        e = 0
        if self.peek() == "t":
            self.take()
            e = 1
            if self.peek() == "^":
                self.take()
                e = self.parse_nat()
        elif not digits:
            raise ParseError("expected an integer or 't'", self.pos())
        n %= self.p
        return {e: n} if n else {}

    def parse_nat(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ParseError("expected a natural number", self.pos())
        return self.take_int()


def parse_polynomial(text: str, p: int) -> Poly:
    """Parse f in F_p(t)[X]; raises ParseError with a position on bad input."""
    ctx = field_ctx(p)
    parser = _Parser(text, ctx)
    if parser.peek() is None:
        raise ParseError("empty polynomial", 0)
    poly = parser.parse_poly()
    if parser.peek() is not None:
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


def _additive_rendering(P: ore.AdditivePolynomial) -> tuple[str, dict[int, tuple[bool, str]]]:
    """The text poly_text gives for P written densely in X, read off P's
    sparse support, and the _signed_text(a_i) it was built from, keyed by i;
    each nonzero coefficient a_i is rendered once."""
    signed = {i: _signed_text(a) for i, a in P.coeffs.items() if not a.is_zero()}
    return _terms_text((P.p**i, signed[i]) for i in sorted(signed, reverse=True)), signed


def additive_text(P: ore.AdditivePolynomial) -> str:
    """The text poly_text gives for P written densely in X."""
    return _additive_rendering(P)[0]


def _fraction_str(r) -> str:
    return "inf" if r == INF else str(Fraction(r))


# ---------------------------------------------------------------------------
# Commands.


class Command:
    """One CLI request; equal and hashed by value."""

    __slots__ = ("verb", "p", "poly_text", "depth", "fmt", "mode")

    def __init__(self, verb: str, p: int, poly_text: str, depth: int = 10,
                 fmt: str = "text", mode: str = "sharp"):
        self.verb = verb
        self.p = p
        self.poly_text = poly_text
        self.depth = depth
        self.fmt = fmt
        self.mode = mode

    def _key(self) -> tuple:
        return (self.verb, self.p, self.poly_text, self.depth, self.fmt, self.mode)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Command:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Command({})".format(", ".join(map(repr, self._key())))


def _branch_json(node: expand.BranchNode) -> dict:
    out = {
        "field": node.w.ctx.label,
        "terms": [{"exp": str(e), "coeff": str(c)} for e, c in node.w.terms],
        "multiplicity": node.multiplicity,
        "status": node.status,
        "residual_valuation": _fraction_str(node.residual_valuation),
    }
    if node.accumulation is not None:
        from .expand import equation_text

        acc = node.accumulation
        out["accumulation"] = {
            "r": str(acc.r_star),
            "J": sorted(acc.J_star),
            "equation": equation_text(acc.equation),
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
        from .expand import equation_text

        acc = node.accumulation
        sols = ", ".join(
            f"{z}{' (expands)' if flag else ''}" for z, flag in acc.solutions
        )
        line += (
            f"\n    accumulation at r = {acc.r_star}: equation {equation_text(acc.equation)}"
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
            from . import expand

            if cmd.depth > _DEPTH_LIMIT:
                raise ValueError(f"depth {cmd.depth} is above the limit {_DEPTH_LIMIT}")
            tree = expand.expand_roots(f, cmd.depth)
            leaves = sorted(
                tree.leaves(), key=lambda n: [(e, c.sort_key()) for e, c in n.w.terms]
            )
            # only the requested format is rendered
            if cmd.fmt == "json":
                payload["depth"] = cmd.depth
                payload["branches"] = [_branch_json(n) for n in leaves]
            else:
                lines.append(f"roots of {payload['poly']} over F_{cmd.p} (depth {cmd.depth}):")
                lines.extend(_branch_text(n) for n in leaves)
        elif cmd.verb == "addpol":
            from . import ore

            P = ore.addpol(f)
            # only a sign-folded coefficient is rendered again, unfolded,
            # for "coeffs"
            text, signed = _additive_rendering(P)
            payload["additive"] = {
                "text": text,
                "coeffs": {str(i): to_text(P.coeffs[i]) if neg else body
                           for i, (neg, body) in sorted(signed.items())},
            }
            lines.append(text)
        elif cmd.verb == "intersections":
            from . import envelope

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
            from . import envelope

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
            from . import envelope

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
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a token that starts with "-" and holds no space for an
    # option, so "--poly -X^2+t" would lose its value; "--poly=-X^2+t" keeps
    # it, whatever the polynomial starts with
    if "--poly" in argv[:-1]:
        i = argv.index("--poly")
        argv[i:i + 2] = [f"--poly={argv[i + 1]}"]
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
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early (``| head``); stdout goes to devnull so
        # that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
