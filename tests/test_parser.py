"""The parser against the reference parser of ``oracles``.

``cli.parse_polynomial`` sums int dicts and builds one ``RatFun`` per
X-power; ``oracles.reference_parse`` builds a ``RatFun`` per monomial.  On
every text both must give the same polynomial, printed alike, or the same
``ParseError`` message at the same position.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hahnroot.cli import Command, ParseError, parse_polynomial, poly_text, run  # noqa: E402
from hahnroot.ffield import field_ctx  # noqa: E402
from hahnroot.ratfun import RatFun  # noqa: E402
from oracles import reference_parse  # noqa: E402
from perfbench import workloads  # noqa: E402


def outcome(parse, text, p):
    try:
        return "poly", parse(text, p)
    except ParseError as exc:
        return "error", (exc.message, exc.position)


def assert_same(text, p):
    kind, got = outcome(parse_polynomial, text, p)
    ref_kind, ref = outcome(reference_parse, text, p)
    assert kind == ref_kind, (text, got, ref)
    if kind == "error":
        assert got == ref, text
    else:
        assert got == ref, text
        assert poly_text(got) == poly_text(ref), text


# -- drawn texts ---------------------------------------------------------------

NATS = st.integers(0, 12) | st.just(10**20 + 3)
# X-exponents: small ones repeat, so X-powers are summed; 4096 is the
# limit, 4097 is refused
X_EXPS = st.sampled_from([0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 4096, 4097])
SIGNS = st.sampled_from(["+", "-"])
# characters off the grammar, a digit \d accepts, and symbols out of place
STRAY = st.sampled_from(["y", ".", "²", "٣", "**", ")", "(", "^", "X", "/", "+", "-", "t", "7"])
SPACE = st.sampled_from(["", "", " ", " ", "  ", "\t", "\n", "　"])


@st.composite
def tmonomials(draw):
    kind = draw(st.integers(0, 2))  # 0: int, 1: t-power, 2: int times t-power
    toks = []
    if kind != 1:
        toks.append(str(draw(NATS)))
        if draw(st.booleans()):
            toks.append("*")
    if kind != 0:
        toks.append("t")
        if draw(st.booleans()):
            toks += ["^", str(draw(st.integers(0, 6)))]
    return toks


@st.composite
def tpolys(draw):
    toks = [draw(SIGNS)] if draw(st.booleans()) else []
    for k in range(draw(st.integers(1, 4))):
        if k:
            toks.append(draw(SIGNS))
        toks += draw(tmonomials())
    return toks


@st.composite
def tfactors(draw):
    if draw(st.booleans()):
        return ["(", *draw(tpolys()), ")"]
    return draw(tmonomials())


@st.composite
def coefficients(draw):
    toks = draw(tfactors())
    shape = draw(st.integers(0, 7))
    if shape in (1, 2, 3):
        toks += ["/", *draw(tfactors())]
    elif shape == 4:
        toks += ["/", "(", "t", "-", "t", ")"]
    return toks


@st.composite
def terms(draw):
    toks = draw(coefficients()) if draw(st.integers(0, 3)) else []
    if toks and draw(st.integers(0, 3)) == 0:
        return toks  # a constant term
    if toks and draw(st.booleans()):
        toks.append("*")
    toks.append("X")
    exp = draw(X_EXPS)
    if exp != 1 or draw(st.booleans()):
        toks += ["^", str(exp)]
    return toks


@st.composite
def texts(draw):
    parts = [draw(terms()) for _ in range(draw(st.integers(1, 4)))]
    # repeat some terms with the other sign, so that X-powers cancel
    signs = [draw(SIGNS) for _ in parts]
    for k in draw(st.lists(st.integers(0, len(parts) - 1), max_size=2)):
        parts.append(parts[k])
        signs.append("+" if signs[k] == "-" else "-")
    toks = [signs[0]] if draw(st.booleans()) else []
    toks += parts[0]
    for sign, part in zip(signs[1:], parts[1:]):
        toks += [sign, *part]
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 2)) == 0 else 0):
        at = draw(st.integers(0, len(toks)))
        if draw(st.booleans()) or not toks[at:]:
            toks.insert(at, draw(STRAY))
        else:
            del toks[at]
    return "".join(draw(SPACE) + tok for tok in toks) + draw(SPACE)


@settings(max_examples=400, deadline=None)
@given(texts(), st.sampled_from([2, 3, 5, 7]))
def test_drawn_texts_parse_as_the_reference(text, p):
    assert_same(text, p)


@pytest.mark.parametrize("text", [
    "- X^2 + t", "+X", "-(- t + 1)*X - 1", "- t + 1",
    "X^2 + t*X - X^2 + 2*X - t*X", "X - X", "(t^2+1)/(t^3)*X - t",
    "(t^2 + 2)/(t + 1)*X + (t + 2)/(t^2 + 1)*X - 1/t*X + X^2",
    "X / (t - t)", "X + 1/(t - t)", "X + 3/(3*t)", "X^4096 + t", "t*X^4097 + X",
    "X^2 y", "  X ^ 2\t+\nt  ", "X^2 3", "", "   ", "3**X", "X +", "(t", "X^", "t^",
    "X + ٣*t",
])
def test_chosen_texts_parse_as_the_reference(text):
    for p in (2, 3, 5):
        assert_same(text, p)


def test_workload_texts_parse_and_print_as_the_reference():
    seen = set()
    for workload in workloads.WORKLOADS.values():
        for request in workload.all_requests():
            seen.add((request.cmd.p, request.cmd.poly_text))
    for p, text in sorted(seen):
        assert_same(text, p)
    assert len(seen) > 50


def test_leading_minus_binds_to_the_first_monomial():
    F3 = field_ctx(3)
    f = parse_polynomial("- t + 1 + X", 3)
    assert f.coeffs[0] == RatFun.from_t_coeffs(F3, {0: 1, 1: -1})


# -- literals above CPython's int conversion limit ------------------------------


@pytest.mark.parametrize("text, position", [
    ("X^" + "9" * 5000, 2),
    ("X + " + "9" * 5000, 4),
    ("X + t^" + "9" * 5000, 6),
])
def test_literal_above_4300_digits_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, 3)
    assert info.value.message == "integer literal of 5000 digits is above the limit of 4300 digits"
    assert info.value.position == position
    code, out = run(Command("roots", 3, text, fmt="json"))
    err = json.loads(out)["error"]
    assert code == 2 and err["kind"] == "ParseError" and err["position"] == position
    code, out = run(Command("roots", 3, text))
    assert code == 2 and out.startswith("error: integer literal of 5000 digits")


def test_literal_of_4300_digits_parses():
    f = parse_polynomial("X + " + "1" * 4300, 3)
    assert f.coeffs[0] == RatFun.from_int(field_ctx(3), int("1" * 4300))
