import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hahnroot import envelope, ore
from hahnroot.cli import (
    Command,
    ParseError,
    additive_text,
    main,
    parse_polynomial,
    poly_text,
    run,
)
from hahnroot.corpus import corpus
from hahnroot.ffield import field_ctx
from hahnroot.hasse import Poly
from hahnroot.ratfun import RatFun
from oracles import to_poly


F3 = field_ctx(3)


def test_parse_golden_cubic():
    f = parse_polynomial("X^3 - X^2 - 1/t", 3)
    assert f.degree == 3
    assert f.coeffs[0] == RatFun.from_t_coeffs(F3, {0: -1}, {1: 1})
    assert f.coeffs[1].is_zero()
    assert f.coeffs[2] == RatFun.from_int(F3, -1)
    assert f.coeffs[3] == RatFun.one(F3)


def test_parse_identity():
    f = parse_polynomial("X", 5)
    assert f.degree == 1 and f.coeffs[1] == RatFun.one(field_ctx(5))


def test_parse_rational_coefficient():
    f = parse_polynomial("(t^2+1)/(t^3)*X - t", 5)
    ctx = field_ctx(5)
    assert f.degree == 1
    assert f.coeffs[1] == RatFun.from_t_coeffs(ctx, {2: 1, 0: 1}, {3: 1})
    assert f.coeffs[0] == RatFun.from_t_coeffs(ctx, {1: -1})


def test_parse_merges_repeated_powers():
    f = parse_polynomial("X + X + X", 3)
    assert f.is_zero()
    g = parse_polynomial("2*X^2 + t - X^2", 3)
    assert g.coeffs[2] == RatFun.one(F3)


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as err:
        parse_polynomial("X^2 + y", 3)
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_polynomial("X / (t - t)", 3)
    with pytest.raises(ParseError):
        parse_polynomial("", 3)
    with pytest.raises(ParseError):
        parse_polynomial("X^2 3", 3)
    with pytest.raises(ValueError):
        parse_polynomial("X", 4)  # 4 is not prime


def test_round_trip_on_corpus():
    for g in corpus(seed=23, count=20, ps=(2, 3), max_deg=4):
        assert parse_polynomial(poly_text(g), g.ctx.p) == g


def test_poly_text_refuses_what_the_grammar_cannot_write():
    # a coefficient outside F_p, here the generator of F_9, or over
    # t^(1/M) with M > 1 has no text that parses back to it
    F9 = field_ctx(3, 2)
    outside = Poly.make([RatFun.zero(F9), RatFun.from_ff(F9.from_coeffs([0, 1]))])
    with pytest.raises(ValueError, match="prime field"):
        poly_text(outside)
    inside = Poly.make([RatFun.from_int(F9, 2), RatFun.one(F9)])
    assert poly_text(inside) == "X - 1"
    ramified = Poly.make([RatFun(F3, 2, {1: F3.one}, {0: F3.one}), RatFun.one(F3)])
    with pytest.raises(ValueError, match="exponent denominator 1"):
        poly_text(ramified)


# the corpus polynomials whose text parses back to another polynomial: a
# negated constant coefficient of several terms loses its parentheses, so
# over F_3 2 + 2t = -(t + 1) prints as "- t + 1" (ROADMAP item 11)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
@pytest.mark.parametrize("count, ps, index", [(50, (2, 3), 34)]
                         + [(30, (5, 7), i) for i in (3, 10, 16, 25, 26, 28)])
def test_corpus_text_parses_back_to_its_polynomial(count, ps, index):
    f = corpus(20260810, count, ps=ps, max_deg=4)[index]
    assert parse_polynomial(poly_text(f), f.ctx.p) == f


def test_roots_command_json():
    code, out = run(Command("roots", 3, "X^2-t", depth=5, fmt="json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "hahnroot-json/1"
    assert doc["poly"] == "X^2 - t"
    branches = doc["branches"]
    assert [b["status"] for b in branches] == ["exact_root", "exact_root"]
    assert [b["terms"] for b in branches] == [
        [{"exp": "1/2", "coeff": "1"}],
        [{"exp": "1/2", "coeff": "2"}],
    ]
    assert all(b["multiplicity"] == 1 for b in branches)


def test_roots_command_reports_accumulation():
    code, out = run(Command("roots", 3, "X^3-X^2-1/t", depth=12, fmt="json"))
    doc = json.loads(out)
    acc = doc["branches"][0]["accumulation"]
    assert acc["r"] == "-1/6"
    assert acc["equation"] == "z^3+z"
    assert acc["J"] == [1, 3]
    assert {s["zeta"]: s["expands"] for s in acc["solutions"]} == {
        "0": False,
        "s": True,
        "2*s": True,
    }


def test_addpol_command():
    code, out = run(Command("addpol", 3, "X^2-t", fmt="text"))
    assert code == 0 and out == "X^3 - t*X"
    code, out = run(Command("addpol", 3, "X^2-t", fmt="json"))
    doc = json.loads(out)
    assert doc["additive"]["text"] == "X^3 - t*X"
    assert doc["additive"]["coeffs"] == {"0": "2*t", "1": "1"}


def test_companion_text_matches_its_dense_form():
    polys = list(corpus(seed=3, count=20, ps=(2, 3), max_deg=4))
    polys += [parse_polynomial("X^2 + 2*t*X + 3/t", p) for p in (5, 7)]
    for g in polys:
        P = ore.addpol(g)
        assert additive_text(P) == poly_text(to_poly(P))
    # a zero coefficient, which addpol never stores, prints no term
    P = ore.AdditivePolynomial(3, {0: ({1: 2}, {0: 1}), 1: ({}, {0: 1}), 2: ({0: 1}, {0: 1})})
    assert additive_text(P) == poly_text(to_poly(P)) == "X^9 - t*X"


def test_intersections_command():
    code, out = run(Command("intersections", 3, "X^2-t", fmt="json"))
    doc = json.loads(out)
    assert doc["points"] == [
        {"r": "1/2", "J": [0, 1]},
        {"r": "inf", "J": [0, 1]},
    ]


def test_bounds_command():
    code, out = run(Command("bounds", 3, "X^2-t", fmt="json"))
    doc = json.loads(out)
    assert doc["maxram"] == 2
    assert doc["order_bound"] == "ω^2"
    assert doc["maxexp_sharp_base"] == 3
    assert doc["maxexp_sharp"] == "6"
    assert doc["maxexp_paper_base"] == 27


def test_bounds_fails_fast_on_a_factorial_too_long_to_print():
    # the (5, 4) companion-ladder rung has sharp base 5^10; its factorial
    # has 64017637 digits and used to be computed before failing to print
    for mode in ("sharp", "paper"):
        start = time.perf_counter()
        code, out = run(Command("bounds", 5, "X^4+t*X^3+X+1/t", fmt="json", mode=mode))
        elapsed = time.perf_counter() - start
        doc = json.loads(out)
        assert code == 2 and doc["error"]["kind"] == "ValueError"
        assert "9765625! has 64017637 digits" in doc["error"]["message"]
        assert elapsed < 5, f"--mode {mode} took {elapsed:.1f} s"


def test_order_bound_command():
    code, out = run(Command("order-bound", 3, "X^2-t", fmt="json"))
    doc = json.loads(out)
    assert doc["order_m"] == 2 and doc["order_bound"] == "ω^2"


def test_each_verb_builds_the_companion_once(monkeypatch):
    builds = []

    def counting(addpol):
        def wrapper(f):
            builds.append(f)
            return addpol(f)

        return wrapper

    monkeypatch.setattr(ore, "addpol", counting(ore.addpol))
    monkeypatch.setattr(envelope, "addpol", counting(envelope.addpol))
    for verb in ("addpol", "intersections", "bounds", "order-bound"):
        builds.clear()
        code, _ = run(Command(verb, 3, "X^3 - X^2 - 1/t", fmt="json"))
        assert code == 0
        assert len(builds) == 1, f"{verb} built the companion {len(builds)} times"


def _decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1 by integer comparison, without int-to-str."""
    d = max(1, int(n.bit_length() * math.log10(2)))
    while 10**d <= n:
        d += 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def test_bounds_and_order_bound_agree_on_corpus():
    compared = 0
    for g in corpus(seed=20260810, count=10, ps=(2, 3), max_deg=4):
        text = poly_text(g)
        code, out = run(Command("order-bound", g.ctx.p, text, fmt="json"))
        assert code == 0
        order_m = json.loads(out)["order_m"]
        code, out = run(Command("bounds", g.ctx.p, text, fmt="json"))
        doc = json.loads(out)
        if code != 0:
            # the sharp factorial has more digits than can be printed
            # (ROADMAP item 1): the error names the base and the digit count
            base = envelope.maxexp_base(*envelope.companion_points(g))
            assert doc["error"]["kind"] == "ValueError"
            assert f"{base}! has {_decimal_digits(math.factorial(base))} digits" in (
                doc["error"]["message"]
            )
            continue
        assert doc["order_m"] == order_m
        compared += 1
    assert compared >= 9


def test_error_reporting():
    code, out = run(Command("roots", 3, "X^2 + y", fmt="json"))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "ParseError"
    assert doc["error"]["position"] == 6
    code, out = run(Command("roots", 3, "0", fmt="text"))
    assert code == 2 and out.startswith("error:")


def test_main_entry(capsys):
    code = main(["roots", "--p", "3", "--poly", "X^2-t", "--depth", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "roots"
    assert main(["roots", "--p", "3", "--poly", "X", "--depth", "0"]) == 2
    capsys.readouterr()
    assert main(["roots", "--p", "3", "--poly", "X", "--depth", "0", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "hahnroot-json/1"
    assert doc["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("text, companion", [("-X^2+t", "X^3 - t*X"), ("-X", "X")])
def test_poly_may_start_with_a_minus(capsys, text, companion):
    # argparse reads a token that starts with "-" and holds no space as an
    # option; main takes the token after --poly as the polynomial
    assert main(["addpol", "--p", "3", "--poly", text]) == 0
    assert capsys.readouterr().out == companion + "\n"
    assert main(["addpol", "--p", "3", "--poly", text, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["additive"]["text"] == companion


def _src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_runs_without_warnings():
    # importing the package must not load hahnroot.cli before -m runs it
    proc = subprocess.run(
        [sys.executable, "-m", "hahnroot.cli", "roots", "--p", "3", "--poly", "X", "--depth", "2"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "exact_root" in proc.stdout


def test_closed_stdout_exits_quietly():
    # the reader closes the pipe before the CLI writes, as `| head -1` may:
    # no traceback, and the answer's own exit status
    proc = subprocess.Popen(
        [sys.executable, "-m", "hahnroot.cli", "roots", "--p", "3", "--poly", "X^2+X+t",
         "--depth", "50"],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 0


def test_prime_above_the_primality_limit_is_an_error():
    p = 10**24 + 7
    code, text = run(Command("roots", p, "X^2-t", depth=3, fmt="json"))
    assert code == 2
    err = json.loads(text)["error"]
    assert err["kind"] == "FieldError"
    assert "318665857834031151167461" in err["message"]


def _roots_json_sha256(ps, count, depth):
    import hashlib

    digest = hashlib.sha256()
    for f in corpus(seed=20260810, count=count, ps=ps, max_deg=4):
        code, text = run(Command("roots", f.ctx.p, poly_text(f), depth=depth, fmt="json"))
        assert code == 0
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


# sha256 over `roots --format json --depth 25` for the 50-poly acceptance
# corpus, one response and a newline each; the shifted Taylor data of deep
# nodes (rebased exponent groups, embedded towers) must leave it unchanged
ROOTS_DEPTH_25_SHA256 = "4fb4db5ba11f259d512c96ae3dd4eb11d302af9efd29ba4a1eac0d8f6dd1adff"


def test_roots_json_at_depth_25_is_pinned():
    assert _roots_json_sha256((2, 3), 50, 25) == ROOTS_DEPTH_25_SHA256


# the same digest at depth 100, where the Frobenius orbits nest deepest: the
# engine expands one subtree per orbit and builds the others as its images,
# which must print exactly as an expansion of each would
ROOTS_DEPTH_100_SHA256 = "0c297623de23522e16226916d7e60147c3a624983f77ce6dc623b292ffb5b171"


def test_roots_json_at_depth_100_is_pinned():
    assert _roots_json_sha256((2, 3), 50, 100) == ROOTS_DEPTH_100_SHA256


def test_roots_branches_of_f_and_a_scalar_multiple_agree():
    # lam = (t+1)/(t^5+t^4+t^3) has valuation -3 and neither side a
    # monomial; lam*f has the roots of f, and the engine divides its cleared
    # data by one monomial, so both get the same branches.  f is read back
    # from its text, the polynomial the CLI answers for
    for f in corpus(seed=20260810, count=50, ps=(2, 3), max_deg=4):
        p, f_text = f.ctx.p, poly_text(f)
        f = parse_polynomial(f_text, p)
        lam = RatFun.from_t_coeffs(f.ctx, {0: 1, 1: 1}, {3: 1, 4: 1, 5: 1})
        g = Poly.make([c * lam for c in f.coeffs])
        g_text = poly_text(g)
        assert parse_polynomial(g_text, p) == g
        branches = []
        for text in (f_text, g_text):
            code, out = run(Command("roots", p, text, depth=25, fmt="json"))
            assert code == 0
            branches.append(json.loads(out)["branches"])
        assert branches[0] == branches[1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_residual_valuation_is_the_valuation_of_f_at_the_prefix():
    # f = t*(X^2 + X + t): v(f(w)) is v(t) = 1 more than for X^2 + X + t,
    # whose two depth-3 prefixes have v(f(w)) = 3 and 4
    code, out = run(Command("roots", 3, "t*X^2+t*X+t^2", depth=3, fmt="json"))
    assert code == 0
    assert [b["residual_valuation"] for b in json.loads(out)["branches"]] == ["4", "5"]


# sha256 of each request's `--format text` report; every gate request and CI
# pin asks for JSON, so these are what hold the text renderers: an
# accumulation line with its equation over F_9 and "; heuristic",
# parenthesised tower coefficients and t^(1), and the lines of the four other
# verbs
TEXT_SHA256 = {
    ("roots", 3, "X^3-X^2-1/t", 12): "7f8aa0a2f62eb8dd880abe329fc69c2d00f4f69ad419255e1c7c8f378690b77d",
    ("roots", 3, "X^4+t*X+1", 5): "386d19db4dd5f64fb41309015af6a79f35b3154ad8fd2bb905f8240c9f837c19",
    ("roots", 2, "X^3+t*X+1", 5): "c37a0342a8c77531660e67f2df8134f0743486756bc9795f8948778d241396ed",
    ("addpol", 3, "X^3-X-1/t", 10): "348171f5c67fa3cd18195af5a291ee83b9a170cc20e008fcfcef52c9e6ab5f67",
    ("intersections", 3, "X^3-X-1/t", 10): "a8d5b74b8fd7f2e140194247b3baa277052a227392c26d6431554aa36cc232d3",
    ("bounds", 3, "X^3-X-1/t", 10): "d6e51cc2dcd29ff05bf20d41a0bd50621565a1a857000afa0bb11aba6803cb21",
    ("order-bound", 3, "X^3-X-1/t", 10): "02ee94904a52962aced959cc471981c70207f5df183c946dedd4829def735341",
}


@pytest.mark.parametrize("verb, p, text, depth", list(TEXT_SHA256))
def test_text_format_is_pinned(verb, p, text, depth):
    import hashlib

    code, out = run(Command(verb, p, text, depth=depth))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_SHA256[verb, p, text, depth]


# the same digest over a p = 5, 7 corpus, which the benchmark (p = 2, 3) does
# not reach: towers F_25 .. F_625, all with tables, so their edge equations
# of degree 2 or more are solved by a scan of the field's elements
ROOTS_DEPTH_25_P5_P7_SHA256 = "21d6bd8d342a8610a01bb72ea48486f052ee310780c1ed79b2fb06631b2dd65d"
ROOTS_DEPTH_100_P5_P7_SHA256 = "a6a65409e69cabb9bb175f4b3e2863da9c120f45a47e94ff4f0a0956b066c8dd"


def test_roots_json_at_depth_25_over_p5_p7_is_pinned():
    assert _roots_json_sha256((5, 7), 20, 25) == ROOTS_DEPTH_25_P5_P7_SHA256


def test_roots_json_at_depth_100_over_p5_p7_is_pinned():
    assert _roots_json_sha256((5, 7), 20, 100) == ROOTS_DEPTH_100_P5_P7_SHA256


_CAPPED_MAIN = (
    "import resource, sys\n"
    "cap = int(sys.argv[1])\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from hahnroot.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _run_capped(argv, timeout, cap=2 << 30):
    """The CLI on argv in a child whose address space is capped at cap bytes."""
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, str(cap), *argv],
        env=_src_env(), capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize(
    "p, text, depth, field",
    [
        # 3 is a square mod p: the roots lie in F_p
        (1000000007, "X^2-3*t", 2, "F_1000000007"),
        # 5 is not: the roots lie in F_{p^2}
        (1000000007, "X^2-5*t", 2, "F_1000000007[s]/(s^2+1)"),
        (1000000000000000003, "X^3-t*X-1", 3, "F_1000000000000000003"),
    ],
)
def test_large_prime_roots_answer_quickly_under_a_memory_cap(p, text, depth, field):
    # root splitting must not scan the p residues; the child caps its
    # address space at 2 GB, and the timeout bounds the wall clock
    proc = _run_capped(
        ["roots", "--p", str(p), "--poly", text, "--depth", str(depth), "--format", "json"],
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    leaves = json.loads(proc.stdout)["branches"]
    assert sum(leaf["multiplicity"] for leaf in leaves) == parse_polynomial(text, p).degree
    assert {leaf["field"] for leaf in leaves} == {field}


@pytest.mark.parametrize("verb", ["addpol", "intersections", "bounds", "order-bound"])
def test_companion_at_large_prime_fails_fast_under_a_memory_cap(verb):
    # the companion of a quadratic at p = 10^9+7 would take about p X-slots;
    # every verb that builds it refuses before allocating
    proc = _run_capped(
        [verb, "--p", "1000000007", "--poly", "X^2-t", "--format", "json"], timeout=10
    )
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "ValueError"
    assert "p^n = 1000000007^2" in err["message"] and "117649" in err["message"]


VERBS = ["roots", "addpol", "intersections", "bounds", "order-bound"]


@pytest.mark.parametrize("verb", VERBS)
def test_wide_t_span_fails_fast_under_a_memory_cap(verb):
    # the companion's residues are dense in t: f = X + t^(10^8) would take
    # lists of 10^8 ints, so every verb that builds it refuses before
    # allocating; the engine's carriers are sparse, so roots answers
    proc = _run_capped([verb, "--p", "3", "--poly", "X+t^100000000", "--format", "json"],
                       timeout=10)
    if verb == "roots":
        assert proc.returncode == 0, proc.stderr
        (leaf,) = json.loads(proc.stdout)["branches"]
        assert leaf["status"] == "exact_root"
        return
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "ValueError"
    assert "spanning 100000000 powers of t" in err["message"]
    assert "67108864" in err["message"]


@pytest.mark.parametrize("verb", VERBS)
def test_huge_x_exponent_fails_fast_under_a_memory_cap(verb):
    # f is stored densely in X: the parser refuses the exponent at its
    # position before building 10^8 zero coefficients
    proc = _run_capped([verb, "--p", "3", "--poly", "X^100000000+t", "--format", "json"],
                       timeout=10)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "ParseError"
    assert err["position"] == 2
    assert "X-exponent 100000000" in err["message"] and "4096" in err["message"]


def test_tower_above_the_degree_limit_fails_fast_under_a_memory_cap():
    # the roots of z^100 = -1 lie in F_{3^20}: poly_roots refuses that tower
    # before enlarge builds it; splitting z^100 + 1 there takes over 20 s
    proc = _run_capped(["roots", "--p", "3", "--poly", "X^300+t", "--format", "json"],
                       timeout=5)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "FieldError"
    assert "F_{3^20}" in err["message"] and "3486784401" in err["message"]
    assert "above 16" in err["message"]


@pytest.mark.parametrize("text", ["X^2+1/t^67108864", "X^2+t^67108864/(t+1)"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_running_out_of_memory_exits_2(text, fmt):
    # spans at the t-span limit pass its check, and their residues outgrow
    # a 512 MB address space: the CLI reports that instead of a traceback
    proc = _run_capped(["addpol", "--p", "3", "--poly", text, "--format", fmt],
                       timeout=10, cap=512 << 20)
    assert proc.returncode == 2, proc.stderr
    if fmt == "text":
        assert proc.stdout == "error: out of memory\n"
    else:
        err = json.loads(proc.stdout)["error"]
        assert err == {"kind": "MemoryError", "message": "out of memory"}


def test_depth_limit_answers_at_its_boundary_under_a_memory_cap():
    # the deepest expansion the CLI runs answers in about 0.2 s; one term
    # more is refused before expansion
    argv = ["roots", "--p", "3", "--poly", "X^2+X+t", "--format", "json", "--depth"]
    proc = _run_capped([*argv, "800"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    leaves = json.loads(proc.stdout)["branches"]
    assert [len(leaf["terms"]) for leaf in leaves] == [800, 800]
    proc = _run_capped([*argv, "801"], timeout=10)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err == {"kind": "ValueError", "message": "depth 801 is above the limit 800"}


def test_limits_admit_their_boundary():
    # an exponent at the degree limit parses, one above it does not; a span
    # at the companion's limit passes the check (and would be computed)
    assert parse_polynomial("X^4096+t", 2).degree == 4096
    with pytest.raises(ParseError) as info:
        parse_polynomial("t*X^4097+X", 2)
    assert info.value.position == 4
    f = parse_polynomial("X+t^67108864", 2)
    assert ore._t_span(f) == 2**26 == ore._T_SPAN_LIMIT
    assert ore._t_span(parse_polynomial("X^2+1/t^3*X+(t^2+1)/(t-1)", 3)) == 3 + 2
