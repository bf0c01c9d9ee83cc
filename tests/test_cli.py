import json

import pytest

from hahnroot import envelope, ore
from hahnroot.cli import Command, ParseError, main, parse_polynomial, poly_text, run
from hahnroot.corpus import corpus
from hahnroot.ffield import field_ctx
from hahnroot.ratfun import RatFun


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
            # the sharp factorial outgrows int-to-str conversion (ROADMAP 5a)
            assert "integer string conversion" in doc["error"]["message"]
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
