"""The residue check ``invariants.divides`` against the dense division.

``divides(f, P)`` decides f | P from the residues X^(p^i) mod f; the
reference divides the dense ``to_poly(P)``, of degree p^n, by f over
F_p(t).  They must give the same verdict on every input where the dense
division finishes: each companion P = addpol(f) of the inputs below, and P
with one a_i's numerator changed by one term.  A perturbed P need not be
rejected: f = c*X^k with k >= 2 still divides P when a_0 stays 0.
"""

import pytest

from hahnroot.cli import parse_polynomial
from hahnroot.corpus import corpus
from hahnroot.ore import AdditivePolynomial, addpol
from invariants import divides
from oracles import poly_divmod, to_poly

# the acceptance corpus, the p = 5, 7 sweep corpus at degree 2 or less, and
# the inputs of tests/test_ore.py, with c*X^k at k = 2 and 3
INPUTS = {
    "acceptance": lambda: corpus(seed=20260810, count=50, ps=(2, 3), max_deg=4),
    "sweep-p5-p7": lambda: corpus(seed=20260810, count=30, ps=(5, 7), max_deg=2),
    "ore-samples": lambda: corpus(seed=99, count=12, ps=(2, 3), max_deg=3),
    "ore-texts": lambda: [parse_polynomial(text, p) for p, text in [
        (3, "X"), (3, "X^2 - t"), (2, "X^2 + X"), (3, "X^2 - (t)/(t^2+1)*X - 1/t"),
        (2, "X^2 - X - 1/t"), (3, "X^3 - X - 1/t"),
        (2, "X^4 + t*X^2 + 1/t*X"), (3, "X^9 + X^3 + t*X"), (5, "X^5 - t*X"),
        (2, "X^3 + (t+1)*X^2 + t*X"), (3, "X^4 + t*X^2 + X"), (3, "X^3 + t*X^2 + X - 1"),
        (5, "X^4 + t*X^3 - X"), (5, "X^4 + X^3 + t*X^2 + t*X + 1"),
        (2, "X^9 + t*X^8 + X + 1/t"), (3, "X^6 + t*X^5 + X + 1/t"),
        (3, "X^2"), (2, "t*X^3"),
    ]],
}


def _perturbed(P: AdditivePolynomial, k: int) -> AdditivePolynomial:
    # one more term, above the others, in the numerator of one a_i; the
    # index rotates with k so that every position is perturbed somewhere
    i = P.support[k % len(P.support)]
    num, den = P.sides[i]
    return AdditivePolynomial(P.p, {**P.sides, i: ({**num, max(num) + 1: 1}, den)})


def _dense_divides(f, P) -> bool:
    return poly_divmod(to_poly(P), f)[1].is_zero()


@pytest.mark.parametrize("name", list(INPUTS))
def test_residue_check_agrees_with_dense_division(name):
    fs = INPUTS[name]()
    companions = [addpol(f) for f in fs]
    assert all(divides(f, P) and _dense_divides(f, P) for f, P in zip(fs, companions))
    verdicts = []
    for k, (f, P) in enumerate(zip(fs, companions)):
        Q = _perturbed(P, k)
        verdict = divides(f, Q)
        assert verdict == _dense_divides(f, Q), f"input {k}: {Q.sides}"
        verdicts.append(verdict)
    # the perturbations are not all accepted, so the agreement is not vacuous
    assert False in verdicts
