"""Output-identity gate: a digest of one canonical projection per response.

The projection keeps only the mathematical content of a report, so an
additive schema block (say, an opt-in stats section) leaves the digest
unchanged while any change to a term, field, multiplicity, status, residual
valuation, accumulation datum, companion coefficient, intersection point or
bound does not.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

_BOUNDS_KEYS = ("maxram", "maxexp_sharp_base", "maxexp_sharp", "maxexp_paper_base",
                "maxexp_paper", "order_m", "order_bound")


def _leaf(branch: dict) -> dict:
    out = {
        "terms": sorted(([t["exp"], t["coeff"]] for t in branch["terms"]),
                        key=lambda t: Fraction(t[0])),
        "field": branch["field"],
        "multiplicity": branch["multiplicity"],
        "status": branch["status"],
        "residual_valuation": branch["residual_valuation"],
    }
    acc = branch.get("accumulation")
    if acc is not None:
        out["accumulation"] = {k: acc[k] for k in
                               ("r", "J", "equation", "field", "heuristic", "solutions")}
    return out


def projection(verb: str, code: int, payload: dict):
    if code != 0:
        return {"exit": code, "error": payload["error"]["kind"]}
    if verb == "roots":
        return sorted((_leaf(b) for b in payload["branches"]),
                      key=lambda leaf: json.dumps(leaf, sort_keys=True))
    if verb == "addpol":
        return payload["additive"]["coeffs"]
    if verb == "intersections":
        return payload["points"]
    if verb in ("bounds", "order-bound"):
        return {k: payload[k] for k in _BOUNDS_KEYS if k in payload}
    raise ValueError(f"no projection for verb {verb!r}")


def digest(verb: str, code: int, payload: dict) -> str:
    canon = json.dumps(projection(verb, code, payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["digests"]


class Verifier:
    """Checks every response against the stored reference digests.

    A request fails when it raises, exits nonzero or differs from its
    reference; only a difference (or a missing reference) makes the run
    incorrect, since a nonzero exit that matches the reference is a known,
    recorded failure of the program.  Every response is compared with the
    reference of its own request, and every roots report also has its leaf
    multiplicities summed against deg f.

    A run sends each request many times; `attempted` and `failed` count
    distinct requests, one failing when any of its responses fails, so that
    they do not depend on how many passes fit in a run.
    """

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.responses = 0
        self.outcome: dict[str, bool] = {}  # request key -> failed on some response
        self.mismatches: list[str] = []

    def check(self, request, code: int | None, text: str | None) -> None:
        self.responses += 1
        key = request.key
        if code is None:
            failed, matched = True, False
            self.mismatches.append(f"raised: {key}")
        else:
            matched = self._matches(request, code, text)
            failed = code != 0 or not matched
            if not matched:
                self.mismatches.append(key)
        self.outcome[key] = self.outcome.get(key, False) or failed

    def _matches(self, request, code: int, text: str) -> bool:
        verb = request.cmd.verb
        payload = json.loads(text)
        if digest(verb, code, payload) != self.reference.get(request.key):
            return False
        if verb == "roots" and code == 0:
            return sum(b["multiplicity"] for b in payload["branches"]) == request.degree
        return True

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(self.outcome.values())

    @property
    def correct(self) -> bool:
        return not self.mismatches
