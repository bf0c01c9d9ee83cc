"""Layer microbenches at fixed sizes, run outside the timed workloads.

Each entry names the workload whose cost it isolates: a change that moves a
microbench should move that workload's end-to-end numbers in proportion to
the layer's share there.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from hahnroot import intpoly
from hahnroot.cli import parse_polynomial
from hahnroot.expand import expand_roots
from hahnroot.ffield import field_ctx, poly_roots
from hahnroot.hasse import taylor_at
from hahnroot.ratfun import RatFun

# (p, k) of the fields whose products and Frobenius maps are timed
MUL_FIELDS = {"F2": (2, 1), "F4": (2, 2), "F9": (3, 2), "F49": (7, 2), "F81": (3, 4),
              "F256": (2, 8), "F343": (7, 3)}
FROB_FIELDS = ("F9", "F81", "F343")

# no timed workload reaches towers over F_5 and F_7
TOWERS = "towers over F_5, F_7; no timed workload"

TIED_TO = {
    **{f"ffield.mul_ns.{f}": "corpus-roots" for f in ("F2", "F4", "F9", "F81", "F256")},
    "ffield.mul_ns.F49": TOWERS,
    "ffield.mul_ns.F343": TOWERS,
    "ffield.frob_ns.F9": "corpus-roots",
    "ffield.frob_ns.F81": "corpus-roots",
    "ffield.frob_ns.F343": TOWERS,
    "ratfun.mul_us.t64": "corpus-roots",
    "hasse.taylor_us.cubic20": "corpus-roots",
    "ffield.poly_roots_us.z3z": "corpus-roots",
    "intpoly.mul_us.n8": "corpus-roots",
    "intpoly.mul_us.n1024": "companion-ladder",
    "intpoly.divmod_us.n8": "corpus-roots",
    "intpoly.divmod_us.n2048": "companion-ladder",
}


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median seconds per call of fn() over `repeats` blocks of `calls` calls."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def _elements(ctx, rng: random.Random, count: int):
    return [ctx.from_coeffs([rng.randrange(ctx.p) for _ in range(ctx.k)]) for _ in range(count)]


def _dense(rng: random.Random, n: int, p: int) -> list[int]:
    return [rng.randrange(p) for _ in range(n - 1)] + [1 + rng.randrange(p - 1)]


def run_all() -> dict[str, float]:
    rng = random.Random(0)
    out: dict[str, float] = {}
    for label, (p, k) in MUL_FIELDS.items():
        ctx = field_ctx(p, k)
        xs, ys = _elements(ctx, rng, 256), _elements(ctx, rng, 256)
        pairs = list(zip(xs, ys))
        out[f"ffield.mul_ns.{label}"] = 1e9 / 256 * _per_call(
            lambda: [x * y for x, y in pairs], 4)
        if label in FROB_FIELDS:
            out[f"ffield.frob_ns.{label}"] = 1e9 / 64 * _per_call(
                lambda: [x.frobenius() for x in xs[:64]], 2)

    f9 = field_ctx(3, 2)
    a = RatFun(f9, 1, {2 * e: c for e, c in enumerate(_elements(f9, rng, 64)) if c}, {0: f9.one})
    b = RatFun(f9, 1, {2 * e + 1: c for e, c in enumerate(_elements(f9, rng, 64)) if c},
               {0: f9.one})
    out["ratfun.mul_us.t64"] = 1e6 * _per_call(lambda: a * b, 3)

    cubic = parse_polynomial("X^3-X^2-1/t", 3)
    (leaf,) = expand_roots(cubic, 20).leaves()
    out["hasse.taylor_us.cubic20"] = 1e6 * _per_call(lambda: taylor_at(cubic, leaf.w), 3)

    f3 = field_ctx(3)
    z3z = [f3.zero, f3.one, f3.zero, f3.one]
    out["ffield.poly_roots_us.z3z"] = 1e6 * _per_call(lambda: poly_roots(z3z), 20)

    p = 5
    for n, calls in ((8, 2000), (1024, 20)):
        u, v = _dense(rng, n, p), _dense(rng, n, p)
        out[f"intpoly.mul_us.n{n}"] = 1e6 * _per_call(lambda: intpoly.mul(u, v, p), calls)
    for n, calls in ((8, 2000), (2048, 1)):
        u, v = _dense(rng, n, p), _dense(rng, n // 2, p)
        out[f"intpoly.divmod_us.n{n}"] = 1e6 * _per_call(lambda: intpoly.divmod_(u, v, p), calls)
    return out
