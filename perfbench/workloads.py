"""The benchmark's three workloads and the requests they send.

Every request is a ``hahnroot.cli.Command`` built from generated polynomial
text; the program sees nothing else.

The polynomial sets are fixed: they are drawn once from the acceptance
corpus generator at ACCEPTANCE_SEED.  ``--seed`` then chooses, for each
polynomial, which of its variants f(c*X), c in F_p^*, is sent (and, on the
companion ladder, the draws of a and b), plus the request order of every
pass.  The substitution X -> c*X maps the roots w to w/c: the expansion tree
keeps its shape, fields, statuses and carrier sizes, so the cost of a
request does not depend on the seed while its text and output do.  On the
companion ladder the seed draws lam in F_p^* for X^n + lam*t*X^(n-1) + X +
(1/lam)/t, the image of X^n + t*X^(n-1) + X + 1/t under the automorphism
t -> lam*t, which commutes with Frobenius and keeps every support, so the
cost does not depend on the seed there either.  Sets
that vary with the seed were measured first: per-polynomial cost at depth 25
is heavy-tailed (1 ms to 2.7 s), and ten seeds of ``corpus(seed, 50)``
spread wall time by 0.2-0.3 and median latency by 0.4-0.9 of the median,
beyond any bound the benchmark may set.

Because the variant space is finite, the stored reference digests cover
every request any seed can produce.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from hahnroot.cli import Command, poly_text
from hahnroot.corpus import corpus
from hahnroot.hasse import Poly

ACCEPTANCE_SEED = 20260810

# (p, n) rungs of X^n + lam*t*X^(n-1) + X + (1/lam)/t, chosen so that one
# pass takes about a second: (5, 5) and (7, 4) take 3 s each, too long for
# a run to measure each request many times.  `bounds` is left off this
# workload only because bounds at p=5, n=4 ran 466 s in math.factorial and
# then exited 2 (the 4300-digit conversion limit, ROADMAP item 5a); add it
# back when 5a lands.
LADDER = ((2, 9), (3, 6), (5, 4), (11, 3))

# roots depth on corpus-roots: depth 10 keeps a pass near 3 s (depth 25
# takes 13 s, so a run could measure each request only twice)
CORPUS_DEPTH = 10

SETUP_COMMAND = Command("roots", 2, "X^2+X+t", depth=3, fmt="json")


@dataclass(frozen=True)
class Request:
    cmd: Command
    degree: int

    @property
    def key(self) -> str:
        return request_key(self.cmd)


def request_key(cmd: Command) -> str:
    depth = f" depth={cmd.depth}" if cmd.verb == "roots" else ""
    return f"{cmd.verb} p={cmd.p}{depth} {cmd.poly_text}"


def rescale(f: Poly, c: int) -> Poly:
    """f(c*X) for c in F_p^*."""
    ctx = f.ctx
    return Poly.make([a.scale(ctx.from_int(pow(c, i, ctx.p))) for i, a in enumerate(f.coeffs)])


def _variants(f: Poly) -> list[str]:
    return [poly_text(rescale(f, c)) for c in range(1, f.ctx.p)]


def _roots_slots(count: int, ps: tuple[int, ...], max_deg: int, depth: int):
    return [
        [[Request(Command("roots", f.ctx.p, text, depth=depth, fmt="json"), f.degree)]
         for text in _variants(f)]
        for f in corpus(ACCEPTANCE_SEED, count, ps=ps, max_deg=max_deg)
    ]


def _ladder_slots():
    return [
        [[Request(Command("addpol", p, f"X^{n} + {lam}*t*X^{n - 1} + X + {pow(lam, -1, p)}/t",
                          fmt="json"), n)]
         for lam in range(1, p)]
        for p, n in LADDER
    ]


_VERBS = ("addpol", "intersections", "bounds", "order-bound")


def _verbs_slots():
    slots = []
    for f in corpus(ACCEPTANCE_SEED, 50, ps=(2, 3), max_deg=4):
        p = f.ctx.p
        slots.append([
            [Request(Command(verb, p, text, fmt="json"), f.degree) for verb in _VERBS]
            + [Request(Command("roots", p, text, depth=6, fmt="json"), f.degree)]
            for text in _variants(f)
        ])
    return slots


@dataclass(frozen=True)
class Workload:
    name: str
    slots: Callable[[], list]  # each slot lists its variant groups
    # clear the program's caches before every request, so that each pays the
    # per-field set-up a fresh CLI process pays
    cold: bool = False

    def requests(self, seed: int) -> tuple[list[Request], random.Random]:
        """One variant group per slot, drawn from the seed, and the rng that
        goes on to order the passes."""
        rng = random.Random(seed)
        out: list[Request] = []
        for slot in self.slots():
            out.extend(rng.choice(slot))
        return out, rng

    def all_requests(self) -> list[Request]:
        return [r for slot in self.slots() for group in slot for r in group]


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-roots", lambda: _roots_slots(50, (2, 3), 4, CORPUS_DEPTH)),
        Workload("companion-ladder", _ladder_slots),
        Workload("verbs-mix", _verbs_slots, cold=True),
    )
}
