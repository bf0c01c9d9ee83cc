"""Per-layer tracing from outside the program.

Wrappers are installed on the names the callers look up: ``expand`` imported
``taylor_at`` and ``evaluate`` by name and ``envelope`` imported ``addpol``
by name, so those module globals are replaced; ``cli`` reaches
``parse_polynomial``, ``expand.expand_roots``, ``ore.addpol`` and the
envelope functions through lookups that the same replacements catch.
Nothing under ``src/`` changes, and ``uninstall`` restores every original.

Span wrappers record (name, start, end, parent span, request id) in memory.
The three hottest entry points, ``FF.__mul__``, ``intpoly.mul`` and
``intpoly.divmod_`` (about 1.9M and 1.4M calls per corpus-roots pass), get
counter-only wrappers, bucketed by field degree and operand size.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from hahnroot import cli, envelope, expand, ffield, intpoly, ore
from hahnroot.ffield import FF

# an intpoly call is "small" when its longer operand has at most this many terms
SMALL_TERMS = 16

_SPANS = (
    # (module, attribute, span name)
    (cli, "parse_polynomial", "cli.parse"),
    (expand, "expand_roots", "expand.expand_roots"),
    (expand, "taylor_at", "hasse.taylor_at"),
    (expand, "evaluate", "hasse.evaluate"),
    (ffield, "poly_roots", "ffield.poly_roots"),
    (ffield, "enlarge", "ffield.enlarge"),
    (ore, "addpol", "ore.addpol"),
    (envelope, "addpol", "ore.addpol"),
    (envelope, "intersection_points", "envelope.intersection_points"),
    (envelope, "maxram", "envelope.maxram"),
    (envelope, "maxexp_base", "envelope.maxexp_base"),
    (envelope, "maxexp", "envelope.maxexp"),
    (envelope, "order_type_bound", "envelope.order_type_bound"),
)

_COUNTERS = (
    "ffield.mul.calls.k1", "ffield.mul.calls.k_gt1",
    "intpoly.mul.calls.small", "intpoly.mul.calls.large",
    "intpoly.divmod.calls.small", "intpoly.divmod.calls.large",
    "expand.nodes", "expand.leaves.exact_root", "expand.leaves.accumulating",
    "expand.leaves.budget_exhausted", "ffield.enlarge.calls",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = {}
        self.stats: dict[str, float] = {}
        self.carriers = [0, 0]  # terms seen, coefficients seen
        self.addpol_per_request: dict[int, int] = defaultdict(int)
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass; the wrappers keep writing into the same dicts."""
        self.spans = []
        self.counts.clear()
        self.counts.update(dict.fromkeys(_COUNTERS, 0))
        self.stats.clear()
        self.stats.update({"ratfun.carrier_terms_max": 0, "ratfun.M_max": 0,
                           "ffield.tower_k_max": 0, "ore.companion_terms": 0})
        self.carriers[:] = [0, 0]
        self.addpol_per_request.clear()

    # -- wrappers ------------------------------------------------------------

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; used for the harness's own cli.run."""
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, self.request)
            self.stack.pop()

    def _span(self, name: str, fn):
        observe = {
            "expand.expand_roots": self._on_tree,
            "hasse.taylor_at": self._on_taylor,
            "ffield.poly_roots": self._on_roots,
            "ffield.enlarge": self._on_enlarge,
            "ore.addpol": self._on_addpol,
        }.get(name)

        def wrapper(*args, **kwargs):
            result = self.call(name, lambda: fn(*args, **kwargs))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _on_tree(self, tree) -> None:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            self.counts["expand.nodes"] += 1
            if node.children:
                stack.extend(node.children)
            else:
                self.counts["expand.leaves." + node.status] += 1

    def _on_taylor(self, coeffs) -> None:
        s = self.stats
        for c in coeffs:
            terms = len(c.num) + len(c.den)
            self.carriers[0] += terms
            if terms > s["ratfun.carrier_terms_max"]:
                s["ratfun.carrier_terms_max"] = terms
            if c.M > s["ratfun.M_max"]:
                s["ratfun.M_max"] = c.M
        self.carriers[1] += len(coeffs)

    def _on_roots(self, result) -> None:
        self.stats["ffield.tower_k_max"] = max(self.stats["ffield.tower_k_max"], result.ctx.k)

    def _on_enlarge(self, result) -> None:
        self.counts["ffield.enlarge.calls"] += 1
        self.stats["ffield.tower_k_max"] = max(self.stats["ffield.tower_k_max"], result[0].k)

    def _on_addpol(self, P) -> None:
        self.addpol_per_request[self.request] += 1
        terms = sum(len(a.num) + len(a.den) for a in P.coeffs.values())
        self.stats["ore.companion_terms"] = max(self.stats["ore.companion_terms"], terms)

    def install(self) -> None:
        for module, attr, name in _SPANS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._span(name, orig))
        counts = self.counts

        ff_mul = FF.__mul__

        def mul_ff(a, b):
            counts["ffield.mul.calls.k1" if a.ctx.k == 1 else "ffield.mul.calls.k_gt1"] += 1
            return ff_mul(a, b)

        ip_mul, ip_divmod = intpoly.mul, intpoly.divmod_

        def mul_ip(a, b, p):
            big = len(a) > SMALL_TERMS or len(b) > SMALL_TERMS
            counts["intpoly.mul.calls.large" if big else "intpoly.mul.calls.small"] += 1
            return ip_mul(a, b, p)

        def divmod_ip(a, b, p):
            big = len(a) > SMALL_TERMS or len(b) > SMALL_TERMS
            counts["intpoly.divmod.calls.large" if big else "intpoly.divmod.calls.small"] += 1
            return ip_divmod(a, b, p)

        self._saved += [(FF, "__mul__", ff_mul), (intpoly, "mul", ip_mul),
                        (intpoly, "divmod_", ip_divmod)]
        FF.__mul__ = mul_ff
        intpoly.mul = mul_ip
        intpoly.divmod_ = divmod_ip

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start

        def self_time(name: str) -> float:
            return sum(end - start - child_time[i]
                       for i, (n, start, end, _, _) in enumerate(self.spans) if n == name)

        out: dict[str, float] = {
            "cli.parse_s": busy["cli.parse"],
            "cli.emit_s": self_time("cli.run"),
            "expand.self_s": self_time("expand.expand_roots"),
            "hasse.taylor_at.calls": calls["hasse.taylor_at"],
            "hasse.taylor_at.s": busy["hasse.taylor_at"],
            "hasse.evaluate.calls": calls["hasse.evaluate"],
            "hasse.evaluate.s": busy["hasse.evaluate"],
            "ratfun.carrier_terms_mean": (self.carriers[0] / self.carriers[1]
                                          if self.carriers[1] else 0.0),
            "ffield.poly_roots.calls": calls["ffield.poly_roots"],
            "ffield.poly_roots.s": busy["ffield.poly_roots"],
            "ore.addpol.calls": calls["ore.addpol"],
            "ore.addpol.s": busy["ore.addpol"],
            "ore.addpol.calls_per_request": max(self.addpol_per_request.values(), default=0),
            "envelope.intersection_points.s": busy["envelope.intersection_points"],
            "envelope.maxexp.s": busy["envelope.maxexp"],
        }
        out.update(self.counts)
        out.update(self.stats)
        return out
