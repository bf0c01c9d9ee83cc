#!/usr/bin/env python3
"""Seeded corpus sweep: expand random polynomials and check every corpus
invariant of tests/invariants.py (acceptance criteria 4, 6, 7a, 7b and 8,
the Frobenius closure of the leaves and the Hensel step at every node of
multiplicity 1) on each.  Prints one line per polynomial and a summary with
the count of each check.

The collector is off during the sweep, and once each polynomial's case is
dropped a full collection must find nothing: the expansion tree and every
other object of the case are freed by reference counting alone.
"""

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

from hahnroot.cli import poly_text  # noqa: E402
from hahnroot.corpus import corpus  # noqa: E402
from invariants import Case, check  # noqa: E402


def check_poly(g, depth, counts=None):
    case = Case.build(g, depth)
    statuses = Counter(leaf.status for leaf in case.tree.leaves())
    return statuses, check(case, counts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--depth", type=int, default=25)
    ap.add_argument("--max-deg", type=int, default=4)
    ap.add_argument("--ps", type=int, nargs="+", default=[2, 3])
    args = ap.parse_args(argv)

    polys = corpus(seed=args.seed, count=args.count, ps=tuple(args.ps), max_deg=args.max_deg)
    failures = 0
    counts = Counter()
    t0 = time.perf_counter()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i, g in enumerate(polys):
            statuses, problems = check_poly(g, args.depth, counts)
            garbage = gc.collect()
            if garbage:
                problems.append(f"{garbage} unreachable objects left for the cyclic collector")
            status_text = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
            flag = "ok " if not problems else "BAD"
            print(f"[{flag}] #{i:02d} p={g.ctx.p} deg={g.degree} leaves[{status_text}] "
                  f"{poly_text(g)}")
            for problem in problems:
                failures += 1
                print(f"      -> {problem}")
    finally:
        if enabled:
            gc.enable()
    dt = time.perf_counter() - t0
    print(f"\n{args.count} polynomials, {failures} invariant failures, {dt:.1f}s")
    print("checked: " + ", ".join(f"{k} x{v}" for k, v in sorted(counts.items())))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
