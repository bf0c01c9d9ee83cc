#!/usr/bin/env python3
"""Seeded corpus sweep: expand random polynomials and check the envelope
invariants (companion divisibility, ramification/expansion sites, exponent
groups, coefficient degrees).  Prints one line per polynomial and a summary.
"""

import argparse
import sys
import time
from fractions import Fraction

from hahnroot.cli import poly_text
from hahnroot.corpus import corpus
from hahnroot.envelope import companion_points, maxexp_base, maxram
from hahnroot.expand import expand_roots
from hahnroot.hahn import expands_at, ramifies_at
from hahnroot.intpoly import prime_factors
from hahnroot.ore import is_additive


def strip_p(n, p):
    while n % p == 0:
        n //= p
    return n


def check_poly(g, depth):
    p = g.ctx.p
    problems = []
    P, points = companion_points(g)
    dense = P.to_poly()
    if not dense.divmod(g)[1].is_zero():
        problems.append("companion not divisible")
    if not is_additive(dense):
        problems.append("companion not additive")
    finite = {b.r for b in points if b.is_finite}
    n_top = max(P.support)
    if len(points) > n_top * (n_top + 1) // 2 + 1:
        problems.append("intersection count bound")

    tree = expand_roots(g, depth)
    m = maxram(P, points)
    d_sharp = maxexp_base(P, points)
    statuses = {}
    for leaf in tree.leaves():
        statuses[leaf.status] = statuses.get(leaf.status, 0) + 1
        support = [e for e, _ in leaf.w.terms]
        for idx, r in enumerate(support):
            if m % strip_p(Fraction(r).denominator, p) != 0:
                problems.append(f"exponent {r} outside the ramification group")
            for q in prime_factors(Fraction(r).denominator):
                if q != p and ramifies_at(support[:idx], r, q) and r not in finite:
                    problems.append(f"ramification at {r} off the intersection set")
        for node in leaf.chain():
            if node.step_zeta is None:
                continue
            if node.step_zeta.degree() > d_sharp:
                problems.append(f"coefficient degree {node.step_zeta.degree()} > {d_sharp}")
            prefix = [c for _, c in node.parent.w.terms]
            if expands_at(prefix, node.step_zeta) and node.last_r not in finite:
                problems.append(f"expansion at {node.last_r} off the intersection set")
    if sum(leaf.multiplicity for leaf in tree.leaves()) != g.degree:
        problems.append("leaf multiplicities do not sum to the degree")
    return statuses, problems


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
    t0 = time.perf_counter()
    for i, g in enumerate(polys):
        statuses, problems = check_poly(g, args.depth)
        status_text = " ".join(f"{k}:{v}" for k, v in sorted(statuses.items()))
        flag = "ok " if not problems else "BAD"
        print(f"[{flag}] #{i:02d} p={g.ctx.p} deg={g.degree} leaves[{status_text}] {poly_text(g)}")
        for problem in problems:
            failures += 1
            print(f"      -> {problem}")
    dt = time.perf_counter() - t0
    print(f"\n{args.count} polynomials, {failures} invariant failures, {dt:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
