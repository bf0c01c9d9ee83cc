#!/usr/bin/env python3
"""Steadiness check: repeat every workload N times, interleaved, one seed per round.

    python3 perfbench/steady.py --repeats 10

Round r runs each workload once with seed r + 1, so a change in
the machine's speed regime hits every workload alike.  For each metric it
prints the median, the quartiles and the spread (q3 - q1) / median, beside
the metric's bound from BENCHMARK.json; "ok" means the spread is under a
third of the bound.  machine.calib_ms is reported per round so a slow
regime can be told from a slow program.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failures = 0
    for r in range(args.repeats):
        seed = r + 1
        for w in names:
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"round {r} {w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            record = json.loads((OUT / f"{w}.seed{seed}.trace0.json").read_text())
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            values[w].setdefault("machine.calib_ms", []).append(record["machine.calib_ms"])
            print(f"round {r} {w} seed {seed}: "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                  + f" calib={record['machine.calib_ms']:.3g} failed={result['failed']}",
                  flush=True)

    print(f"\n{'workload':18s} {'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in names:
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"{w:18s} {name:28s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
