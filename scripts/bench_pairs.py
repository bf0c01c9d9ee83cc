#!/usr/bin/env python3
"""Paired benchmark runs of two commits.

    python3 scripts/bench_pairs.py [--base HEAD~1] [--head HEAD] [--pairs 10]
        [--seconds 8] [--seed 20260810] [--workload W ...] [--workdir DIR]
        [--out bench_pairs.json]

Run from inside the repository.  Both commits are exported with ``git
archive`` into two sibling directories of one work directory, ``base`` and
``head``, so their paths have the same length and neither holds compiled
bytecode from an earlier run: ``setup_s`` and ``peak_rss_mb`` are compared
only between checkouts placed alike.  For each pair and workload,
``perfbench/run.py --trace 0`` runs once in each checkout, the side that
goes first alternating from pair to pair, and each run's record is copied
to ``<workdir>/records/<side>/``.

The summary written to --out holds both commits and, per workload, each
side's gate result (every run ``correct``, the ``failed`` counts), the
median ``machine.calib_ms`` and, per end-to-end metric of BENCHMARK.json,
each side's median and quartiles, the share of pairs in which head was
better, and whether the medians differ, in head's favour, by more than
base's interquartile range.  The exit status is 1 when a run is not
``correct`` or does not finish.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("base", "head")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(commit: str, dest: Path) -> None:
    """The files of `commit` under dest, as ``git archive`` lists them."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its final JSON line, plus the
    record it wrote, or ``correct`` False when it did not finish."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "failed": None, "metrics": {}, "record": None}
    record_path = checkout / "perfbench" / "out" / f"{workload}.seed{seed}.trace0.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else None
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "calib_ms": record.get("machine.calib_ms") if record else None,
            "record": record_path if record else None}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's pairs.

    Each pair maps "base" and "head" to a run: {"correct", "failed",
    "metrics": {name: value}, "calib_ms"}.  `metrics` lists BENCHMARK.json's
    end-to-end entries (name, unit, better).
    """
    out: dict = {"pairs": len(pairs), "gate": {}, "calib_ms": {}, "metrics": {}}
    for side in SIDES:
        runs = [pair[side] for pair in pairs]
        out["gate"][side] = {"correct": all(r["correct"] for r in runs),
                             "failed": [r["failed"] for r in runs]}
        calib = [r["calib_ms"] for r in runs if r.get("calib_ms") is not None]
        out["calib_ms"][side] = statistics.median(calib) if calib else None
    for spec in metrics:
        name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
        both = [(pair["base"]["metrics"].get(name), pair["head"]["metrics"].get(name))
                for pair in pairs]
        both = [(b, h) for b, h in both if b is not None and h is not None]
        if not both:
            continue
        entry: dict = {"unit": spec["unit"], "better": spec["better"]}
        for side, values in zip(SIDES, zip(*both)):
            q1, med, q3 = quartiles(list(values))
            entry[side] = {"median": med, "q1": q1, "q3": q3, "runs": list(values)}
        base, head = entry["base"], entry["head"]
        entry["change"] = head["median"] / base["median"] - 1 if base["median"] else None
        entry["head_win_share"] = sum(sign * (b - h) > 0 for b, h in both) / len(both)
        entry["beats_base_iqr"] = sign * (base["median"] - head["median"]) > base["q3"] - base["q1"]
        out["metrics"][name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="the commit compared against")
    ap.add_argument("--head", default="HEAD", help="the commit measured")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8, help="--seconds of each run")
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--workload", action="append", help="a workload (default: all)")
    ap.add_argument("--workdir", type=Path, help="where the checkouts go (default: a new "
                    "temporary directory); it must not exist yet")
    ap.add_argument("--out", type=Path, default=Path("bench_pairs.json"))
    args = ap.parse_args(argv)

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.base, args.head))}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    checkouts = {side: workdir / side for side in SIDES}
    for side in SIDES:
        export(commits[side], checkouts[side])
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {}
            for side in order:
                result = run_once(checkouts[side], workload, args.seed, args.seconds)
                record = result.pop("record")
                if record is not None:
                    kept = workdir / "records" / side / f"{workload}.pair{k}.json"
                    kept.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(record, kept)
                pair[side] = result
                print(f"pair {k} {workload} {side}: correct={result['correct']} "
                      f"wall_s={result['metrics'].get('wall_s')}", flush=True)
            runs[workload].append(pair)

    summary = {
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": args.head, "commit": commits["head"]},
        "seed": args.seed, "seconds": args.seconds, "python": sys.version.split()[0],
        "workloads": {w: summarize(runs[w], spec["end_to_end"]) for w in workloads},
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {args.out}; checkouts and records in {workdir}")
    ok = all(s["gate"][side]["correct"] for s in summary["workloads"].values() for side in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
