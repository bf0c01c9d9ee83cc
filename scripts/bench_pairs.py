#!/usr/bin/env python3
"""Paired benchmark runs of two commits.

    python3 scripts/bench_pairs.py [--base HEAD~1] [--head HEAD] [--pairs 10]
        [--seconds 8] [--seed 20260810] [--workload W ...] [--cli ARGS ...]
        [--workdir DIR] [--out bench_pairs.json]

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
base's interquartile range.

Each ``--cli ARGS`` (repeatable) times one request in both checkouts:
``python -m hahnroot.cli ARGS`` runs once per side in each pair, the side
that goes first alternating as above.  Its summary lists each side's
seconds in run order, their median and exit statuses, and whether every
output of both sides has one sha256.  With ``--cli``, the workloads run
only when ``--workload`` names them.

The exit status is 1 when a run is not ``correct``, does not finish or, for
``--cli``, exits nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
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


def run_cli(checkout: Path, args: str) -> dict:
    """One ``python -m hahnroot.cli ARGS`` run on the checkout's sources: its
    seconds, exit status and the sha256 of its standard output."""
    argv = [sys.executable, "-m", "hahnroot.cli", *shlex.split(args)]
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def summarize_cli(pairs: list[dict]) -> dict:
    """The summary of one CLI request's pairs, each mapping "base" and
    "head" to a run {"seconds", "exit", "sha256"}, in run order."""
    out: dict = {"pairs": len(pairs)}
    for side in SIDES:
        runs = [pair[side] for pair in pairs]
        seconds = [r["seconds"] for r in runs]
        out[side] = {"seconds": seconds, "median": statistics.median(seconds),
                     "exits": [r["exit"] for r in runs]}
    digests = {pair[side]["sha256"] for pair in pairs for side in SIDES}
    out["one_sha256"] = len(digests) == 1
    out["sha256"] = sorted(digests)
    out["ok"] = all(code == 0 for side in SIDES for code in out[side]["exits"])
    return out


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
    ap.add_argument("--workload", action="append",
                    help="a workload (default: all, or none when --cli is given)")
    ap.add_argument("--cli", action="append", default=[], metavar="ARGS",
                    help="the arguments of one hahnroot.cli request to time")
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
    workloads = args.workload or ([] if args.cli else [w["name"] for w in spec["workloads"]])

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    cli_runs: dict[str, list[dict]] = {a: [] for a in args.cli}
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
        for cli_args in args.cli:
            pair = {side: run_cli(checkouts[side], cli_args) for side in order}
            for side in order:
                print(f"pair {k} cli {cli_args!r} {side}: exit={pair[side]['exit']} "
                      f"seconds={pair[side]['seconds']:.3f}", flush=True)
            cli_runs[cli_args].append(pair)

    summary = {
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {"rev": args.head, "commit": commits["head"]},
        "seed": args.seed, "seconds": args.seconds, "python": sys.version.split()[0],
        "workloads": {w: summarize(runs[w], spec["end_to_end"]) for w in workloads},
        "cli": {a: summarize_cli(cli_runs[a]) for a in args.cli},
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {args.out}; checkouts and records in {workdir}")
    ok = all(s["gate"][side]["correct"] for s in summary["workloads"].values() for side in SIDES)
    ok = ok and all(c["ok"] for c in summary["cli"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
