#!/usr/bin/env python3
"""The hahnroot benchmark.

    python3 perfbench/run.py --workload corpus-roots [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src.  One
process, one client, closed loop: each request goes through the public entry
point ``hahnroot.cli.run(Command(...))`` only after the previous one has
returned.  A pass sends every request of the workload once, in an order
drawn from the seed.  Passes run while they are expected to end within
--seconds, three at least.  A fixed 1 ms kernel is timed between requests,
and each request's latency is reported at a fixed reference speed: its
total time over the passes, scaled by the kernel's reference time over the
total of its times around the request (see end_to_end).  Every response
is checked against the stored reference digests (see gate.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A full record (and, with --trace 1, the spans) is written under
perfbench/out/.  The exit status is 1 when any response differs from its
reference or a traced pass does not repeat the first one's counts, and 2
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import os
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

if not (ROOT / "src" / "hahnroot" / "__init__.py").is_file():
    print(f"error: no program to benchmark: {ROOT / 'src' / 'hahnroot'} is missing",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

from hahnroot import cli  # noqa: E402

import micro  # noqa: E402
from gate import Verifier, load_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ACCEPTANCE_SEED, SETUP_COMMAND, WORKLOADS, Request  # noqa: E402

SETUP_SAMPLES = 5  # at each of three points in a run
MIN_PASSES = 3
# the kernel runs after a request for at least this share of its latency
KERNEL_SHARE = 0.05
CALIB_SAMPLES = 25  # kernel runs at each end of a traced run

# The reference speed: the kernel's time, in seconds, on the 2-vCPU machine
# the bounds were set on, when that machine is quiet.  Request times are
# reported at this speed.  Changing it rescales every timing metric, so it
# stays fixed between the commits a comparison spans.
KERNEL_REF_S = 0.9e-3


def kernel_s() -> float:
    """Seconds for one run of a fixed allocation-heavy kernel (dicts, tuples,
    fractions; about 1 ms): the machine's speed at this moment, for code
    shaped like the program's."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, 2_000):
        key = (i * 7) % 1013
        table[key] = (table.get(key, 0) + len(tuple(range(i % 8)))) % 97
        if i % 64 == 0:
            acc += Fraction(key, i)
    return perf_counter() - start


def setup_times(verifier: Verifier, count: int, warm: bool = False) -> list[tuple[float, float]]:
    """(wall time, wall time at the reference speed) of fresh `python -m
    hahnroot.cli` processes answering a tiny request; the kernel is timed
    before and after each.  With warm, one more start goes first, compiles
    bytecode, has its output checked and is not timed."""
    cmd = SETUP_COMMAND
    argv = [sys.executable, "-m", "hahnroot.cli", cmd.verb, "--p", str(cmd.p),
            "--poly", cmd.poly_text, "--depth", str(cmd.depth), "--format", "json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    before = kernel_s()
    for i in range(count + warm):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = perf_counter() - start
        after = kernel_s()
        if warm and i == 0:
            verifier.check(Request(cmd, degree=2), proc.returncode, proc.stdout)
        else:
            times.append((elapsed, elapsed * KERNEL_REF_S * 2 / (before + after)))
        before = after
    return times


def timed_call(cmd):
    """(exit status, text, seconds); status None when run() raised."""
    start = perf_counter()
    try:
        code, text = cli.run(cmd)
    except Exception:
        traceback.print_exc()
        return None, None, perf_counter() - start
    return code, text, perf_counter() - start


def program_caches() -> list:
    """The cache_clear methods of the program's module-level caches."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "hahnroot" or name.startswith("hahnroot."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj.cache_clear
    return list(found.values())


def one_pass(requests, order, verifier, tracer=None, clear=()) -> list[float]:
    """Latency of every request (indexed like `requests`) for one pass;
    the caches in `clear` are emptied before each request, untimed."""
    lat = [0.0] * len(requests)
    for i in order:
        for cache_clear in clear:
            cache_clear()
        cmd = requests[i].cmd
        if tracer is None:
            code, text, lat[i] = timed_call(cmd)
        else:
            tracer.request = i
            code, text, lat[i] = tracer.call("cli.run", timed_call, cmd)
        verifier.check(requests[i], code, text)
    return lat


def kernel_window(kernel: list, seconds: float) -> float:
    """Mean time of kernel runs, one at least, repeated for `seconds`; the
    times go to `kernel`."""
    times = [kernel_s()]
    while sum(times) < seconds:
        times.append(kernel_s())
    kernel.extend(times)
    return statistics.mean(times)


def calibrated_pass(requests, order, verifier, clear, kernel) -> tuple[list, list]:
    """One pass with the kernel timed before every request and after each
    (the times go to `kernel`): the latency of every request and the mean
    of the kernel times just before and just after it.  After a long
    request the kernel runs for KERNEL_SHARE of its latency, so that the
    machine's speed is sampled more than once around it."""
    lat, around = [0.0] * len(requests), [0.0] * len(requests)
    before = kernel_window(kernel, 0)
    for i in order:
        for cache_clear in clear:
            cache_clear()
        code, text, lat[i] = timed_call(requests[i].cmd)
        after = kernel_window(kernel, KERNEL_SHARE * lat[i])
        around[i] = (before + after) / 2
        verifier.check(requests[i], code, text)
        before = after
    return lat, around


def latency_metrics(times: list[float]) -> dict:
    """wall_s, req_p50_ms and req_tail_ms of per-request times in seconds."""
    # the tail is the mean of the slowest tenth (at least one): a single
    # high percentile jumps when the requests around it differ in cost
    slowest = sorted(times)[-max(1, len(times) // 10):]
    return {"wall_s": sum(times), "req_p50_ms": 1e3 * statistics.median(times),
            "req_tail_ms": 1e3 * statistics.mean(slowest)}


def end_to_end(requests, rng, seconds, verifier, record, clear) -> dict:
    # Set-up is sampled before the passes, after the first and after the
    # last, so that its samples fall in more than one of the machine's speed
    # regimes.  Passes run until the next one would end past the deadline,
    # at least MIN_PASSES of them.
    #
    # The machine's speed swings by up to 2x within seconds and its slow
    # spells can outlast a run, so neither a request's best time nor its
    # median over passes repeats from run to run.  A request's latency is
    # therefore reported at the reference speed: its total time over the
    # passes, times KERNEL_REF_S over the total of the kernel times around
    # it (see calibrated_pass).  Totals rather than medians of per-pass
    # ratios, because a 1 ms kernel sees a burst of slowness or misses it
    # while a longer request averages over the bursts.
    deadline = perf_counter() + seconds
    start = perf_counter()
    setup = setup_times(verifier, SETUP_SAMPLES, warm=True)
    setup_batch = perf_counter() - start
    best = [math.inf] * len(requests)
    total = [0.0] * len(requests)
    total_around = [0.0] * len(requests)
    pass_s, kernel = [], []
    while True:
        order = list(range(len(requests)))
        rng.shuffle(order)
        start = perf_counter()
        lat, around = calibrated_pass(requests, order, verifier, clear, kernel)
        best = list(map(min, best, lat))
        total = list(map(operator.add, total, lat))
        total_around = list(map(operator.add, total_around, around))
        pass_s.append(sum(lat))
        if len(pass_s) == 1:
            setup += setup_times(verifier, SETUP_SAMPLES)
        took = perf_counter() - start
        if len(pass_s) >= MIN_PASSES and perf_counter() + took + setup_batch > deadline:
            break
    setup += setup_times(verifier, SETUP_SAMPLES)
    units = {"wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms"}
    at_ref = [KERNEL_REF_S * t / k for t, k in zip(total, total_around)]
    metrics = {"setup_s": (statistics.median(t for _, t in setup), "s")}
    metrics.update((k, (v, units[k])) for k, v in latency_metrics(at_ref).items())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    n = len(requests)
    record["tail"] = f"mean of the slowest {max(1, n // 10)} of {n} requests"
    record["raw"] = {"setup_s": statistics.median(t for t, _ in setup), **latency_metrics(best)}
    record["machine.calib_ms"] = 1e3 * statistics.median(kernel)
    record["passes"] = len(pass_s)
    record["pass_s"] = pass_s
    record["request_best_ms"] = {r.key: 1e3 * t for r, t in zip(requests, best)}
    record["request_at_ref_ms"] = {r.key: 1e3 * t for r, t in zip(requests, at_ref)}
    return metrics


def per_layer(requests, rng, seconds, verifier, record, clear, spans_path) -> dict:
    tracer = Tracer()
    plain, traced, summaries, all_spans = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        order = list(range(len(requests)))
        rng.shuffle(order)
        start = perf_counter()
        plain.append(sum(one_pass(requests, order, verifier, clear=clear)))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(one_pass(requests, order, verifier, tracer, clear)))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        all_spans.extend(tracer.spans)
        # two traced passes always run, so that their counts can be compared
        took = perf_counter() - start
        if len(summaries) >= 2 and perf_counter() + took > deadline:
            break
    # times are medians over the traced passes; counts come from the first
    # and must repeat exactly in every later one
    first = summaries[0]
    is_time = {name: name.endswith(("_s", ".s")) for name in first}
    record["count_drift"] = sorted(
        {k for s in summaries[1:] for k in first if not is_time[k] and s[k] != first[k]})
    metrics = {}
    for name, value in first.items():
        if is_time[name]:
            value = statistics.median(s[name] for s in summaries)
        metrics[name] = (value, "s" if is_time[name] else "count")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    for name, value in micro.run_all().items():
        metrics[name] = (value, "ns" if "_ns." in name else "us")
    record["micro_tied_to"] = micro.TIED_TO
    record["passes"] = len(plain)
    OUT.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "request"], "spans": all_spans}))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    requests, rng = workload.requests(args.seed)
    clear = program_caches() if workload.cold else []
    verifier = Verifier(load_reference())
    # The harness's own objects (requests, reference digests, imported
    # modules) move out of the collector's reach, so that a full collection
    # inside a timed call scans only what the program made.
    gc.collect()
    gc.freeze()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "requests_per_pass": len(requests)}
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    if args.trace:
        kernel = [kernel_s() for _ in range(CALIB_SAMPLES)]
        metrics = per_layer(requests, rng, args.seconds, verifier, record, clear,
                            OUT / f"{args.workload}.seed{args.seed}.spans.json")
        kernel += [kernel_s() for _ in range(CALIB_SAMPLES)]
        record["machine.calib_ms"] = 1e3 * statistics.median(kernel)
        metrics["machine.calib_ms"] = (record["machine.calib_ms"], "ms")
    else:
        metrics = end_to_end(requests, rng, args.seconds, verifier, record, clear)

    record["fail_ratio"] = verifier.failed / verifier.attempted
    record["responses"] = verifier.responses
    record["mismatches"] = verifier.mismatches
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']} x {len(requests)} requests  (1 client, closed loop)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in record.get("raw", {}):
            note = f"  (raw {record['raw'][name]:.6g} {unit})"
        if name == "req_tail_ms":
            note += f"  ({record['tail']})"
        if name in record.get("micro_tied_to", {}):
            note = f"  (isolates {record['micro_tied_to'][name]})"
        if name == "ratfun.carrier_terms_mean" and not metrics["hasse.taylor_at.calls"][0]:
            note = "  (n/a: no Taylor data on this workload)"
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:34s} {shown} {unit}{note}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:14.6g} ratio  "
          f"({verifier.failed}/{verifier.attempted} distinct requests, "
          f"{verifier.responses} responses; nonzero exits that match the reference "
          f"are known failures)")
    if not args.trace:
        print(f"  {'machine.calib_ms':34s} {record['machine.calib_ms']:14.6g} ms")
    else:
        print("  (a layer this workload does not use reports 0)")
    for key in verifier.mismatches[:20]:
        print(f"MISMATCH {key}", file=sys.stderr)
    for name in record.get("count_drift", []):
        print(f"COUNT DRIFT {name}: a later traced pass differs from the first",
              file=sys.stderr)
    correct = verifier.correct and not record.get("count_drift")
    print(json.dumps({
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
