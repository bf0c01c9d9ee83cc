import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(wall, rss=20.0, correct=True, failed=1, calib=1.0):
    return {"correct": correct, "failed": failed, "calib_ms": calib,
            "metrics": {"wall_s": wall, "peak_rss_mb": rss}}


def test_summary_of_ten_synthetic_pairs():
    # base wall_s 1.00..1.09; head is 0.1 faster in nine pairs and slower in
    # the last; rss is the same on both sides
    pairs = [{"base": run(1 + k / 100, calib=1.0), "head": run(0.9 + k / 100, calib=1.2)}
             for k in range(9)]
    pairs.append({"base": run(1.09), "head": run(1.2, correct=False, failed=2)})
    summary = load_bench_pairs().summarize(pairs, METRICS)

    assert summary["pairs"] == 10
    assert summary["gate"]["base"] == {"correct": True, "failed": [1] * 10}
    assert summary["gate"]["head"] == {"correct": False, "failed": [1] * 9 + [2]}
    assert summary["calib_ms"] == {"base": 1.0, "head": 1.2}

    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert wall["base"]["runs"] == [1 + k / 100 for k in range(9)] + [1.09]
    assert abs(wall["base"]["median"] - 1.045) < 1e-12
    assert abs(wall["base"]["q1"] - 1.0225) < 1e-12 and abs(wall["base"]["q3"] - 1.0675) < 1e-12
    assert abs(wall["head"]["median"] - 0.945) < 1e-12
    assert wall["head_win_share"] == 0.9
    # the medians differ by 0.1, more than base's IQR of 0.045
    assert wall["beats_base_iqr"] is True
    assert abs(wall["change"] - (0.945 / 1.045 - 1)) < 1e-12

    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["head_win_share"] == 0 and rss["beats_base_iqr"] is False and rss["change"] == 0


def test_summary_of_one_pair_and_a_run_that_did_not_finish():
    bench_pairs = load_bench_pairs()
    summary = bench_pairs.summarize([{"base": run(2.0), "head": run(1.0)}], METRICS)
    wall = summary["metrics"]["wall_s"]
    assert wall["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}
    assert wall["head_win_share"] == 1 and wall["beats_base_iqr"] is True

    unfinished = {"correct": False, "failed": None, "metrics": {}}
    summary = bench_pairs.summarize([{"base": run(2.0), "head": unfinished}], METRICS)
    assert summary["gate"]["head"] == {"correct": False, "failed": [None]}
    assert summary["calib_ms"]["head"] is None
    assert summary["metrics"] == {}
