"""The benchmark's per-layer tracer still sees every field product.

perfbench/tracing.py counts ``FF.__mul__`` calls by replacing the class
attribute; table-driven products must go through that one method.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hahnroot.ffield import FF, field_ctx  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def test_tracer_counts_one_product_in_f81_and_uninstalls():
    f81 = field_ctx(3, 4)
    x, y = f81.gen, f81.gen + f81.one
    original = FF.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        before = dict(tracer.counts)
        product = x * y
    finally:
        tracer.uninstall()
    assert FF.__mul__ is original
    assert tracer.counts["ffield.mul.calls.k_gt1"] == before["ffield.mul.calls.k_gt1"] + 1
    assert tracer.counts["ffield.mul.calls.k1"] == before["ffield.mul.calls.k1"]
    assert product == x * y
