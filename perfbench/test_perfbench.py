"""Tests of the benchmark's own code: python3 -m pytest perfbench"""
import json
import math
import re
import sys
from pathlib import Path

import pytest

import run
import tracer
from tracer import Span

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_child_coverage():
    # root [0, 10] has children a [1, 3] and b [4, 9]; b has children
    # c [5, 6] and d [6, 8]; leaf [11, 12] stands alone.
    spans = [
        Span("root", 0.0, 10.0, -1, ""),
        Span("a", 1.0, 3.0, 0, ""),
        Span("b", 4.0, 9.0, 0, ""),
        Span("c", 5.0, 6.0, 2, ""),
        Span("d", 6.0, 8.0, 2, ""),
        Span("leaf", 11.0, 12.0, -1, ""),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, ""),
        Span("a", 2.0, 6.0, 0, ""),
        Span("b", 4.0, 8.0, 0, ""),
        Span("c", 9.0, 12.0, 0, ""),  # runs past its parent: only [9, 10] counts
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_and_pooled_layer_values():
    spans = [
        Span("ops.conv2d.d1", 0.0, 0.002, -1, "small", {"gflop": 0.5, "mb": 3.0, "minflt": 4}),
        Span("ops.conv2d.d2", 0.002, 0.003, -1, "large", {"gflop": 0.25, "mb": 1.0, "minflt": 1}),
        Span("ops.conv2d_backward.d1", 0.003, 0.006, -1, "small", {"gflop": 1.0}),
    ]
    table = tracer.summarize(spans)
    assert tracer.layer_value(table, "ops.conv2d.d1.calls") == 1
    assert tracer.layer_value(table, "ops.conv2d.d2.ms") == pytest.approx(1.0)
    assert tracer.layer_value(table, "ops.conv2d.mb") == pytest.approx(4.0)
    assert tracer.layer_value(table, "ops.conv2d.minflt") == 5
    assert tracer.layer_value(table, "ops.conv2d.gflops_rate") == pytest.approx(0.75 / 0.003)
    assert tracer.layer_value(table, "ops.conv2d.d16.calls") == 0
    assert tracer.layer_value(table, "ops.relu.gflops_rate") == 0.0


def test_conv_counts_follow_the_shapes():
    class Shaped:
        def __init__(self, *shape):
            self.shape = shape

    counts = tracer.conv_counts(Shaped(3, 10, 10), Shaped(5, 3, 3, 3), 2, 1)
    assert counts["gflop"] == pytest.approx(2 * 5 * 3 * 9 * 100 / 1e9)
    cells = 3 * 9 * 100 + 3 * 14 * 14 + 5 * 100
    assert counts["mb"] == pytest.approx(cells * 8 / 1e6)
    assert tracer.conv_counts(Shaped(3, 10, 10), Shaped(5, 3, 3, 3), 2, 2)["gflop"] == \
        pytest.approx(2 * counts["gflop"])


@pytest.mark.parametrize("n, pct, rank", [
    (11, 9, 1),      # the smallest sample still has ten beyond it
    (20, 50, 10),
    (48, 79, 38),
    (100, 90, 90),
    (1000, 99, 990),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    value, p, count = run.tail(samples)
    assert (p, count) == (pct, n)
    assert value == float(rank)
    assert sum(s > value for s in samples) >= 10
    # the next percentile up would leave fewer than ten beyond it
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_needs_more_than_ten_samples():
    value, p, count = run.tail([1.0] * 10)
    assert math.isnan(value) and p == 0 and count == 10


def test_metric_names_and_units_use_the_allowed_characters():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            assert len(m["unit"]) <= 16
            assert all(c.isalnum() or c in "_/%.-" for c in m["unit"]), m["unit"]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.fullmatch(n)] == []


def test_wrappers_are_restored_after_a_traced_run():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from icefusion import cli, network, ops, training
    from icefusion.rng import SeededRng

    before = {m: dict(vars(m)) for m in tracer.package_modules()}
    generator = SeededRng.__dict__["generator"]
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with trace.installed():
            assert training.forward is network.forward  # one wrapper at both names
            assert training.forward.__wrapped__ is before[network]["forward"]
            assert cli.main is not before[cli]["main"]
            ops.conv2d(np.ones((1, 4, 4)), np.ones((2, 1, 3, 3)), np.zeros(2), dilation=2)
            SeededRng(0).random(3)
            raise RuntimeError("leave the block by an exception")
    after = {m: dict(vars(m)) for m in tracer.package_modules()}
    assert all(before[m][k] is after[m][k] for m in before for k in before[m])
    assert SeededRng.__dict__["generator"] is generator
    names = [s.name for s in trace.spans]
    assert names == ["ops.conv2d.d2", "rng.generator"]
    assert trace.spans[0].counts["gflop"] == pytest.approx(2 * 2 * 9 * 16 / 1e9)
