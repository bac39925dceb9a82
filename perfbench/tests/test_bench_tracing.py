"""Tests of the benchmark's own span arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Tracer, percentile, self_times, slope, tail_percentile  # noqa: E402


def span(name, start, end, parent=-1, counted=0, size=-1):
    return [name, start, end, parent, "round-1", size, counted]


def test_self_time_subtracts_children_and_counters():
    spans = [
        span("root", 0, 100),
        span("a", 10, 30, parent=0),
        span("b", 40, 90, parent=0, counted=15),
        span("c", 50, 60, parent=2),
    ]
    assert self_times(spans) == [100 - 20 - 50, 20, 50 - 10 - 15, 10]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("root", 0, 100),
        span("a", 10, 50, parent=0),
        span("b", 40, 60, parent=0),  # overlaps a by 10
        span("c", 90, 120, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_self_times_of_a_recorded_trace_sum_to_the_root():
    t = Tracer()
    t.run_id = "round-1"
    leaf = t.counted("leaf", lambda: sum(range(1000)))
    inner = t.spanned("inner", lambda: [leaf() for _ in range(3)])
    with t.span("root"):
        inner()
        inner()
    root = t.spans[0]
    counter_ns = sum(ns for _, ns in t.counters.values())
    assert t.counters[("leaf", "inner", "round-1")][0] == 6
    assert sum(self_times(t.spans)) + counter_ns == root[2] - root[1]


def test_spanned_names_by_parent_and_records_size():
    t = Tracer()
    fn = t.spanned(lambda parent: "under-outer" if parent == "outer" else "alone",
                   lambda ctx: len(ctx), size_of=lambda args: len(args[0]))
    fn([1, 2, 3])
    with t.span("outer"):
        fn([1])
    assert [(s[0], s[5]) for s in t.spans] == [("alone", 3), ("outer", -1), ("under-outer", 1)]


def test_installed_restores_module_and_class_attributes():
    mod = types.ModuleType("m")
    mod.f = lambda: 1

    class C:
        @classmethod
        def make(cls):
            return 2

    raw_f, raw_make = mod.f, C.__dict__["make"]
    t = Tracer()
    patches = [
        (mod, "f", lambda fn: t.spanned("m.f", fn)),
        (C, "make", lambda cm: classmethod(t.counted("C.make", cm.__func__))),
    ]
    with pytest.raises(KeyError):
        with t.installed(patches):
            assert mod.f() == 1 and C.make() == 2
            raise KeyError("body fails")
    assert mod.f is raw_f and C.__dict__["make"] is raw_make
    assert t.counters[("C.make", "", "setup")][0] == 1


@pytest.mark.parametrize("n, want", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile([7], 99.0) == 7


def test_slope_recovers_ns_per_context_token_from_synthetic_spans():
    sizes = [8 + 64 * i for i in range(100)]
    durations = [20_000 + 2.5 * s + (7 if i % 2 else -7) for i, s in enumerate(sizes)]
    assert slope(sizes, durations) == pytest.approx(2.5, abs=1e-3)
    assert slope([1, 2, 3], [5, 5, 5]) == 0.0
    with pytest.raises(ValueError):
        slope([4, 4], [1, 2])


def test_scaled_median_uses_each_rounds_own_slices():
    from reference import NOMINAL_SLICE_S, scaled_median

    def round_(units, slices):
        return types.SimpleNamespace(units=units, ref_slices=slices)

    # Round 2 ran at half speed: its units and its slices both took twice as
    # long, so it scales to the same time as round 1.
    rounds = [
        round_([1.0, 2.0], [NOMINAL_SLICE_S]),
        round_([2.0, 4.0], [2 * NOMINAL_SLICE_S, 2 * NOMINAL_SLICE_S]),
        round_([1.5, 3.0], [NOMINAL_SLICE_S, 2 * NOMINAL_SLICE_S]),
    ]
    assert scaled_median(rounds) == pytest.approx(3.0)
