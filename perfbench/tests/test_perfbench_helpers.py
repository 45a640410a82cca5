"""Tests of the benchmark's own helpers (tail rule, self time, inputs, wrappers)."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402
from perfbench.stats import quantile, tail_percentile  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    TARGETS,
    Instrumentation,
    Span,
    Tracer,
    layer_self_times,
    self_times,
)


# ---------------------------------------------------------------------- #
# The "highest percentile with >= 10 samples beyond" rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "samples, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_quantile_interpolates_like_statistics_inclusive():
    import statistics

    values = [random.Random(3).random() for _ in range(37)]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert quantile(values, 0.25) == pytest.approx(quartiles[0])
    assert quantile(values, 0.75) == pytest.approx(quartiles[2])
    assert quantile([5.0], 0.95) == 5.0


# ---------------------------------------------------------------------- #
# Self time on synthetic span trees
# ---------------------------------------------------------------------- #
def test_self_time_of_nested_children():
    spans = [
        Span("request", 0.0, 10.0, None, 0),
        Span("engine", 1.0, 9.0, 0, 0),
        Span("hom", 2.0, 5.0, 1, 0),
        Span("witness", 5.0, 8.0, 1, 0),
        Span("hom", 6.0, 7.0, 3, 0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 2.0, 1.0])
    totals = layer_self_times(spans)
    assert totals["hom"] == pytest.approx(4.0)
    assert sum(totals.values()) == pytest.approx(10.0)  # self times tile the root


def test_self_time_does_not_double_count_overlapping_siblings():
    spans = [
        Span("gateway", 0.0, 10.0, None, 0),
        Span("canonical", 1.0, 4.0, 0, 0),
        Span("daemon", 3.0, 6.0, 0, 0),
        Span("canonical", 8.0, 12.0, 0, 0),  # runs past its parent's end
    ]
    # Children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_parents_spans_across_threads():
    import threading

    tracer = Tracer()
    root = tracer.open("request")
    inner = tracer.open("gateway")

    def replica_side():
        tracer.close(tracer.open("daemon"))

    thread = threading.Thread(target=replica_side)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    tracer.close(inner)
    tracer.close(root)
    parents = {span.name: span.parent for span in tracer.spans}
    # The handler thread had nothing open: it adopts the newest open span.
    assert parents == {"request": None, "gateway": 0, "daemon": 1}


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
def _texts(pairs):
    return [(inputs.query_text(q1), inputs.query_text(q2)) for q1, q2 in pairs]


def test_cold_batch_is_a_function_of_the_seed():
    from perfbench.checks import key_hash

    assert _texts(inputs.cold_batch(3, 1)) == _texts(inputs.cold_batch(3, 1))
    assert _texts(inputs.cold_batch(3, 1)) != _texts(inputs.cold_batch(5, 1))
    # Batch 0 of every seed is a renamed E13.
    assert [key_hash(*pair) for pair in inputs.cold_batch(3, 0)] == [
        key_hash(*pair) for pair in inputs.e13()
    ]


def test_wide_batch_is_a_function_of_the_seed():
    first = _texts(inputs.wide_batch(random.Random(11), "ab_"))
    assert first == _texts(inputs.wide_batch(random.Random(11), "ab_"))
    assert first != _texts(inputs.wide_batch(random.Random(12), "ab_"))
    assert inputs.prefix(random.Random(1)) != inputs.prefix(random.Random(2))


def test_warm_requests_never_repeat_text_but_keep_e13_keys():
    from perfbench.checks import key_hash

    base = inputs.e13()[:6]
    indices, pairs = inputs.warm_request(random.Random(5), base, serial=0)
    again = inputs.warm_request(random.Random(5), base, serial=0)
    assert (indices, _texts(pairs)) == (again[0], _texts(again[1]))
    assert indices != inputs.warm_request(random.Random(6), base, serial=0)[0]
    later = inputs.warm_request(random.Random(5), base, serial=1)[1]
    assert not set(_texts(pairs)) & set(_texts(later))
    for index, (q1, q2) in zip(indices, pairs):
        assert key_hash(q1, q2) == key_hash(*base[index])


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #
def test_wrappers_record_and_are_removed_after_the_traced_run():
    from repro.cq.parser import parse_query
    from repro.service import ContainmentService

    originals = [
        Instrumentation.resolve(target)[0].__dict__[Instrumentation.resolve(target)[1]]
        for target in TARGETS
    ]
    tracer = Tracer()
    pair = (parse_query("R(x,y), R(y,z), R(z,x)"), parse_query("R(a,b), R(a,c)"))
    with Instrumentation(tracer):
        with ContainmentService() as service:
            service.run([pair, pair])
    for target, original in zip(TARGETS, originals):
        owner, name = Instrumentation.resolve(target)
        assert owner.__dict__[name] is original, target
    assert tracer.counts["canonical.calls"] == 2
    assert tracer.counts["engine.pipelines"] == 1
    assert tracer.counts["inequality.calls"] == 1
    assert all(span.end is not None for span in tracer.spans)


def test_wrappers_are_removed_when_the_traced_run_raises():
    from repro.core import containment

    original = containment.__dict__["build_containment_inequality"]
    with pytest.raises(RuntimeError):
        with Instrumentation(Tracer()):
            assert containment.build_containment_inequality is not original
            raise RuntimeError("traced run failed")
    assert containment.build_containment_inequality is original


def test_metric_tables_match_benchmark_json():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# ---------------------------------------------------------------------- #
# Store audit
# ---------------------------------------------------------------------- #
def test_store_audit_verifies_in_children_and_waits_for_them(tmp_path):
    from perfbench.checks import VerdictCheck, live_children
    from repro.cq.parser import parse_query
    from repro.service import ContainmentService

    store = str(tmp_path / "audit.sqlite")
    pairs = [("R(x,y), R(y,z)", "R(x,y)"), ("R(x,y)", "R(x,y), R(y,z)")]
    with ContainmentService(store_path=store) as service:
        service.run([(parse_query(a), parse_query(b)) for a, b in pairs])
    before = live_children()
    check = VerdictCheck({})
    check.audit([store])
    assert check.failed == 0, check.problems
    assert check.audited_records == 2
    assert live_children() == before


# ---------------------------------------------------------------------- #
# Host-speed probe
# ---------------------------------------------------------------------- #
def test_speed_probe_samples_at_most_once_per_interval_and_exits():
    from perfbench.speed import REFERENCE_SECONDS, REPEATS, SpeedProbe

    probe = SpeedProbe()
    try:
        probe.maybe_sample()
        probe.maybe_sample()  # within INTERVAL_SECONDS of the first: skipped
    finally:
        probe.close()
    assert len(probe.samples) == REPEATS
    assert all(sample > 0 for sample in probe.samples)
    assert probe.slowdown() == pytest.approx(
        sum(probe.samples) / REPEATS / REFERENCE_SECONDS
    )
    assert probe._child.poll() is not None
    assert len(probe.points) == 1


@pytest.mark.parametrize(
    "at, expected",
    [(0.0, 2.0), (1.0, 2.0), (2.0, 1.5), (3.0, 1.0), (4.0, 3.0), (9.0, 3.0)],
)
def test_slowdown_is_interpolated_between_sampling_points(at, expected):
    from perfbench.speed import interpolate

    assert interpolate([(1.0, 2.0), (3.0, 1.0), (4.0, 3.0)], at) == pytest.approx(expected)
