"""Arithmetic and naming rules of the benchmark (no program run)."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

from perfbench import metrics as m
from perfbench.spans import Recorder, layer_metrics, snapshot

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# -- percentiles ---------------------------------------------------------

def test_percentile_endpoints_and_median():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert m.percentile(values, 0) == 1.0
    assert m.percentile(values, 100) == 5.0
    assert m.percentile(values, 50) == statistics.median(values)


def test_percentile_interpolates_between_ranks():
    # Rank (4 - 1) * 0.9 = 2.7: 30 + 0.7 * (40 - 30).
    assert m.percentile([10.0, 20.0, 30.0, 40.0], 90) == pytest.approx(37.0)
    assert m.percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        m.percentile([], 50)
    with pytest.raises(ValueError):
        m.percentile([1.0], 101)


def test_tail_sample_rule():
    # 198 executions: p90 leaves 19.8 samples beyond, enough for the rule.
    assert m.samples_beyond(198, 90) == pytest.approx(19.8)
    assert m.samples_beyond(196, 90) >= m.TAIL_SAMPLES
    assert m.samples_beyond(6, 90) < m.TAIL_SAMPLES


def test_tail_percentile_needs_ten_samples_beyond():
    many = [float(v) for v in range(1, 101)]
    assert m.tail_percentile(many, 90) == m.percentile(many, 90)
    few = [1.0, 2.0, 3.0, 10.0]
    assert m.tail_percentile(few, 90) == statistics.median(few)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert m.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert m.quartile_spread([3.0]) == 0.0


# -- self time -----------------------------------------------------------

def _span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 3.0),
             _span(3, 1, 4.0, 8.0), _span(4, 3, 5.0, 6.0)]
    selfs = m.self_times(spans)
    assert selfs == {1: pytest.approx(4.0), 2: pytest.approx(2.0),
                     3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    # Self times partition the root's wall time.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # Two client threads under one stream span overlap in time.
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 0.0, 6.0),
             _span(3, 1, 2.0, 9.0)]
    assert m.self_times(spans)[1] == pytest.approx(1.0)


def test_covered_length_clips_to_window():
    assert m.covered_length([(-1.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == \
        pytest.approx(4.0)
    assert m.covered_length([(1.0, 5.0), (2.0, 3.0), (4.0, 6.0)], 0.0,
                            10.0) == pytest.approx(5.0)
    assert m.covered_length([], 0.0, 1.0) == 0.0


def test_attributed_time_per_thread_union():
    spans = [
        {"name": "serve.stream", "thread": 0, "start": 0.0, "end": 10.0},
        {"name": "serve.submit", "thread": 1, "start": 1.0, "end": 5.0},
        {"name": "serve.wait", "thread": 1, "start": 2.0, "end": 4.0},
        {"name": "serve.submit", "thread": 2, "start": 3.0, "end": 12.0},
    ]
    # Thread 1: 4 s (the nested wait counts once); thread 2: 7 s clipped.
    assert m.attributed_time(spans, 0.0, 10.0, ["serve.stream"]) == \
        pytest.approx(11.0)
    assert m.attributed_time(spans, 0.0, 10.0) == pytest.approx(21.0)


def test_layer_metrics_of_nested_spans():
    spans = [
        {"id": 1, "name": "cli.main", "layer": "cli", "parent": None,
         "thread": 0, "phase": "run", "start": 0.0, "end": 10.0},
        {"id": 2, "name": "filter.execution", "layer": "filter",
         "parent": 1, "thread": 0, "phase": "run", "start": 1.0, "end": 4.0},
        {"id": 3, "name": "experiment.cell.ST", "layer": "experiment",
         "parent": 1, "thread": 0, "phase": "run", "start": 5.0, "end": 9.0},
        {"id": 4, "name": "engine.tape_build", "layer": "engine",
         "parent": 3, "thread": 0, "phase": "run", "start": 6.0, "end": 7.0},
    ]
    values = layer_metrics({"spans": spans, "counters": {
        "run:filter.calls": 40, "run:filter.distinct": 2}},
        wall_s=10.5, process_s=0.5)
    assert values["filter.redundancy"] == 20
    assert values["filter.self_s"] == pytest.approx(3.0)
    assert values["experiment.replay_self_s"] == pytest.approx(3.0)
    assert values["experiment.cell_s.ST"] == pytest.approx(4.0)
    assert values["engine.tape_build_s"] == pytest.approx(1.0)
    # Self times plus interpreter start-up and exit make up the wall.
    assert values["trace.self_sum_s"] == pytest.approx(10.5)
    # The layers' spans cover 7 of cli.main's 10 seconds.
    assert values["trace.coverage"] == pytest.approx(0.7)


def test_layer_metrics_cover_every_per_layer_name():
    produced = set(layer_metrics(snapshot(Recorder()), wall_s=1.0))
    # run.py adds the traced set-up's wall time and the overhead against
    # the untraced runs.
    produced |= {"setup.wall_s", "trace.overhead_s"}
    assert produced == {item["name"] for item in SPEC["per_layer"]}


# -- names ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "reproduce-cold",
                                  "experiment.cell_s.TP-BE", "9lives",
                                  "a" * 64])
def test_valid_names(name):
    assert m.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b",
                                  "a" * 65, "wall_s\n"])
def test_invalid_names(name):
    assert not m.valid_name(name)


@pytest.mark.parametrize("unit,ok", [("ms", True), ("1/s", True),
                                     ("%", True), ("count", True),
                                     ("", False), ("a b", False),
                                     ("x" * 17, False)])
def test_unit_grammar(unit, ok):
    assert m.valid_unit(unit) is ok


def test_benchmark_json_names_and_units_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    units = []
    for item in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(item["name"])
        units.append(item["unit"])
    assert all(m.valid_name(name) for name in names)
    assert all(m.valid_unit(unit) for unit in units)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == [
        "reproduce-cold", "reproduce-warm", "matrix-store", "serve-stream"]
