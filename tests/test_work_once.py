"""Each piece of ``reproduce`` work happens once: generation hashes,
replay tapes, global cells and process lifetimes; a warm artifact cache
serves traces without building event objects."""

from __future__ import annotations

import collections

import pytest

import repro.sim.engine as engine
import repro.sim.experiment as experiment
import repro.sim.fused as fused
import repro.workloads.base as workload_base
import repro.workloads.suite as workload_suite
from repro import cli
from repro.analysis.tables import build_table1, build_table3
from repro.config import SimulationConfig
from repro.sim.experiment import ExperimentRunner
from repro.traces.store import StoreBackedTrace, TraceStore
from repro.traces.trace import ApplicationTrace, ExecutionTrace
from repro.workloads import build_suite
from repro.workloads.base import FileSpace
from repro.workloads.rng import stable_seed


def _count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_reproduce_builds_one_tape_per_execution(monkeypatch, capsys):
    scale = 0.05
    executions = sum(len(trace) for trace in build_suite(scale=scale).values())
    counts: collections.Counter = collections.Counter()
    _count_calls(monkeypatch, counts, fused, "build_replay_tape")
    _count_calls(monkeypatch, counts, experiment, "run_global_execution")
    _count_calls(monkeypatch, counts, engine, "run_global_execution")
    _count_calls(monkeypatch, counts, experiment, "evaluate_local_stream")
    _count_calls(monkeypatch, counts, ExecutionTrace, "lifetimes")

    assert cli.main(["reproduce", "--scale", str(scale)]) == 0
    assert "shape checks passed" in capsys.readouterr().out
    assert counts["build_replay_tape"] == executions
    assert counts["run_global_execution"] == 0
    assert counts["lifetimes"] == executions
    # Figure 6's local cells are the one classic path left.
    assert counts["evaluate_local_stream"] > 0


def test_warm_cache_reproduce_builds_no_event_objects(
    monkeypatch, capsys, tmp_path
):
    """A warm ``--cache-dir`` run reads every trace as a memory-mapped
    segment: no generator runs and no store row is decoded into events,
    and its stdout is the fill run's and the uncached run's, byte for
    byte."""
    argv = ["reproduce", "--scale", "0.05"]
    cached = argv + ["--cache-dir", str(tmp_path / "cache")]
    counts: collections.Counter = collections.Counter()
    _count_calls(monkeypatch, counts, TraceStore, "decode_rows")
    _count_calls(monkeypatch, counts, workload_base, "build_execution")
    _count_calls(
        monkeypatch, counts, workload_suite, "build_application_trace"
    )
    runners = []
    make_runner = cli._runner

    def recording_runner(*args, **kwargs):
        runners.append(make_runner(*args, **kwargs))
        return runners[-1]

    monkeypatch.setattr(cli, "_runner", recording_runner)
    outputs = []
    runs = []
    for command in (argv, cached, cached):
        counts.clear()
        assert cli.main(command) == 0
        outputs.append(capsys.readouterr().out)
        runs.append(dict(counts))
    _, fill, warm = runs
    suite_types = [
        {type(trace) for trace in runner.suite.values()} for runner in runners
    ]
    # The fill generates and keeps its in-memory traces ...
    assert fill["build_application_trace"] == len(workload_suite.APPLICATIONS)
    assert fill["build_execution"] > 0
    assert "decode_rows" not in fill
    assert suite_types[1] == {ApplicationTrace}
    # ... and the warm run replays memory-mapped segments, neither
    # generating nor decoding.
    assert warm == {}
    assert suite_types[2] == {StoreBackedTrace}
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_global_matrix_replays_only_missing_lanes(monkeypatch, small_suite):
    runner = ExperimentRunner(
        {"nedit": small_suite["nedit"]}, SimulationConfig()
    )
    lanes: list[str] = []
    replay = fused.replay_execution

    def counted(tape, spec, config):
        lanes.append(spec.name)
        return replay(tape, spec, config)

    monkeypatch.setattr(fused, "replay_execution", counted)
    first = runner.run_matrix(["TP", "PCAP"])
    executions = len(small_suite["nedit"])
    assert lanes.count("TP") == lanes.count("PCAP") == executions
    lanes.clear()
    second = runner.run_matrix(["PCAP", "Base", "PCAP"])
    assert lanes == ["Base"] * executions
    assert second["nedit"]["PCAP"] is first["nedit"]["PCAP"]
    assert list(second["nedit"]) == ["PCAP", "Base"]
    lanes.clear()
    assert build_table3(runner, variants=("PCAP",))[0].entries == {
        "PCAP": first["nedit"]["PCAP"].table_size
    }
    assert lanes == []


def test_with_config_clone_does_not_share_results(small_suite):
    suite = {"nedit": small_suite["nedit"]}
    runner = ExperimentRunner(suite, SimulationConfig())
    runner.run_matrix(["TP"])
    clone = runner.with_config(SimulationConfig(timeout=2.0))
    assert clone.run_matrix(["TP"]) == ExperimentRunner(
        suite, SimulationConfig(timeout=2.0)
    ).run_matrix(["TP"])
    assert clone.run_matrix(["TP"]) != runner.run_matrix(["TP"])


def _everything(runner):
    return (
        runner.run_matrix(["TP", "PCAP"]),
        runner.run_matrix(["PCAP"], mode="local"),
        build_table1(runner),
    )


def test_memos_are_scoped_to_their_runner():
    """Two suites with overlapping (application, execution index) pairs
    but different traces: neither runner may see the other's memoized
    results or lifetimes."""
    apps = ("nedit", "xemacs")
    suites = [build_suite(scale=s, applications=apps) for s in (0.1, 0.3)]
    runners = [ExperimentRunner(suite, SimulationConfig()) for suite in suites]
    results = [_everything(runner) for runner in runners]
    assert results[0] != results[1]
    for suite, runner, result in zip(suites, runners, results):
        assert result == _everything(
            ExperimentRunner(suite, SimulationConfig())
        )
        for application, trace in suite.items():
            for position, execution in enumerate(trace):
                assert runner.execution_lifetimes(
                    application, position, execution
                ) == execution.lifetimes()


@pytest.mark.parametrize("application", ["mozilla", "writer"])
def test_file_space_inode_is_the_stable_hash(application):
    space = FileSpace(application, 3)
    for name in ("profile", "shared.cfg", "novel_0_0_file"):
        expected = stable_seed("inode", application, name) & 0xFFFFF
        assert space.inode(name) == expected
        assert space.inode(name) == expected  # memoized value
    assert FileSpace("mozilla", 0).inode("shared.cfg") != FileSpace(
        "writer", 0
    ).inode("shared.cfg")
