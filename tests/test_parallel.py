"""The parallel execution layer (repro.sim.parallel).

The load-bearing property is determinism: a parallel run must be
*bit-identical* to the serial run, because the reducer folds cell
results in stable index order either way.  These tests exercise that
equivalence end-to-end with a real process pool (jobs=2), plus the
supporting contracts — result dataclasses survive pickling, ``jobs=1``
never spawns a pool, and ``resolve_jobs`` honours ``REPRO_JOBS``.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import time

import pytest

from repro.config import JOBS_ENV_VAR, SimulationConfig, default_jobs
from repro.errors import ConfigurationError
from repro.predictors.registry import tp_spec
from repro.sim import parallel as parallel_module
from repro.sim.experiment import ExperimentRunner
from repro.sim.parallel import (
    CellProgress,
    ExperimentCell,
    ParallelExperimentRunner,
    execute_cells,
    fork_available,
    resolve_jobs,
    stderr_progress,
)
from repro.sim.sweep import sweep

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel layer needs the fork start method"
)

APPS = ("mozilla", "xemacs")
TIMEOUTS = (2.0, 10.0)


@pytest.fixture(scope="module")
def parallel_runner(small_suite):
    return ParallelExperimentRunner(small_suite, SimulationConfig())


# ---------------------------------------------------------------------------
# Serial vs parallel equivalence
# ---------------------------------------------------------------------------


def test_run_matrix_parallel_matches_serial(parallel_runner):
    predictors = ["TP", "PCAP"]
    serial = parallel_runner.run_matrix(
        predictors, applications=APPS, jobs=1
    )
    # A clone without the first run's memoized results, so the pooled
    # path really runs.
    threaded = parallel_runner.with_config(parallel_runner.config).run_matrix(
        predictors, applications=APPS, jobs=2
    )
    # ApplicationResult is a (frozen) dataclass tree of floats/ints, so
    # == here is exact — bit-identical, not approximately equal.
    assert serial == threaded
    assert list(serial) == list(threaded) == list(APPS)


def test_run_suite_parallel_matches_serial(parallel_runner):
    # Each run on its own clone, so neither reads results memoized by
    # an earlier run and both the serial and the pooled path execute.
    fresh = lambda: parallel_runner.with_config(parallel_runner.config)
    serial = fresh().run_suite("PCAP", applications=APPS, jobs=1)
    threaded = fresh().run_suite("PCAP", applications=APPS, jobs=2)
    assert serial == threaded


def test_sweep_parallel_matches_serial(parallel_runner):
    make = lambda t, cfg: tp_spec(cfg, timeout=t)
    serial = sweep(
        parallel_runner, TIMEOUTS, make_spec=make, applications=APPS, jobs=1
    )
    threaded = sweep(
        parallel_runner, TIMEOUTS, make_spec=make, applications=APPS, jobs=2
    )
    assert serial == threaded


def test_parallel_matches_plain_serial_runner(small_suite):
    """ParallelExperimentRunner(jobs=2) equals a plain ExperimentRunner."""
    serial_runner = ExperimentRunner(small_suite, SimulationConfig())
    expected = {
        app: serial_runner.run_global(app, "PCAP") for app in APPS
    }
    threaded = ParallelExperimentRunner(
        small_suite, SimulationConfig(), jobs=2
    )
    assert threaded.run_suite("PCAP", applications=APPS) == expected


# ---------------------------------------------------------------------------
# Pickling (cells and results must cross the process boundary)
# ---------------------------------------------------------------------------


def test_cell_and_result_dataclasses_pickle(parallel_runner):
    cell = ExperimentCell(index=3, application="mozilla", predictor="PCAP")
    assert pickle.loads(pickle.dumps(cell)) == cell

    result = parallel_runner.run_global("mozilla", "PCAP")
    restored = pickle.loads(pickle.dumps(result))
    assert restored == result
    assert restored.energy == result.energy
    assert restored.stats == result.stats


def test_sweep_point_pickles(parallel_runner):
    (point,) = sweep(
        parallel_runner,
        [5.0],
        make_spec=lambda t, cfg: tp_spec(cfg, timeout=t),
        applications=APPS,
    )
    assert pickle.loads(pickle.dumps(point)) == point


# ---------------------------------------------------------------------------
# jobs resolution and the serial fast path
# ---------------------------------------------------------------------------


def test_jobs_one_never_spawns_a_pool(parallel_runner, monkeypatch):
    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("jobs=1 must not create a process pool")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", explode
    )
    monkeypatch.setattr(
        parallel_module, "ProcessPoolExecutor", explode
    )
    runner = parallel_runner.with_config(parallel_runner.config)
    results = runner.run_suite("TP", applications=APPS, jobs=1)
    assert set(results) == set(APPS)


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert default_jobs() == 1
    assert resolve_jobs(None) == 1  # serial unless opted in

    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    assert resolve_jobs(None) == 3

    monkeypatch.setenv(JOBS_ENV_VAR, "0")  # 0 = all cores
    assert resolve_jobs(None) >= 1

    monkeypatch.setenv(JOBS_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigurationError):
        resolve_jobs(None)

    monkeypatch.setenv(JOBS_ENV_VAR, "not-a-number")
    assert resolve_jobs(4) == 4  # explicit beats the environment
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert resolve_jobs(-2) >= 1  # programmatic negatives mean all cores


def test_execute_cells_empty():
    assert execute_cells([], lambda cell: None, jobs=4) == []


def test_worker_exception_cleans_up_pool_state(tmp_path):
    """A failing cell must propagate without leaking the module-global
    runner or leaving queued cells running (fail-fast but clean)."""

    def run_cell(cell: ExperimentCell) -> int:
        if cell.index == 0:
            raise RuntimeError("poisoned cell")
        time.sleep(0.05)
        (tmp_path / f"ran-{cell.index}").touch()
        return cell.index

    cells = [
        ExperimentCell(index=i, application=f"app{i}", predictor="TP")
        for i in range(32)
    ]
    with pytest.raises(RuntimeError, match="poisoned cell"):
        execute_cells(cells, run_cell, jobs=2)
    # The inherited-closure global is always cleared...
    assert parallel_module._WORKER_RUN_CELL is None
    # ...and the pending tail was cancelled, not drained: with 32 slow
    # cells and 2 workers, a full drain would have run nearly all of
    # them after the poisoned cell failed.
    assert len(list(tmp_path.glob("ran-*"))) < len(cells) - 1


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------


def test_progress_hook_fires_per_cell(parallel_runner):
    events: list[CellProgress] = []
    runner = ParallelExperimentRunner(
        parallel_runner.suite,
        SimulationConfig(),
        jobs=2,
        progress=events.append,
    )
    runner.run_suite("TP", applications=APPS)
    assert len(events) == len(APPS)
    assert {event.cell.application for event in events} == set(APPS)
    assert sorted(event.completed for event in events) == [1, 2]
    assert all(event.total == len(APPS) for event in events)
    assert all(event.wall_time >= 0.0 for event in events)


def test_stderr_progress_formats(capsys):
    cell = ExperimentCell(index=0, application="mozilla", predictor="TP")
    stderr_progress(CellProgress(cell, wall_time=0.5, completed=1, total=4))
    captured = capsys.readouterr()
    assert "[1/4] mozilla × TP" in captured.err
