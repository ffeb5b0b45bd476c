"""Golden outputs: pinned digests of every result the simulator reports.

Correct output is defined here apart from any implementation.  The
digests in ``tests/golden/results.json`` were generated once and are
never regenerated to make a change pass; a digest mismatch means the
simulation's semantics drifted, whichever execution path produced it.

Pinned:

* every :class:`~repro.sim.experiment.ApplicationResult` field of all
  ``KNOWN_PREDICTORS`` × six applications in global mode at the
  ``repro bench --quick`` workload scale — ledger buckets, stats
  counters, shutdowns and delays, floats as ``float.hex``;
* local mode (Figure 6) and the §7 multistate disk for the PCAP family;
* the sha256 of ``repro reproduce --scale 0.25`` stdout and its
  shape-check verdict line;
* the sha256 of ``repro report --scale 0.25`` stdout
  (``tests/golden/report.json``);
* the manifest fingerprints of ``repro trace pack --scale 0.05``
  (``tests/golden/store.json``).

Each mode is checked through the per-cell path (``run_global`` /
``run_local``) and through the matrix path the CLI and figures use.

Regenerate (only when a change is *meant* to alter results, and say so
in the change description)::

    PYTHONPATH=src python -m tests.test_golden --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.config import SimulationConfig
from repro.predictors.registry import KNOWN_PREDICTORS
from repro.sim.experiment import ExperimentRunner
from repro.sim.parallel import ParallelExperimentRunner
from repro.workloads import APPLICATIONS, build_suite

from .helpers import canonical, per_cell_matrix

GOLDEN_PATH = Path(__file__).parent / "golden" / "results.json"
REPORT_GOLDEN_PATH = Path(__file__).parent / "golden" / "report.json"
STORE_GOLDEN_PATH = Path(__file__).parent / "golden" / "store.json"

#: The ``repro bench --quick`` workload scale.
QUICK_SCALE = 0.4

#: The PCAP family: the predictors pinned in local and multistate mode.
PCAP_FAMILY = ("PCAP", "PCAPh", "PCAPf", "PCAPfh", "PCAPa", "PCAPc", "PCAPp")

REPRODUCE_SCALE = 0.25

#: The ``repro trace pack`` scale whose manifest fingerprints are pinned.
PACK_SCALE = 0.05

SHAPE_RE = re.compile(r"^.*\d+/\d+ shape checks passed.*$", re.MULTILINE)


def result_digest(result) -> str:
    """sha256 over every field of one result."""
    text = json.dumps(canonical(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix_digests(matrix) -> dict[str, str]:
    return {
        f"{application}/{name}": result_digest(result)
        for application, row in matrix.items()
        for name, result in row.items()
    }


def command_stdout(command: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([command, "--scale", str(REPRODUCE_SCALE)])
    assert code == 0
    return buffer.getvalue()


def reproduce_stdout() -> str:
    return command_stdout("reproduce")


def report_golden() -> dict:
    text = command_stdout("report")
    return {
        "scale": REPRODUCE_SCALE,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def reproduce_golden(text: str) -> dict[str, str]:
    match = SHAPE_RE.search(text)
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "shape_checks": match.group(0).strip() if match else "",
    }


def store_golden(out: Path) -> dict:
    """Pack the suite at :data:`PACK_SCALE` into ``out`` and return
    its manifest fingerprints."""
    from repro.traces.store import TraceStore

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            ["trace", "pack", "--scale", str(PACK_SCALE), "--out", str(out)]
        )
    assert code == 0
    store = TraceStore(out)
    return {
        "scale": PACK_SCALE,
        "rows": store.rows,
        "fingerprint": store.fingerprint,
        "applications": store.fingerprints(),
    }


def _suite():
    return build_suite(scale=QUICK_SCALE, applications=APPLICATIONS)


def generate() -> dict:
    """Compute every golden digest from the per-cell reference path."""
    runner = ExperimentRunner(_suite(), SimulationConfig())
    return {
        "scale": QUICK_SCALE,
        "global": matrix_digests(per_cell_matrix(runner, KNOWN_PREDICTORS)),
        "local": matrix_digests(
            per_cell_matrix(runner, PCAP_FAMILY, mode="local")
        ),
        "multistate": matrix_digests(
            per_cell_matrix(runner, PCAP_FAMILY, multistate=True)
        ),
        "reproduce": {
            "scale": REPRODUCE_SCALE,
            **reproduce_golden(reproduce_stdout()),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(_suite(), SimulationConfig())


@pytest.fixture(scope="module")
def parallel_runner() -> ParallelExperimentRunner:
    return ParallelExperimentRunner(_suite(), SimulationConfig(), jobs=1)


def assert_matches(actual: dict[str, str], expected: dict[str, str]) -> None:
    assert sorted(actual) == sorted(expected)
    drifted = sorted(key for key in expected if actual[key] != expected[key])
    assert not drifted, f"results drifted from the golden digests: {drifted}"


def test_golden_file_covers_the_registry(golden):
    assert golden["scale"] == QUICK_SCALE
    assert len(golden["global"]) == len(KNOWN_PREDICTORS) * len(APPLICATIONS)
    assert len(golden["local"]) == len(PCAP_FAMILY) * len(APPLICATIONS)
    assert len(golden["multistate"]) == len(PCAP_FAMILY) * len(APPLICATIONS)


def test_global_per_cell_matches_golden(runner, golden):
    assert_matches(
        matrix_digests(per_cell_matrix(runner, KNOWN_PREDICTORS)),
        golden["global"],
    )


def test_global_matrix_matches_golden(runner, parallel_runner, golden):
    assert_matches(
        matrix_digests(runner.run_matrix(KNOWN_PREDICTORS)), golden["global"]
    )
    assert_matches(
        matrix_digests(parallel_runner.run_matrix(KNOWN_PREDICTORS)),
        golden["global"],
    )


def test_local_mode_matches_golden(runner, parallel_runner, golden):
    assert_matches(
        matrix_digests(per_cell_matrix(runner, PCAP_FAMILY, mode="local")),
        golden["local"],
    )
    assert_matches(
        matrix_digests(parallel_runner.run_matrix(PCAP_FAMILY, mode="local")),
        golden["local"],
    )


def test_multistate_matches_golden(runner, parallel_runner, golden):
    assert_matches(
        matrix_digests(per_cell_matrix(runner, PCAP_FAMILY, multistate=True)),
        golden["multistate"],
    )
    assert_matches(
        matrix_digests(
            parallel_runner.run_matrix(PCAP_FAMILY, multistate=True)
        ),
        golden["multistate"],
    )


def test_reproduce_stdout_matches_golden(golden):
    expected = golden["reproduce"]
    assert expected["scale"] == REPRODUCE_SCALE
    actual = reproduce_golden(reproduce_stdout())
    assert actual["shape_checks"] == expected["shape_checks"]
    assert actual["sha256"] == expected["sha256"]


def test_report_stdout_matches_golden():
    expected = json.loads(REPORT_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert report_golden() == expected


def test_pack_fingerprints_match_golden(tmp_path):
    expected = json.loads(STORE_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert store_golden(tmp_path / "store") == expected


def _write_json(path: Path, value: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(value, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    _write_json(GOLDEN_PATH, generate())
    _write_json(REPORT_GOLDEN_PATH, report_golden())
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write_json(STORE_GOLDEN_PATH, store_golden(Path(scratch) / "store"))
