"""CI gate: the fused sweep kernel is bit-identical to the per-cell path.

Every global matrix and sweep runs through the fused single-pass kernel
(``repro.sim.fused``).  This gate rebuilds the paper's sweep shapes from
the classic reference instead — one ``runner.run_global`` simulation per
(application × variant) cell, folded exactly as ``sweep()`` documents —
and fails loudly if any table differs by even a bit:

* the TP timeout ladder (the Figure-7 parameter sweep), serial and on a
  2-worker pool,
* the PCAP family matrix (PCAP/PCAPh/PCAPf/PCAPfh + Base), serial and
  on a 2-worker pool,
* the full predictor registry (every KNOWN_PREDICTORS name, including
  the learned family QDPM/SKI/PI), serial and on a 2-worker pool —
  run on the same runner after the PCAP family, so it replays only the
  lanes the runner has not memoized,
* the learned-family hyperparameter ladders — the ski-rental λ sweep
  and Q-DPM exploration-seed lanes — whose lanes are stateful generic
  lanes with seeded pseudo-randomness; fused vs per-cell here proves
  the engine call order (and hence the deterministic draw stream) is
  identical in both paths, and
* adversarial duplicate/shadowed lane sets — the same lane twice, and
  distinct lanes hiding behind one label — each fused lane diffed
  against an independent per-cell run of an equivalent fresh spec.

On mismatch the script prints a unified diff of the two result tables
(one line per application × variant, every result field) and exits
non-zero.  Scale defaults to 0.25 (override with
``REPRO_EQUIV_SCALE``) so the gate stays inside the CI smoke budget.

Run:  PYTHONPATH=src python tools/check_fused_equivalence.py
"""

from __future__ import annotations

import difflib
import os
import sys
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import SimulationConfig
from repro.predictors.registry import (
    KNOWN_PREDICTORS,
    base_spec,
    pcap_spec,
    qdpm_spec,
    ski_spec,
    tp_spec,
)
from repro.sim.fused import run_fused_cells
from repro.sim.metrics import PredictionStats
from repro.sim.parallel import ParallelExperimentRunner, fork_available
from repro.sim.sweep import SweepPoint, sweep
from repro.workloads import build_suite

TIMEOUTS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
PCAP_FAMILY = ("PCAP", "PCAPh", "PCAPf", "PCAPfh", "Base")
SKI_LAMBDAS = (0.0, 0.25, 0.5, 1.0)
QDPM_SEEDS = (0, 1, 7)

#: Adversarial lane sets: exact duplicates (same spec twice) and
#: shadowed lanes (different semantics behind one label).  The fused
#: kernel must keep each lane independent — never collapse by name.
ADVERSARIAL_LANES = (
    ("TP(2s)", lambda config: tp_spec(config, timeout=2.0, name="TP(2s)")),
    ("TP(2s)", lambda config: tp_spec(config, timeout=2.0, name="TP(2s)")),
    ("dup", lambda config: tp_spec(config, timeout=5.0, name="dup")),
    ("dup", lambda config: tp_spec(config, timeout=0.5, name="dup")),
    ("Base", lambda config: base_spec()),
    ("Base", lambda config: base_spec()),
    ("PCAP", lambda config: pcap_spec(config)),
    ("PCAP", lambda config: pcap_spec(config)),
)


def describe_result(result) -> str:
    """One stable line per ApplicationResult, every field spelled out."""
    parts = []
    for field in fields(result):
        value = getattr(result, field.name)
        parts.append(f"{field.name}={value!r}")
    return " ".join(parts)


def sweep_table(points) -> list[str]:
    return [f"point {describe_result(point)}" for point in points]


def matrix_table(matrix) -> list[str]:
    lines = []
    for application in sorted(matrix):
        for name in sorted(matrix[application]):
            result = matrix[application][name]
            lines.append(
                f"{application} × {name}: {describe_result(result)}"
            )
    return lines


def check(label: str, fused_lines: list[str], classic_lines: list[str]) -> bool:
    if fused_lines == classic_lines:
        print(f"ok: {label} — {len(fused_lines)} rows bit-identical")
        return True
    print(f"MISMATCH: {label}", file=sys.stderr)
    diff = difflib.unified_diff(
        classic_lines,
        fused_lines,
        fromfile=f"{label} (per-cell)",
        tofile=f"{label} (fused)",
        lineterm="",
    )
    for line in diff:
        print(line, file=sys.stderr)
    return False


def adversarial_pass(runner, config, jobs: int) -> bool:
    """Duplicate/shadowed lane sets, fused vs independent classic runs.

    The fused kernel runs all lanes of :data:`ADVERSARIAL_LANES` in one
    pass per application; the reference runs each lane separately with
    a fresh equivalent spec through the classic per-cell engine.  Lane
    identity (not label identity) must decide the results.
    """
    labels = [label for label, _ in ADVERSARIAL_LANES]
    outcomes, _ = run_fused_cells(
        runner,
        runner.applications,
        labels,
        lambda: [factory(config) for _, factory in ADVERSARIAL_LANES],
        jobs=jobs,
        use_cache=False,
    )
    fused_lines = []
    classic_lines = []
    for application in runner.applications:
        lane_results = outcomes[application].results
        for lane, (label, factory) in enumerate(ADVERSARIAL_LANES):
            fused_lines.append(
                f"{application} lane {lane} ({label}): "
                f"{describe_result(lane_results[lane])}"
            )
            classic = runner.run_global(application, factory(config))
            classic_lines.append(
                f"{application} lane {lane} ({label}): "
                f"{describe_result(classic)}"
            )
    return check(
        f"duplicate/shadowed lanes (jobs={jobs})", fused_lines, classic_lines
    )


def per_cell_matrix(runner, names) -> dict:
    """``{application: {name: result}}``, one ``run_global`` per cell."""
    return {
        application: {
            name: runner.run_global(application, name) for name in names
        }
        for application in runner.applications
    }


def per_cell_sweep(runner, values, make) -> list[SweepPoint]:
    """``sweep()``'s points rebuilt from one ``run_global`` per (value ×
    application) cell plus one Base cell per application, folded in the
    documented (value-major, application-order) sequence."""
    config = runner.config
    base = {
        application: runner.run_global(application, "Base")
        for application in runner.applications
    }
    points = []
    for value in values:
        stats = PredictionStats()
        energy = base_energy = 0.0
        shutdowns = delayed = irritating = accesses = 0
        for application in runner.applications:
            result = runner.run_global(application, make(value, config))
            stats.merge(result.stats)
            energy += result.energy
            shutdowns += result.shutdowns
            delayed += result.delayed_requests
            irritating += result.irritating_delays
            accesses += result.total_disk_accesses
            base_energy += base[application].energy
        points.append(
            SweepPoint(
                value=value,
                hit_fraction=stats.hit_fraction,
                miss_fraction=stats.miss_fraction,
                hit_primary_fraction=stats.hit_primary_fraction,
                hit_backup_fraction=stats.hit_backup_fraction,
                energy=energy,
                savings=1.0 - energy / base_energy if base_energy else 0.0,
                shutdowns=shutdowns,
                delayed_requests=delayed,
                irritating_delays=irritating,
                opportunities=stats.opportunities,
                disk_accesses=accesses,
            )
        )
    return points


def main() -> int:
    scale = float(os.environ.get("REPRO_EQUIV_SCALE", "0.25"))
    config = SimulationConfig()
    suite = build_suite(scale=scale)
    runner = ParallelExperimentRunner(suite, config)
    job_counts = [1, 2] if fork_available() else [1]
    if len(job_counts) == 1:
        print("note: fork unavailable, pooled runs skipped", file=sys.stderr)

    sweeps = (
        ("TP timeout sweep", TIMEOUTS,
         lambda value, cfg: tp_spec(
             cfg, timeout=value, name=f"TP({value:g}s)"
         )),
        ("ski-rental lambda sweep", SKI_LAMBDAS,
         lambda value, cfg: ski_spec(cfg, lam=value)),
        ("Q-DPM seed lanes", QDPM_SEEDS,
         lambda value, cfg: qdpm_spec(cfg, seed=value)),
    )
    matrices = (
        ("PCAP family matrix", PCAP_FAMILY),
        ("full registry matrix", KNOWN_PREDICTORS),
    )
    classic_sweeps = {
        label: sweep_table(per_cell_sweep(runner, values, make))
        for label, values, make in sweeps
    }
    classic_matrices = {
        label: matrix_table(per_cell_matrix(runner, names))
        for label, names in matrices
    }

    ok = True
    for jobs in job_counts:
        # A runner memoizes its global matrix results: each job count
        # gets a clone without them.
        matrix_runner = runner.with_config(config)
        for label, values, make in sweeps:
            ok &= check(
                f"{label} (jobs={jobs})",
                sweep_table(sweep(runner, values, make_spec=make, jobs=jobs)),
                classic_sweeps[label],
            )
        for label, names in matrices:
            ok &= check(
                f"{label} (jobs={jobs})",
                matrix_table(matrix_runner.run_matrix(names, jobs=jobs)),
                classic_matrices[label],
            )
        ok &= adversarial_pass(runner, config, jobs)

    if not ok:
        print("fused equivalence gate FAILED", file=sys.stderr)
        return 1
    print("fused equivalence gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
