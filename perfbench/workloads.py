"""The workloads: set-up, timed repetitions and output checks.

Every command runs as a separate process with tracing off, serially
(``--jobs`` left at its default of 1).  A run repeats the timed command
until ``--seconds`` have passed and at least ``min_reps`` repetitions
are done, and reports medians, so that one slow repetition does not
move a run's figures.  Set-up is repeated ``setups`` times for the same
reason.

Why each workload is here:

* ``reproduce-cold`` -- ``repro reproduce`` with no cache: generation,
  the page-cache filter, classic replay and analysis all on the
  blocking path.
* ``reproduce-warm`` -- the same command over an artifact cache filled
  during set-up: generation and the filter are bypassed, so replay and
  trace decode dominate, and a generation-only change must read "no
  change" here.
* ``matrix-store`` -- ``repro run --store`` with every registered
  predictor over a store packed during set-up: no generation and no
  analysis; the store column path of the filter runs once per cell and
  the predictor layer is exercised in full.
* ``serve-stream`` -- the ``repro serve`` daemon (two shards) fed by a
  closed-loop client: the same replay online, one execution at a time,
  with a journal fsynced per execution.  Without it the serve layer
  would go unmeasured.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from perfbench.procs import ProcessGroup

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Sizes per profile.  ``full`` is what the benchmark runs; ``tiny`` is
#: the smoke-test size.  Scales below 0.7 fail some of the paper's 19
#: shape checks for lack of idle periods; the check here is that the
#: verdicts equal the recorded ones at the scale run.  The serve suite at
#: 0.5 holds 98 executions, so the ``serve_passes`` a run makes at least
#: pool 392 latencies, with 39 beyond p90.
PROFILES = {
    "full": {"reproduce": 0.25, "matrix": 0.15, "serve": 0.5,
             "setups": 3, "min_reps": 3, "serve_passes": 4},
    "tiny": {"reproduce": 0.05, "matrix": 0.05, "serve": 0.05,
             "setups": 2, "min_reps": 1, "serve_passes": 2},
}

#: Seconds one command may take before its process group is killed.
COMMAND_TIMEOUT = 120.0

SHAPE_RE = re.compile(r"^(\d+)/(\d+) shape checks passed$", re.MULTILINE)
ROWS_RE = re.compile(r"\((\d+) rows,")
FAILED_CELL_RE = re.compile(r"^  cell \d+ (\S+) × (\S+): FAILED", re.MULTILINE)


@dataclass
class Context:
    """What every workload needs: paths, processes, sizes, goldens."""

    work: Path
    python: str
    group: ProcessGroup
    seconds: float
    seed: int
    profile: str
    golden: dict

    @property
    def sizes(self) -> dict:
        return PROFILES[self.profile]

    def golden_for(self, key: str):
        entry = self.golden.get(self.profile, {}).get(key)
        if entry is None:
            raise RuntimeError(f"no golden output recorded for {key!r} "
                               f"(profile {self.profile})")
        return entry

    def repro(self, *args: str) -> list[str]:
        return [self.python, "-m", "repro", *args]


@dataclass
class Outcome:
    """Samples and checks of one workload run."""

    walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: Plan for the traced run (see ``perfbench/traced.py``).
    trace_plan: dict = field(default_factory=dict)
    #: Checks the traced run's output the same way as a timed one.
    check: Optional[Callable[[str], tuple[int, int, list]]] = None

    def record(self, attempted: int, failed: int, problems: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


class Window:
    """Repetition numbers for one measurement window.

    Yields at least ``min_reps`` numbers, then more while another
    repetition of the median length so far still fits in ``--seconds``,
    so that a run ends close to its window whatever a repetition costs.
    """

    def __init__(self, ctx: Context, min_reps: Optional[int] = None) -> None:
        self.seconds = ctx.seconds
        self.min_reps = min_reps or ctx.sizes["min_reps"]

    def __iter__(self):
        start = time.perf_counter()
        lengths: list[float] = []
        rep = 0
        while rep < self.min_reps or (
                time.perf_counter() - start
                + statistics.median(lengths) <= self.seconds):
            begun = time.perf_counter()
            yield rep
            lengths.append(time.perf_counter() - begun)
            rep += 1


def _timed_reps(ctx: Context, out: Outcome, argv: list[str],
                check: Callable[[str], tuple[int, int, list]]) -> None:
    """Repeat ``argv`` for the measurement window; check each output."""
    window = Window(ctx)
    for rep in window:
        log = ctx.work / f"rep-{rep}.out"
        finished = ctx.group.run(argv, log, COMMAND_TIMEOUT)
        text = _read(log)
        if finished.returncode != 0:
            raise RuntimeError(
                f"{' '.join(argv[2:])} exited {finished.returncode}:\n"
                f"{text[-2000:]}")
        out.walls.append(finished.wall_s)
        out.latencies_ms.append(finished.wall_s * 1e3)
        out.rss.append(finished.peak_rss_mb)
        out.record(*check(text))


def _check_reproduce(ctx: Context, scale: float):
    golden = ctx.golden_for(f"reproduce@{scale}")

    def check(text: str) -> tuple[int, int, list]:
        problems = []
        match = SHAPE_RE.search(text)
        verdicts = f"{match.group(1)}/{match.group(2)}" if match else None
        if verdicts != golden["shape_checks"]:
            problems.append(f"shape checks {verdicts}, recorded "
                            f"{golden['shape_checks']}")
        if digest(text) != golden["digest"]:
            problems.append("reproduce stdout differs from the golden digest")
        return 1, int(bool(problems)), problems

    return check


def _check_plain(ctx: Context, key: str):
    golden = ctx.golden_for(key)

    def check(text: str) -> tuple[int, int, list]:
        if digest(text) != golden["digest"]:
            return 1, 1, [f"{key} stdout differs from the golden digest"]
        return 1, 0, []

    return check


def matrix_rows(text: str) -> dict[str, str]:
    """``application/predictor -> row digest`` of a ``repro run`` table."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 7 and parts[-2] == "J":
            rows[f"{parts[0]}/{parts[1]}"] = digest(line.strip())[:16]
    return rows


def _check_matrix(ctx: Context, scale: float):
    golden = ctx.golden_for(f"matrix@{scale}")["rows"]

    def check(text: str) -> tuple[int, int, list]:
        rows = matrix_rows(text)
        bad = {key for key, value in golden.items() if rows.get(key) != value}
        bad |= {f"{a}/{p}" for a, p in FAILED_CELL_RE.findall(text)}
        problems = [f"cell {key} differs from the golden table"
                    for key in sorted(bad)]
        return len(golden), len(bad), problems

    return check


def _check_pack(ctx: Context, scale: float):
    golden = ctx.golden_for(f"pack@{scale}")

    def check(text: str) -> tuple[int, int, list]:
        match = ROWS_RE.search(text)
        rows = int(match.group(1)) if match else None
        if rows != golden["rows"]:
            return 1, 1, [f"packed {rows} rows, recorded {golden['rows']}"]
        return 1, 0, []

    return check


def _setup_reps(ctx: Context, out: Outcome, make_argv: Callable[[int], list],
                check: Callable[[str], tuple[int, int, list]]) -> None:
    for index in range(ctx.sizes["setups"]):
        log = ctx.work / f"setup-{index}.out"
        argv = make_argv(index)
        finished = ctx.group.run(argv, log, COMMAND_TIMEOUT)
        text = _read(log)
        if finished.returncode != 0:
            raise RuntimeError(
                f"set-up {' '.join(argv[2:])} exited "
                f"{finished.returncode}:\n{text[-2000:]}")
        out.setups.append(finished.wall_s)
        out.record(*check(text))


def reproduce_cold(ctx: Context) -> Outcome:
    """``repro reproduce`` with no cache; set-up is a start-up probe.

    The set-up runs ``repro table 2`` (no suite) to see that the program
    starts and imports, which is all a cold run needs.
    """
    out = Outcome()
    scale = ctx.sizes["reproduce"]
    _setup_reps(ctx, out, lambda _: ctx.repro("table", "2"),
                _check_plain(ctx, "table2"))
    argv = ctx.repro("reproduce", "--scale", str(scale))
    out.check = _check_reproduce(ctx, scale)
    _timed_reps(ctx, out, argv, out.check)
    out.notes.append("seed unused: the trace generator has fixed seeds")
    out.trace_plan = {"kind": "cli", "setup": None, "run": argv[3:]}
    return out


def reproduce_warm(ctx: Context) -> Outcome:
    """``repro reproduce --cache-dir`` over a cache filled in set-up."""
    out = Outcome()
    scale = ctx.sizes["reproduce"]
    check = _check_reproduce(ctx, scale)

    def fill(index: int) -> list[str]:
        cache = ctx.work / f"cache-{index}"
        shutil.rmtree(cache, ignore_errors=True)
        return ctx.repro("reproduce", "--scale", str(scale),
                         "--cache-dir", str(cache))

    _setup_reps(ctx, out, fill, check)
    argv = ctx.repro("reproduce", "--scale", str(scale),
                     "--cache-dir", str(ctx.work / "cache-0"))
    out.check = check
    _timed_reps(ctx, out, argv, check)
    out.notes.append("seed unused: the trace generator has fixed seeds")
    traced_cache = str(ctx.work / "cache-traced")
    out.trace_plan = {
        "kind": "cli",
        "setup": ["reproduce", "--scale", str(scale),
                  "--cache-dir", traced_cache],
        "run": ["reproduce", "--scale", str(scale),
                "--cache-dir", traced_cache],
    }
    return out


def matrix_store(ctx: Context) -> Outcome:
    """``repro run --store`` with all 20 predictors over a packed store."""
    from perfbench.spans import PREDICTORS

    out = Outcome()
    scale = ctx.sizes["matrix"]

    def pack(index: int) -> list[str]:
        store = ctx.work / f"store-{index}"
        shutil.rmtree(store, ignore_errors=True)
        return ctx.repro("trace", "pack", "--out", str(store),
                         "--scale", str(scale))

    _setup_reps(ctx, out, pack, _check_pack(ctx, scale))

    def run_args(store: str) -> list[str]:
        args = ["run", "--store", store]
        for name in PREDICTORS:
            args += ["--predictor", name]
        return args

    argv = ctx.repro(*run_args(str(ctx.work / "store-0")))
    out.check = _check_matrix(ctx, scale)
    _timed_reps(ctx, out, argv, out.check)
    out.notes.append("seed unused: the store holds the fixed-seed suite")
    traced_store = str(ctx.work / "store-traced")
    out.trace_plan = {
        "kind": "cli",
        "setup": ["trace", "pack", "--out", traced_store,
                  "--scale", str(scale)],
        "run": run_args(traced_store),
        "store": traced_store,
    }
    return out


def serve_stream(ctx: Context) -> Outcome:
    """The serve daemon under the closed-loop load of ``serve_load``."""
    from perfbench import serve_load

    from repro.workloads import build_suite

    out = Outcome()
    scale = ctx.sizes["serve"]
    suite = build_suite(scale=scale)
    verified: dict = {}
    for index in Window(ctx, ctx.sizes["serve_passes"]):
        feeds = serve_load.build_feed(suite, ctx.seed, index)
        result = serve_load.run_pass(
            ctx.group, ctx.python, feeds, ctx.work / f"serve-{index}")
        out.setups.append(result.setup_s)
        out.walls.append(result.wall_s)
        out.rss.append(result.peak_rss_mb)
        out.latencies_ms.extend(s * 1e3 for s in result.latencies_s)
        out.record(*serve_checks(suite, result, verified))
    out.notes.append(
        f"load: closed loop, {serve_load.CLIENTS} client thread and "
        f"connection in one process, {result.attempted} executions per "
        f"pass, feed order from seed {ctx.seed} and the pass number")
    out.trace_plan = {"kind": "serve", "scale": scale, "seed": ctx.seed}
    return out


def serve_checks(suite: dict, result,
                 verified: Optional[dict] = None) -> tuple[int, int, list]:
    """Operations, failures and problems of one serve pass."""
    from perfbench import serve_load

    problems = list(result.errors)
    failed = result.failed
    mismatches = serve_load.equivalence_failures(suite, result, verified)
    if result.exit_code != 0:
        mismatches.append(f"daemon exited {result.exit_code} after drain")
    if mismatches:
        problems.extend(mismatches)
        failed = result.attempted
    return result.attempted, failed, problems


WORKLOADS = {
    "reproduce-cold": reproduce_cold,
    "reproduce-warm": reproduce_warm,
    "matrix-store": matrix_store,
    "serve-stream": serve_stream,
}


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
