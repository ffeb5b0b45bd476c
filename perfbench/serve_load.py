"""Closed-loop load for the ``repro serve`` daemon.

The load is one process with :data:`CLIENTS` client thread and one
connection.  The client submits one execution and waits for its
decision before sending the next (a closed loop), so a slower daemon
receives less load rather than a growing queue.

One client, not two: with two, the daemon, its two workers and the
load keep both of the box's two cores busy, so a host that takes either
core away for a moment (the shared box the benchmark was sized on does,
often) stretches every execution, and the stream's timings spread over
twice the bound a change is judged by.  One client keeps one execution
in flight and about one core busy, as the batch workloads do.

The suite is generated and each feed is built before its daemon
starts, so generating the load is timed neither as set-up nor as the
stream.  The workload seed drives only what the benchmark controls: the
order in which the applications' executions are interleaved.  The
traces themselves come from the program's fixed-seed generator, and
each application's executions keep their order, so the decisions do not
depend on the seed.
"""

from __future__ import annotations

import json
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.procs import (
    ProcessGroup,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    tree_bytes,
)

#: Client connections (and threads) of the load process.
CLIENTS = 1
#: Daemon shards, as in the ``repro serve`` default.
SHARDS = 2
PREDICTOR = "PCAP"


def build_feed(suite: dict, seed: int, index: int = 0) -> list[list]:
    """The client's execution list for pass ``index`` of a run.

    Each application's executions keep their recorded order, so every
    pass does the same work and gets the same decisions.  A generator
    seeded from ``(seed, index)`` picks whose execution comes next,
    weighted by what is left.
    """
    rng = random.Random(f"{seed}:{index}")
    queues = {app: list(suite[app].executions) for app in sorted(suite)}
    feed = []
    while queues:
        names = sorted(queues)
        app = rng.choices(names, weights=[len(queues[a]) for a in names])[0]
        feed.append(queues[app].pop(0))
        if not queues[app]:
            del queues[app]
    return [feed]


@dataclass
class PassResult:
    """One daemon lifecycle: spawn, stream the feed, drain."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    health: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    daemon_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    state_bytes: int = 0
    exit_code: Optional[int] = None


def _wait_ready(process, control: str, deadline: float) -> None:
    from repro.errors import ServeError
    from repro.serve.client import control_request

    while time.perf_counter() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon exited {process.returncode} during start-up")
        try:
            if control_request(control, "ping", timeout=2.0).get("ok"):
                return
        except (OSError, ServeError, ValueError):
            time.sleep(0.01)
    raise RuntimeError("daemon did not answer ping in time")


def run_pass(group: ProcessGroup, python: str, feeds: list[list],
             workdir: Path, *, timeout: float = 120.0,
             recorder=None) -> PassResult:
    """Spawn a daemon in ``workdir``, stream ``feeds`` to it, drain it.

    ``recorder`` (a :class:`perfbench.spans.Recorder`) adds one span per
    client thread under a ``serve.stream`` span.  Paths are relative to
    the benchmark's working directory, which keeps the Unix socket path
    short however deep the checkout is.
    """
    from repro.errors import ServeError
    from repro.serve.client import ServeClient, control_request

    workdir.mkdir(parents=True, exist_ok=True)
    socket_path = str(workdir / "s.sock")
    control = socket_path + ".ctl"
    state_dir = workdir / "state"
    result = PassResult()
    process, started = group.start(
        [python, "-m", "repro", "serve", "--socket", socket_path,
         "--state-dir", str(state_dir), "--predictor", PREDICTOR,
         "--shards", str(SHARDS)],
        workdir / "daemon.log",
    )
    _wait_ready(process, control, started + 60.0)
    result.setup_s = time.perf_counter() - started

    lock = threading.Lock()
    window = [float("inf"), 0.0]

    def drive(index: int, feed: list, parent: Optional[dict]) -> None:
        span = None
        if recorder is not None:
            span = recorder.open("serve.client", "serve", parent=parent["id"])
        try:
            with ServeClient(socket_path, f"client-{index}") as client:
                for execution in feed:
                    begin = time.perf_counter()
                    try:
                        decision = client.submit_execution(execution)
                    except (ServeError, OSError) as exc:
                        with lock:
                            result.errors.append(f"client-{index}: {exc}")
                        continue
                    end = time.perf_counter()
                    with lock:
                        result.latencies_s.append(end - begin)
                        result.decisions.append(decision)
                        window[0] = min(window[0], begin)
                        window[1] = max(window[1], end)
        finally:
            if span is not None:
                recorder.close(span)

    result.attempted = sum(len(feed) for feed in feeds)
    stream = recorder.open("serve.stream", "serve") if recorder else None
    threads = [
        threading.Thread(target=drive, args=(index, feed, stream))
        for index, feed in enumerate(feeds)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    if stream is not None:
        recorder.close(stream)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve clients did not finish in time")
    # An execution without a decision failed, whatever stopped it.
    result.failed = result.attempted - len(result.decisions)
    result.wall_s = max(0.0, window[1] - window[0])

    result.health = control_request(control, "health")
    result.tables = control_request(control, "tables")
    workers = [shard["pid"] for shard in result.health.get("shards", ())
               if shard.get("pid")]
    result.daemon_cpu_s = proc_cpu_seconds(process.pid) or 0.0
    result.worker_cpu_s = sum(proc_cpu_seconds(pid) or 0.0
                              for pid in workers)
    worker_rss = [proc_peak_rss_mb(pid) or 0.0 for pid in workers]
    process.send_signal(signal.SIGTERM)
    finished = group.reap(process, started, timeout=60.0)
    result.exit_code = finished.returncode
    result.peak_rss_mb = max([finished.peak_rss_mb, *worker_rss])
    result.state_bytes = tree_bytes(state_dir)
    return result


#: The decision fields ``verify_equivalence`` compares.
CHECKED_FIELDS = ("stats", "energy", "shutdowns", "fired")


def equivalence_failures(suite: dict, result: PassResult,
                         verified: Optional[dict] = None) -> list[str]:
    """Check the pass's decisions against the offline replay.

    ``verify_equivalence`` runs once per application, on that
    application's executions in the order the daemon processed them.
    The offline replay is a pure function of that order, so an
    application whose order, checked decision fields and table equal
    those of one already checked (kept in ``verified`` across a run's
    passes) gets the same verdict without a second replay.
    """
    from repro.serve.harness import ScenarioResult, verify_equivalence

    by_index = {
        (app, execution.execution_index): execution
        for app, trace in suite.items() for execution in trace.executions
    }
    feed: dict[str, list] = {}
    decisions: dict[str, list] = {}
    for decision in sorted(result.decisions,
                           key=lambda d: d.get("app_seq", 0)):
        app = decision["application"]
        feed.setdefault(app, []).append(
            by_index[(app, decision["execution_index"])])
        decisions.setdefault(app, []).append(decision)
    tables = result.tables.get("applications", {})
    verified = {} if verified is None else verified
    failures: list[str] = []
    for app in sorted(feed):
        key = json.dumps([
            app, [execution.execution_index for execution in feed[app]],
            [{name: d.get(name) for name in CHECKED_FIELDS}
             for d in decisions[app]],
            tables.get(app),
        ], sort_keys=True)
        if key not in verified:
            verified[key] = verify_equivalence(ScenarioResult(
                decisions=decisions[app], feed={app: feed[app]},
                health=result.health,
                tables={"applications": {app: tables.get(app)}},
                exit_code=result.exit_code,
            ), predictor=PREDICTOR)
        failures.extend(verified[key])
    return failures


def shard_skew(health: dict) -> float:
    """Largest over smallest executions per shard (min counted as 1)."""
    counts = [shard.get("executions", 0)
              for shard in health.get("shards", ())]
    if not counts:
        return 0.0
    return max(counts) / max(1, min(counts))
