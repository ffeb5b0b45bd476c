"""One traced process: a workload's command in-process, with spans.

Run by ``perfbench/run.py --trace 1`` as::

    python3 perfbench/traced.py PLAN.json RESULT.json

``PLAN.json`` names one command.  For a ``cli`` plan this process
imports ``repro.cli`` (the ``cli.import`` span), installs the wrappers
of :mod:`perfbench.spans` (the ``tracing.install`` span) and calls
``repro.cli.main(argv)`` with stdout captured to a file; the
set-up command and the timed command each get their own process, as
they do untraced.  For a ``serve`` plan it generates the suite and
builds a feed untraced, then drives one daemon pass with the client
layer traced and checks it against the offline replay.

``RESULT.json`` receives every span and counter, plus the monotonic
clock readings the parent needs to line them up with the process's
own wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.procs import ProcessGroup, tree_bytes  # noqa: E402
from perfbench.spans import Recorder, install, snapshot  # noqa: E402


def install_traced(recorder: Recorder) -> None:
    """Install the wrappers inside a ``tracing.install`` span.

    Wrapping is the benchmark's own work, so it gets a layer of its own
    rather than counting as an import of the program.  It imports every
    traced module up front, which the command itself might load lazily
    or not at all.
    """
    with recorder.span("tracing.install", "tracing"):
        install(recorder)


def run_cli(plan: dict, recorder: Recorder) -> dict:
    with recorder.span("cli.import", "cli"):
        from repro.cli import main
    install_traced(recorder)
    # Calls made from main go through the wrappers: install() rebinds
    # the names in every loaded module, main's own globals included.

    with open(plan["stdout"], "w", encoding="utf-8") as stream, \
            contextlib.redirect_stdout(stream):
        with recorder.span("cli.main", "cli"):
            code = main(plan["argv"])
    if code != 0:
        raise RuntimeError(f"traced command exited {code}")
    if plan.get("store"):
        recorder.count("store.bytes", tree_bytes(Path(plan["store"])))
    return {}


def run_serve(plan: dict, recorder: Recorder) -> dict:
    from perfbench import serve_load
    from perfbench.workloads import serve_checks

    # Only the stream is the run phase: the untraced wall_s of this
    # workload times the stream alone, not imports or the feed.
    recorder.phase = "import"
    with recorder.span("cli.import", "cli"):
        import repro.serve.client  # noqa: F401
        from repro.workloads import build_suite
    install_traced(recorder)
    recorder.phase = "feed"

    suite = build_suite(scale=plan["scale"])
    feeds = serve_load.build_feed(suite, plan["seed"])
    recorder.phase = "run"
    group = ProcessGroup(dict(os.environ), Path.cwd())
    try:
        result = serve_load.run_pass(group, sys.executable, feeds,
                                     Path(plan["workdir"]),
                                     recorder=recorder)
    finally:
        group.close()
    recorder.count("serve.restarts", sum(
        shard.get("restarts", 0) for shard in result.health.get("shards", ())))
    recorder.count("serve.daemon_cpu_s", result.daemon_cpu_s)
    recorder.count("serve.worker_cpu_s", result.worker_cpu_s)
    recorder.count("serve.state_bytes", result.state_bytes)
    recorder.count("serve.shard_skew", serve_load.shard_skew(result.health))
    recorder.phase = "check"
    attempted, failed, problems = serve_checks(suite, result)
    return {"attempted": attempted, "failed": failed, "problems": problems}


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    recorder = Recorder()
    runner = run_serve if plan["kind"] == "serve" else run_cli
    result = runner(plan, recorder)
    result.update(snapshot(recorder))
    roots = [s for s in result["spans"]
             if s["parent"] is None and s["phase"] == "run"]
    result["run_start"] = min(s["start"] for s in roots)
    result["run_end"] = max(s["end"] for s in roots)
    result["written_at"] = time.perf_counter()
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
