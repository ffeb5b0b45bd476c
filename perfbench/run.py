"""End-to-end benchmark of the ``repro`` commands users run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce-cold --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` it times the workload's command with tracing off and
prints every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it then makes one traced run in-process (``perfbench/traced.py``) and
prints every per-layer metric instead.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-golden`` re-records ``perfbench/golden.json`` (the outputs
the checks compare against) from the program as it is.  Do that only
when a change is meant to alter the program's output.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics as m  # noqa: E402
from perfbench import spans  # noqa: E402
from perfbench.procs import ProcessGroup  # noqa: E402
from perfbench.serve_load import CLIENTS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    GOLDEN_PATH,
    PROFILES,
    ROWS_RE,
    SHAPE_RE,
    WORKLOADS,
    Context,
    Outcome,
    digest,
    load_golden,
    matrix_rows,
)

#: Environment variables of ``repro`` that would change what is run.
REPRO_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_FUSED",
             "REPRO_FAULT_PLAN")
TRACED_TIMEOUT = 150.0


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in REPRO_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work / "tmp")
    return env


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(out: Outcome) -> dict:
    """The end-to-end metrics of one untraced run."""
    latencies = out.latencies_ms
    return {
        "wall_s": (m.median(out.walls), "s"),
        "setup_s": (m.median(out.setups), "s"),
        "peak_rss_mb": (m.median(out.rss), "MB"),
        "exec_p50_ms": (m.percentile(latencies, 50), "ms"),
        "exec_p90_ms": (m.tail_percentile(latencies, 90), "ms"),
        "success_rate": (1.0 - out.failed / out.attempted, "ratio"),
    }


def traced_process(ctx: Context, plan: dict, tag: str) -> dict:
    """Run one traced process; return its snapshot and timings.

    ``wall_s`` is the process's wall time as a user would see it, less
    the process's own bookkeeping after the command (building and
    writing the snapshot).  ``process_s`` is the interpreter start-up
    before the first span plus the exit after the snapshot is written,
    measured on the monotonic clock the parent and child share.
    """
    plan_path = ctx.work / f"trace-{tag}-plan.json"
    result_path = ctx.work / f"trace-{tag}-result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    process, started = ctx.group.start(
        [ctx.python, str(ROOT / "perfbench" / "traced.py"),
         str(plan_path), str(result_path)],
        ctx.work / f"trace-{tag}.log")
    finished = ctx.group.reap(process, started, TRACED_TIMEOUT)
    if finished.returncode != 0:
        log = (ctx.work / f"trace-{tag}.log").read_text(errors="replace")
        raise RuntimeError(
            f"traced {tag} exited {finished.returncode}:\n{log[-3000:]}")
    data = json.loads(result_path.read_text(encoding="utf-8"))
    ended = started + finished.wall_s
    data["wall_s"] = finished.wall_s - (data["written_at"] - data["run_end"])
    data["process_s"] = (data["run_start"] - started) + (
        ended - data["written_at"])
    return data


def traced(ctx: Context, out: Outcome) -> tuple[dict, dict]:
    """The per-layer metrics and layer self times of the traced run."""
    plan = out.trace_plan
    if plan["kind"] == "serve":
        data = traced_process(ctx, dict(
            plan, workdir=str(ctx.work / "serve-traced")), "run")
        out.record(data["attempted"], data["failed"], data["problems"])
        stream = next(s for s in data["spans"] if s["name"] == "serve.stream")
        wall = stream["end"] - stream["start"]
        values = spans.layer_metrics(data, wall_s=wall,
                                     concurrency=CLIENTS)
        values["setup.wall_s"] = 0.0
        shares = spans.layer_shares(data)
    else:
        setup = None
        if plan.get("setup"):
            setup = traced_process(ctx, {
                "kind": "cli", "argv": plan["setup"], "store": plan.get(
                    "store"), "stdout": str(ctx.work / "traced-setup.out"),
            }, "setup")
        stdout = ctx.work / "traced-run.out"
        data = traced_process(ctx, {"kind": "cli", "argv": plan["run"],
                                    "stdout": str(stdout)}, "run")
        out.record(*out.check(stdout.read_text(encoding="utf-8")))
        values = spans.layer_metrics(data, wall_s=data["wall_s"],
                                     process_s=data["process_s"])
        shares = spans.layer_shares(data, data["process_s"])
        for name in spans.SETUP_METRICS:
            values[name] = 0.0
        values["setup.wall_s"] = 0.0
        if setup is not None:
            setup_values = spans.layer_metrics(
                setup, wall_s=setup["wall_s"], process_s=setup["process_s"])
            for name in spans.SETUP_METRICS:
                values[name] = setup_values[name]
            values["setup.wall_s"] = setup["wall_s"]
    values["trace.overhead_s"] = values["trace.wall_s"] - m.median(out.walls)
    units = {item["name"]: item["unit"] for item in spec()["per_layer"]}
    return {name: (values[name], units[name]) for name in units}, shares


def print_report(name: str, ctx: Context, out: Outcome, values: dict,
                 shares: dict | None) -> None:
    print(f"workload {name}: seed {ctx.seed}, {ctx.seconds:g} s window, "
          f"profile {ctx.profile} {PROFILES[ctx.profile]}")
    for note in out.notes:
        print(f"  {note}")
    print(f"  samples: {len(out.walls)} timed, {len(out.setups)} set-up, "
          f"{len(out.latencies_ms)} latency")
    print("  wall_s samples: " + " ".join(f"{w:.3f}" for w in out.walls))
    print("  setup_s samples: " + " ".join(f"{w:.3f}" for w in out.setups))
    count = len(out.latencies_ms)
    for p in (50, 90):
        beyond = m.samples_beyond(count, p)
        print(f"  exec_p{p}_ms from {count} samples, {beyond:.1f} beyond"
              + ("" if beyond >= m.TAIL_SAMPLES or p == 50 else
                 f" (fewer than {m.TAIL_SAMPLES}: the median is reported)"))
    print(f"  operations: {out.attempted} attempted, {out.failed} failed, "
          f"error_rate {out.failed / out.attempted:.4f}")
    for problem in out.problems[:20]:
        print(f"  FAILED: {problem}")
    if shares:
        total = sum(shares.values())
        print(f"  layer self time, traced wall "
              f"{values['trace.wall_s'][0]:.3f} s:")
        for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
            share = seconds / total if total else 0.0
            print(f"    {layer:<15s} {seconds:8.3f} s {share:6.1%}")
    for metric, (value, unit) in values.items():
        print(f"  {metric:<32s} {value:14.6f} {unit}")


def run(args) -> int:
    name = args.workload
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = load_golden()
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work)
    group = ProcessGroup(env, ROOT)
    # Relative paths keep the daemon's Unix socket path short.
    os.chdir(ROOT)
    ctx = Context(work=work.relative_to(ROOT),
                  python=sys.executable, group=group,
                  seconds=float(args.seconds), seed=args.seed,
                  profile=args.profile, golden=golden)
    os.environ["TMPDIR"] = env["TMPDIR"]
    sys.path.insert(0, env["PYTHONPATH"])
    try:
        out = WORKLOADS[name](ctx)
        shares = None
        if args.trace:
            values, shares = traced(ctx, out)
        else:
            values = end_to_end(out)
        print_report(name, ctx, out, values, shares)
    finally:
        group.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({
        "correct": out.failed == 0 and not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()},
    }))
    return 0


def record_golden() -> int:
    """Write ``golden.json`` from the program's current outputs."""
    import subprocess

    from perfbench.spans import PREDICTORS

    work = ROOT / ".perfbench_work" / f"golden-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(work)

    def repro(*argv: str) -> str:
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout

    golden: dict = {}
    try:
        for profile, sizes in PROFILES.items():
            entry = golden[profile] = {"table2": {"digest": digest(
                repro("table", "2"))}}
            scale = sizes["reproduce"]
            text = repro("reproduce", "--scale", str(scale))
            match = SHAPE_RE.search(text)
            entry[f"reproduce@{scale}"] = {
                "digest": digest(text),
                "shape_checks": f"{match.group(1)}/{match.group(2)}",
            }
            scale = sizes["matrix"]
            store = str(work / f"store-{profile}")
            text = repro("trace", "pack", "--out", store, "--scale",
                         str(scale))
            entry[f"pack@{scale}"] = {
                "rows": int(ROWS_RE.search(text).group(1))}
            argv = ["run", "--store", store]
            for predictor in PREDICTORS:
                argv += ["--predictor", predictor]
            entry[f"matrix@{scale}"] = {"rows": matrix_rows(repro(*argv))}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="full",
                        help="sizes: full (the benchmark) or tiny (smoke)")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record perfbench/golden.json and exit")
    args = parser.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if not args.workload:
        parser.error("--workload is required")
    started = time.perf_counter()
    code = run(args)
    print(f"benchmark process {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
