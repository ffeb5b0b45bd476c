"""CI gate: ``repro serve`` decisions are bit-identical under chaos.

Boots a real daemon subprocess (``python -m repro serve``) with a fault
plan armed, drives eight concurrent feed clients through it, and makes
the service earn every robustness claim at once:

* ``serve.conn_drop`` severs one client's connection mid-stream — the
  client must reconnect and resubmit, and worker-journal dedup must
  make the redelivery exact;
* ``serve.frame_truncate`` corrupts one frame in flight — the daemon
  must quarantine the bytes (``state_dir/quarantine/*.corrupt``) and
  the client's resend must land cleanly;
* ``serve.worker_stall`` hangs a shard worker past the supervisor
  deadline — SIGKILL, restart, journal replay, in-flight redelivery;
* on top of the injected faults, the harness SIGKILLs a live shard
  worker from the *outside* once a few decisions have arrived — the
  uncooperative mid-stream crash no fault site can fake.

The run passes only if the daemon then drains cleanly on SIGTERM
(exit 0) and :func:`repro.serve.harness.verify_equivalence` finds the
per-client shutdown decisions, merged prediction counters, summed
energy, and final predictor-table snapshots **bit-identical** to an
offline ``run_global`` replay of the recorded feed — proving the
service machinery (sharding, supervision, restarts, retries, recovery)
added or lost nothing.  The health endpoint must also have reported
the worker restarts and the injected connection drop.

Independently of the decisions, every journaled execution is read back
through :meth:`repro.serve.state.ShardJournal.replay` and must equal
the feed execution it came from, event for event: once from a copy of
the state directory taken before the drain (executions in compacted
segments plus an inline tail) and once from the drained state (all
compacted).  That checks the journal's row storage and the compaction
that rewrites it into trace-store segments.

Scale defaults to 0.2 (override with ``REPRO_SERVE_SCALE``) to stay
inside the CI smoke budget.

Run:  PYTHONPATH=src python tools/check_serve_equivalence.py
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve.harness import run_scenario, verify_equivalence
from repro.serve.state import ShardJournal

CLIENTS = int(os.environ.get("REPRO_SERVE_CLIENTS", "8"))
SCALE = float(os.environ.get("REPRO_SERVE_SCALE", "0.2"))
APPLICATIONS = ("mozilla", "xemacs")

#: One dropped client connection, one truncated frame, one stalled
#: worker — the three ``serve.*`` fault sites, all in a single run.
FAULT_PLAN = (
    "serve.conn_drop,app=client-0,at=3;"
    "serve.frame_truncate,app=client-1,at=2;"
    "serve.worker_stall,app=mozilla,at=2,seconds=8"
)


def journal_readback(state_dir: str, feed: dict) -> tuple[int, int, list]:
    """Replay every shard journal under ``state_dir`` against ``feed``.

    Returns ``(inline, compacted, problems)``: how many executions were
    read from inline rows and from segments, and every execution that
    differs from (or is missing from) the recorded feed.
    """
    expected = {
        (application, execution.execution_index): execution
        for application, executions in feed.items()
        for execution in executions
    }
    seen: set = set()
    inline = compacted = 0
    problems: list[str] = []
    for shard in sorted(os.listdir(state_dir)):
        if not shard.startswith("shard-"):
            continue
        with ShardJournal(os.path.join(state_dir, shard)) as journal:
            for record, execution in journal.replay():
                if record.get("segment") is None:
                    inline += 1
                else:
                    compacted += 1
                key = (record["application"], record["execution_index"])
                label = f"{shard} {key[0]}#{key[1]}"
                original = expected.get(key)
                if original is None or key in seen:
                    problems.append(f"{label}: not one feed execution")
                    continue
                seen.add(key)
                if (list(execution.iter_events()) != original.events
                        or execution.initial_pids != original.initial_pids):
                    problems.append(f"{label}: rows differ from the feed")
    problems.extend(
        f"{application}#{index}: not journaled"
        for application, index in sorted(set(expected) - seen)
    )
    return inline, compacted, problems


def main() -> int:
    failures: list[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {label}"
              + (f" — {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory(prefix="serve-equiv-") as tmp:
        state_dir = os.path.join(tmp, "state")
        live_dir = os.path.join(tmp, "state-before-drain")
        scenario = run_scenario(
            socket_path=os.path.join(tmp, "serve.sock"),
            state_dir=state_dir,
            clients=CLIENTS,
            scale=SCALE,
            applications=APPLICATIONS,
            stall_timeout=5.0,
            fault_plan=FAULT_PLAN,
            kill_worker_after=3,
            before_drain=lambda: shutil.copytree(
                state_dir, live_dir,
                ignore=shutil.ignore_patterns("quarantine"),
            ),
        )

        check("all clients completed without errors",
              not scenario.client_errors,
              "; ".join(scenario.client_errors))
        check("a live shard worker was SIGKILLed mid-stream",
              scenario.killed_pid is not None)
        check("daemon drained cleanly on SIGTERM (exit 0)",
              scenario.exit_code == 0,
              f"exit code {scenario.exit_code}")

        incidents = scenario.health.get("incidents", [])
        kinds = {incident.get("kind") for incident in incidents}
        check("health endpoint reported the worker restart(s)",
              "worker-restart" in kinds, f"incident kinds: {sorted(kinds)}")
        check("health endpoint reported the injected connection drop",
              "conn-drop" in kinds, f"incident kinds: {sorted(kinds)}")
        check("truncated frame was quarantined as *.corrupt",
              any(name.endswith(".corrupt") for name in
                  os.listdir(os.path.join(state_dir, "quarantine"))))

        mismatches = verify_equivalence(scenario)
        for mismatch in mismatches:
            print(f"      {mismatch}")
        check("decisions and tables bit-identical to the offline replay",
              not mismatches, f"{len(mismatches)} mismatch(es)")

        # Before the drain each shard's tail is inline; the drain
        # compacts it, so afterwards every execution is in a segment.
        for label, directory, tail in (
                ("before the drain", live_dir, True),
                ("after the drain", state_dir, False)):
            inline, compacted, problems = journal_readback(
                directory, scenario.feed)
            for problem in problems:
                print(f"      {problem}")
            check(f"journal replay {label} matches the feed event for "
                  f"event ({compacted} from segments, {inline} inline)",
                  not problems and compacted > 0 and (inline > 0) == tail,
                  f"{len(problems)} problem(s)")

        expected = 0
        for application, executions in scenario.feed.items():
            expected += len(executions)
        check("every submitted execution got a decision",
              len(scenario.decisions) == expected and expected > 0,
              f"{len(scenario.decisions)} decision(s) for "
              f"{expected} submission(s)")

    if failures:
        print(f"\n{len(failures)} serve equivalence check(s) FAILED")
        return 1
    print("\nserve equivalence gate passed "
          f"({CLIENTS} clients, scale {SCALE}, chaos + external SIGKILL)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
