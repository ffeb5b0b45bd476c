"""Child processes with resource usage, deadlines and guaranteed cleanup.

Every command the benchmark times runs as its own process group, so a
daemon's forked shard workers die with it.  Children are reaped with
``os.wait4``, whose resource usage gives the peak RSS (on Linux the
largest of the child and the descendants it reaped).
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence


@dataclass
class Finished:
    """One reaped child."""

    returncode: int
    wall_s: float
    peak_rss_mb: float


class ProcessGroup:
    """Starts children, reaps them, and kills whatever is left on close."""

    def __init__(self, env: dict, cwd: Path) -> None:
        self.env = env
        self.cwd = cwd
        self._live: dict[int, subprocess.Popen] = {}

    def start(self, argv: Sequence[str], stdout_path: Path) -> tuple[
            subprocess.Popen, float]:
        """Start ``argv`` with stdout and stderr in ``stdout_path``."""
        with open(stdout_path, "wb") as stream:
            started = time.perf_counter()
            process = subprocess.Popen(
                list(argv), cwd=self.cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=stream,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        self._live[process.pid] = process
        return process, started

    def reap(self, process: subprocess.Popen, started: float,
             timeout: float) -> Finished:
        """Wait for ``process``; SIGKILL its group after ``timeout`` s."""
        timer = threading.Timer(timeout, _kill_group, (process.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        self._live.pop(process.pid, None)
        # The group may hold grandchildren that outlived their parent.
        _kill_group(process.pid)
        return Finished(
            returncode=process.returncode,
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )

    def run(self, argv: Sequence[str], stdout_path: Path,
            timeout: float) -> Finished:
        """Start ``argv`` and wait for it."""
        process, started = self.start(argv, stdout_path)
        return self.reap(process, started, timeout)

    def close(self) -> None:
        """Kill and reap every child still running."""
        for pid, process in list(self._live.items()):
            _kill_group(pid)
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
            self._live.pop(pid, None)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def proc_cpu_seconds(pid: int) -> Optional[float]:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    # Fields 14 and 15 of stat(5), counted after the command name.
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                pass
    return total
