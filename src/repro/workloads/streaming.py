"""Streaming generation of workload suites straight into a trace store.

:func:`repro.workloads.suite.build_suite` materializes every execution of
every application before returning — exactly what the trace store exists
to avoid.  Generation is deterministic *per execution*
(:func:`repro.workloads.base.build_execution` seeds its RNG from the
(application, index) pair alone), so this module generates executions one
at a time and hands each to a :class:`~repro.traces.store.StoreWriter`,
discarding it before the next is built.  Peak memory is one execution
and its column arrays regardless of ``scale`` — the scale knob that makes
10x-suite packs feasible where an in-memory build is not.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from repro.traces.store import (
    DEFAULT_CHUNK_ROWS,
    StoreWriter,
    TraceStore,
)
from repro.traces.trace import ExecutionTrace
from repro.workloads.base import build_execution, execution_count
from repro.workloads.suite import APPLICATIONS, application_spec


def iter_application_executions(
    name: str, *, scale: float = 1.0
) -> Iterator[ExecutionTrace]:
    """Generate one application's executions lazily, oldest first."""
    spec = application_spec(name)
    for index in range(execution_count(spec, scale=scale)):
        yield build_execution(spec, index, scale=scale)


def iter_suite_executions(
    *,
    scale: float = 1.0,
    applications: Sequence[str] = APPLICATIONS,
) -> Iterator[ExecutionTrace]:
    """Generate the whole suite lazily, application by application."""
    for name in applications:
        yield from iter_application_executions(name, scale=scale)


def pack_generated(
    path: str | os.PathLike[str],
    *,
    scale: float = 1.0,
    applications: Sequence[str] = APPLICATIONS,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> TraceStore:
    """Generate a suite directly into a trace store at ``path``.

    Returns the opened store.  The packed events are identical to a
    :func:`~repro.workloads.suite.build_suite` build at the same scale
    (generation is deterministic), but only one execution is ever held
    in memory.
    """
    with StoreWriter(path, chunk_rows=chunk_rows) as writer:
        for execution in iter_suite_executions(
            scale=scale, applications=applications
        ):
            writer.write_execution(execution)
    return TraceStore(path)
