"""Trace containers: one execution of an application, and an application's
whole trace history (many executions).

An :class:`ExecutionTrace` holds the time-ordered events of a single run
of an application — possibly many processes, delimited by fork/exit
events.  :class:`ApplicationTrace` bundles the successive executions of
one application (the paper traces e.g. 49 separate runs of mozilla), which
is the unit the prediction-table-reuse experiments operate on.

**Streaming protocol.**  Downstream consumers (the cache filter, the
simulation engine) do not require a materialized event list; they drive
executions through the :class:`ExecutionLike` protocol — metadata
attributes plus :meth:`~ExecutionTrace.iter_events` /
:meth:`~ExecutionTrace.liveness_events` — which
:class:`~repro.traces.store.StoredExecution` implements by decoding one
on-disk chunk window at a time.  :class:`ExecutionTrace` implements the
same protocol trivially over its in-memory list, so both paths share one
code base and produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Protocol, runtime_checkable

from repro.errors import TraceError
from repro.traces.events import (
    ExitEvent,
    ForkEvent,
    IOEvent,
    TraceEvent,
    event_sort_key,
)


@runtime_checkable
class ExecutionLike(Protocol):
    """What the filter and the engine need from one execution.

    Implemented in-memory by :class:`ExecutionTrace`, on-disk by
    :class:`~repro.traces.store.StoredExecution`, and over one row
    payload by :class:`~repro.traces.store.ColumnExecution`; the last
    two also yield column views (``iter_column_chunks``), which the
    filter and the store writer prefer to events.  ``iter_events`` must
    yield events in canonical order; ``liveness_events`` must return the
    (small) fork/exit subset, also in order.
    """

    application: str
    execution_index: int
    initial_pids: frozenset[int]

    @property
    def start_time(self) -> float: ...

    @property
    def end_time(self) -> float: ...

    def iter_events(self) -> Iterator[TraceEvent]: ...

    def liveness_events(self) -> list[TraceEvent]: ...

    def lifetimes(self) -> dict[int, tuple[float, float]]: ...


@dataclass(slots=True)
class ExecutionTrace:
    """Events of one execution (one launch-to-exit) of an application."""

    application: str
    execution_index: int
    events: list[TraceEvent] = field(default_factory=list)
    #: Pids alive at trace start (the root process(es) of the application).
    initial_pids: frozenset[int] = frozenset()

    def sorted(self) -> "ExecutionTrace":
        """A copy with events in canonical order."""
        return ExecutionTrace(
            application=self.application,
            execution_index=self.execution_index,
            events=sorted(self.events, key=event_sort_key),
            initial_pids=self.initial_pids,
        )

    def validate(self) -> None:
        """Raise :class:`TraceError` on ordering or liveness violations."""
        alive: set[int] = set(self.initial_pids)
        previous_key: tuple[float, int] | None = None
        for event in self.events:
            key = event_sort_key(event)
            if previous_key is not None and key < previous_key:
                raise TraceError(
                    f"{self.application}#{self.execution_index}: events out "
                    f"of order at t={event.time}"
                )
            previous_key = key
            if isinstance(event, ForkEvent):
                if event.parent_pid not in alive:
                    raise TraceError(
                        f"fork from dead/unknown pid {event.parent_pid}"
                    )
                if event.pid in alive:
                    raise TraceError(f"fork of already-alive pid {event.pid}")
                alive.add(event.pid)
            elif isinstance(event, ExitEvent):
                if event.pid not in alive:
                    raise TraceError(f"exit of dead/unknown pid {event.pid}")
                alive.discard(event.pid)
            else:
                if event.pid not in alive:
                    raise TraceError(
                        f"I/O from dead/unknown pid {event.pid} at "
                        f"t={event.time}"
                    )

    def iter_events(self) -> Iterator[TraceEvent]:
        """Iterate events in order (the streaming-protocol entry point)."""
        return iter(self.events)

    def liveness_events(self) -> list[TraceEvent]:
        """The fork/exit subset of the event stream, in order."""
        return [
            e for e in self.events if isinstance(e, (ForkEvent, ExitEvent))
        ]

    @property
    def event_count(self) -> int:
        """Number of events (uniform with stored executions)."""
        return len(self.events)

    @property
    def io_events(self) -> list[IOEvent]:
        """The I/O subset of the event stream, in order."""
        return [e for e in self.events if isinstance(e, IOEvent)]

    @property
    def pids(self) -> set[int]:
        """Every pid alive at any point of the execution."""
        pids = set(self.initial_pids)
        pids.update(e.pid for e in self.events if isinstance(e, ForkEvent))
        return pids

    @property
    def start_time(self) -> float:
        """Time of the first event (0.0 for an empty execution)."""
        return self.events[0].time if self.events else 0.0

    @property
    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty execution)."""
        return self.events[-1].time if self.events else 0.0

    def per_process_io(self) -> dict[int, list[IOEvent]]:
        """I/O events grouped by pid, preserving order."""
        grouped: dict[int, list[IOEvent]] = {pid: [] for pid in self.pids}
        for event in self.io_events:
            grouped.setdefault(event.pid, []).append(event)
        return grouped

    def lifetimes(self) -> dict[int, tuple[float, float]]:
        """``pid -> (start, end)`` liveness interval of every process."""
        return process_lifetimes(
            self.initial_pids,
            self.start_time,
            self.end_time,
            self.liveness_events(),
        )


def process_lifetimes(
    initial_pids: Iterable[int],
    start_time: float,
    end_time: float,
    liveness_events: Iterable[TraceEvent],
) -> dict[int, tuple[float, float]]:
    """``pid -> (start, end)`` liveness intervals of an execution.

    Initial pids live from ``start_time``, forked pids from their fork;
    every pid lives until its exit, or ``end_time`` if it never exits.
    ``liveness_events`` is the execution's ordered fork/exit subset.
    """
    start: dict[int, float] = {pid: start_time for pid in initial_pids}
    end: dict[int, float] = {}
    for event in liveness_events:
        if isinstance(event, ForkEvent):
            start[event.pid] = event.time
        else:
            end[event.pid] = event.time
    return {
        pid: (begin, end.get(pid, end_time)) for pid, begin in start.items()
    }


@dataclass(slots=True)
class ApplicationTrace:
    """All traced executions of one application, oldest first."""

    application: str
    executions: list[ExecutionTrace] = field(default_factory=list)
    #: Provenance fingerprint known to whoever built the trace (a cache
    #: fill sets the trace key that its warm runs read back from the
    #: segment manifest); ``None`` lets consumers hash the events.
    fingerprint: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for execution in self.executions:
            if execution.application != self.application:
                raise TraceError(
                    f"execution of {execution.application!r} inside the "
                    f"trace of {self.application!r}"
                )

    def __iter__(self) -> Iterator[ExecutionTrace]:
        return iter(self.executions)

    def __len__(self) -> int:
        return len(self.executions)

    def append(self, execution: ExecutionTrace) -> None:
        """Add one execution; it must belong to this application."""
        if execution.application != self.application:
            raise TraceError(
                f"cannot add execution of {execution.application!r} to the "
                f"trace of {self.application!r}"
            )
        self.executions.append(execution)

    @property
    def total_io_count(self) -> int:
        """Total I/O events across all executions."""
        return sum(len(e.io_events) for e in self.executions)


def merge_events(streams: Iterable[Iterable[TraceEvent]]) -> list[TraceEvent]:
    """Merge several event streams into canonical order."""
    merged: list[TraceEvent] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=event_sort_key)
    return merged
