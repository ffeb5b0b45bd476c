"""On-disk columnar trace store with chunked, memory-bounded streaming.

The in-memory trace containers (:mod:`repro.traces.trace`) materialize
every event of every execution before the simulation sees any of them —
fine for the paper's six desktop applications (~10^6 events), hopeless
for server-class streams.  This module stores traces as **flat per-field
column files** read back through NumPy memory maps, so a simulation
touches one *chunk window* of rows at a time and peak memory is bounded
by the chunk size instead of the trace size.

Layout of a store directory::

    store/
      manifest.json          # schema, chunk offsets, provenance
      columns/
        etype.bin  time.bin  pid.bin  pc.bin  fd.bin
        kind.bin   inode.bin block_start.bin block_count.bin aux.bin

Every event is one row across all columns; ``etype`` discriminates I/O
(0) from fork (1) and exit (2) rows, ``kind`` carries the
:class:`~repro.traces.events.AccessType` code of I/O rows, and ``aux``
carries the parent pid of fork rows.  The JSON manifest records the
column schema, the chunk row offsets, each execution's row range plus
its (tiny) fork/exit event list, and a **provenance fingerprint** per
application: a BLAKE2b digest over the same canonical event tuples the
artifact cache hashes (:func:`repro.traces.events.event_tuple`), so
store fingerprints key :func:`repro.sim.artifact_cache.filter_key`
entries and resilient-run checkpoints exactly like in-memory
fingerprints do.

Reading is lazy end to end: :class:`TraceStore` memory-maps each column
once, :class:`StoreBackedTrace` holds only per-execution metadata, and
:class:`StoredExecution` decodes events one chunk at a time through the
:class:`~repro.traces.trace.ExecutionLike` streaming protocol.  The
decoded events are **bit-identical** to the events that were packed:
times round-trip as IEEE-754 doubles, all other fields are integers or
enum codes.  The same rows laid end to end are the serve protocol's
``ROWS`` body (:func:`encode_event_rows`); :class:`ColumnExecution`
holds one such payload as column views, so the serve path filters and
packs it without decoding.

Corruption handling mirrors the artifact cache: a missing, truncated, or
undecodable store file is *quarantined* — renamed aside with a
``.corrupt`` suffix so the evidence survives — and surfaces as a
:class:`~repro.errors.TraceStoreError` with the quarantine path in the
message.  The :mod:`repro.faults` site ``cache.corrupt-read`` fires on
store reads too, so chaos plans can exercise this path deliberately.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from itertools import compress, count, repeat
from operator import attrgetter, is_not
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from repro import faults
from repro.errors import TraceStoreError
from repro.traces.events import (
    AccessType,
    ExitEvent,
    ForkEvent,
    IOEvent,
    TraceEvent,
    event_tuple,
)
from repro.traces.trace import (
    ApplicationTrace,
    ExecutionTrace,
    process_lifetimes,
)

#: Bump whenever the column layout or the manifest schema changes; old
#: stores are rejected with a clear error instead of being misread.
STORE_VERSION = 1

#: Default rows per chunk (~4.2 MB of columns at 66 bytes/row).
DEFAULT_CHUNK_ROWS = 65536

MANIFEST_NAME = "manifest.json"
_COLUMN_DIR = "columns"

#: Column schema, in row-encoding order.  ``etype``: 0 = I/O, 1 = fork,
#: 2 = exit.  ``aux`` is the parent pid of fork rows, 0 otherwise.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("etype", "u1"),
    ("time", "<f8"),
    ("pid", "<i8"),
    ("pc", "<i8"),
    ("fd", "<i8"),
    ("kind", "u1"),
    ("inode", "<i8"),
    ("block_start", "<i8"),
    ("block_count", "<i8"),
    ("aux", "<i8"),
)

#: AccessType <-> compact code, in enum-definition order (versioned by
#: :data:`STORE_VERSION` and self-described in the manifest).
_KIND_VALUES: tuple[str, ...] = tuple(kind.value for kind in AccessType)
_KIND_BY_CODE: tuple[AccessType, ...] = tuple(AccessType)

#: Pickle protocol for fingerprint hashing (same as the artifact cache).
_PICKLE_PROTOCOL = 4

#: Bytes per row when the columns are laid end to end (wire encoding).
EVENT_ROW_BYTES = sum(np.dtype(spec).itemsize for _, spec in COLUMNS)


def _decode_column_lists(
    etypes, times, pids, pcs, fds, kinds, inodes,
    block_starts, block_counts, auxes, row_base: int,
) -> list[TraceEvent]:
    """Rebuild event objects from plain column lists (one row window).

    Shared by :meth:`TraceStore.decode_rows` and the wire codec below;
    ``row_base`` only labels the error message for bad type codes.
    """
    by_code = _KIND_BY_CODE
    new = object.__new__
    put = object.__setattr__
    events: list[TraceEvent] = []
    append = events.append
    for i in range(len(etypes)):
        code = etypes[i]
        if code == 0:
            event = new(IOEvent)
            put(event, "time", times[i])
            put(event, "pid", pids[i])
            put(event, "pc", pcs[i])
            put(event, "fd", fds[i])
            put(event, "kind", by_code[kinds[i]])
            put(event, "inode", inodes[i])
            put(event, "block_start", block_starts[i])
            put(event, "block_count", block_counts[i])
        elif code == 1:
            event = new(ForkEvent)
            put(event, "time", times[i])
            put(event, "pid", pids[i])
            put(event, "parent_pid", auxes[i])
        elif code == 2:
            event = new(ExitEvent)
            put(event, "time", times[i])
            put(event, "pid", pids[i])
        else:
            raise TraceStoreError(
                f"row {row_base + i}: unknown event type code {code!r}"
            )
        append(event)
    return events


def _check_codes(window: dict[str, np.ndarray], row_base: int) -> None:
    """Reject a row window holding an unknown event type or kind code.

    One vectorized ``max`` per code column; only a bad window pays for
    locating its first bad row, which ``row_base`` labels.  Fork/exit
    rows hold kind code 0, so the kind bound applies to every row.
    """
    for name, bound, what in (
        ("etype", 3, "event type"),
        ("kind", len(_KIND_BY_CODE), "access kind"),
    ):
        codes = window[name]
        if len(codes) and int(codes.max()) >= bound:
            row = int(np.argmax(codes >= bound))
            raise TraceStoreError(
                f"row {row_base + row}: unknown {what} code "
                f"{int(codes[row])!r}"
            )


def _liveness_events(window: dict[str, np.ndarray]) -> list[TraceEvent]:
    """The fork/exit rows of a checked window as events, in row order.

    Built the way :func:`_decode_column_lists` builds them, without
    decoding a single I/O row.
    """
    rows = np.flatnonzero(window["etype"])
    new = object.__new__
    put = object.__setattr__
    events: list[TraceEvent] = []
    for code, time, pid, parent in zip(*(
        window[name][rows].tolist() for name in ("etype", "time", "pid", "aux")
    )):
        event = new(ForkEvent if code == 1 else ExitEvent)
        put(event, "time", time)
        put(event, "pid", pid)
        if code == 1:
            put(event, "parent_pid", parent)
        events.append(event)
    return events


def _decode_window(
    window: dict[str, np.ndarray], row_base: int
) -> list[TraceEvent]:
    """Event objects of a checked row window (columns in schema order)."""
    return _decode_column_lists(
        *(column.tolist() for column in window.values()), row_base
    )


class _ZeroRow:
    """Stands in for a fork/exit event when the I/O-only fields are read:
    those rows hold zeros (and kind code 0) in the store's columns."""

    __slots__ = ()
    pc = fd = inode = block_start = block_count = 0
    kind = _KIND_BY_CODE[0]


_ZERO_ROW = _ZeroRow()

#: C-level field getters, in column order: ``time`` and ``pid`` read
#: every event, the I/O-only ones read :class:`_ZeroRow` in place of
#: fork/exit events.
_SHARED_GETTERS = (attrgetter("time"), attrgetter("pid"))
_IO_GETTERS = tuple(
    attrgetter(field) for field in (
        "pc", "fd", "kind._value_", "inode", "block_start", "block_count",
    )
)

_KIND_CODE_BY_VALUE = {value: code for code, value in enumerate(_KIND_VALUES)}


class _EventFields:
    """One execution's events as per-field lists (the packing hot path).

    Every field is read by a C-level ``map`` over the events, so no
    per-event Python object is built.  That matters when a large suite
    is alive: a tuple per event drove extra full garbage-collector
    passes over the suite's events (about 0.7 s of a cold
    ``reproduce --scale 1.0 --cache-dir`` run).  Fork/exit rows (rare)
    are found by position.
    """

    __slots__ = ("events", "others", "fields")

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events = events = list(events)
        self.others = list(compress(
            count(), map(is_not, map(type, events), repeat(IOEvent))
        ))
        io_view = events
        if self.others:
            io_view = list(events)
            for i in self.others:
                if type(events[i]) not in (ForkEvent, ExitEvent):
                    raise TraceStoreError(
                        f"unknown event type {type(events[i]).__name__}"
                    )
                io_view[i] = _ZERO_ROW
        self.fields = [list(map(get, events)) for get in _SHARED_GETTERS]
        self.fields += [list(map(get, io_view)) for get in _IO_GETTERS]

    def columns(self) -> list[np.ndarray]:
        """The :data:`COLUMNS` arrays of these events."""
        rows = len(self.events)
        etype = np.zeros(rows, dtype="u1")
        aux = np.zeros(rows, dtype="<i8")
        for i in self.others:
            event = self.events[i]
            if type(event) is ForkEvent:
                etype[i] = 1
                aux[i] = event.parent_pid
            else:
                etype[i] = 2
        time, pid, pc, fd, kind, inode, start, blocks = self.fields
        kind_codes = map(_KIND_CODE_BY_VALUE.__getitem__, kind)
        middle = (time, pid, pc, fd, kind_codes, inode, start, blocks)
        return [etype] + [
            np.fromiter(values, dtype=spec, count=rows)
            for values, (_, spec) in zip(middle, COLUMNS[1:-1])
        ] + [aux]

    def liveness(self) -> list[TraceEvent]:
        """The fork/exit events, in order."""
        return [self.events[i] for i in self.others]

    def span(self) -> tuple[float, float]:
        """Times of the first and last event (0.0 when empty)."""
        events = self.events
        return (events[0].time, events[-1].time) if events else (0.0, 0.0)

    def tuples(self) -> list[tuple]:
        """:func:`~repro.traces.events.event_tuple` of every event.

        Built from the field lists, so the tuples hold the very objects
        ``event_tuple`` returns (``"io"``, the enum's value string):
        pickling them gives the same bytes, and store fingerprints do
        not change.
        """
        tuples = list(zip(repeat("io"), *self.fields))
        for i in self.others:
            tuples[i] = event_tuple(self.events[i])
        return tuples


class _ColumnFields:
    """:class:`_EventFields`'s view of an execution that has columns.

    The execution's column windows, whose codes their producer checked,
    are joined (one window, the serve path's case, is used as it is)
    and no I/O row is decoded.  The fingerprint tuples are zipped from
    the column lists and hold the same objects the event branch's
    tuples hold, so pickling them gives the same bytes.
    """

    __slots__ = ("window", "others", "_liveness")

    def __init__(self, chunks: Iterable[dict[str, np.ndarray]]) -> None:
        chunks = list(chunks)
        if len(chunks) == 1:
            self.window = chunks[0]
        else:
            self.window = {
                name: np.concatenate(
                    [np.empty(0, dtype=spec)] + [c[name] for c in chunks]
                )
                for name, spec in COLUMNS
            }
        self.others = np.flatnonzero(self.window["etype"]).tolist()
        self._liveness = _liveness_events(self.window)

    def columns(self) -> list[np.ndarray]:
        """The :data:`COLUMNS` arrays, in order."""
        return list(self.window.values())

    def liveness(self) -> list[TraceEvent]:
        """The fork/exit events, in order."""
        return self._liveness

    def span(self) -> tuple[float, float]:
        """Times of the first and last row (0.0 when empty)."""
        times = self.window["time"]
        if not len(times):
            return 0.0, 0.0
        return float(times[0]), float(times[-1])

    def tuples(self) -> list[tuple]:
        """:func:`~repro.traces.events.event_tuple` of every row."""
        fields = [self.window[name].tolist() for name, _ in COLUMNS[1:-1]]
        fields[4] = map(_KIND_VALUES.__getitem__, fields[4])
        tuples = list(zip(repeat("io"), *fields))
        for i, event in zip(self.others, self._liveness):
            tuples[i] = event_tuple(event)
        return tuples


def encode_event_rows(events: Iterable[TraceEvent]) -> bytes:
    """Serialize events as columnar rows (the store's layout, end to end).

    The payload is every column of :data:`COLUMNS`, in order, each as a
    packed array of one value per event — the same bytes a store chunk
    holds, concatenated instead of split across files.  This is the
    ``ROWS`` frame body of the serve protocol (:mod:`repro.serve`):
    :data:`EVENT_ROW_BYTES` per event, row count implied by the length.
    """
    return b"".join(
        column.tobytes() for column in _EventFields(events).columns()
    )


def _row_columns(payload: bytes) -> dict[str, np.ndarray]:
    """Zero-copy column views of a row payload, grid and codes checked.

    Raises :class:`TraceStoreError` on any length that does not sit on
    the row grid — a truncated frame can never decode to a shorter
    event list by accident — and on an unknown type or kind code.
    """
    if len(payload) % EVENT_ROW_BYTES:
        raise TraceStoreError(
            f"row payload of {len(payload)} byte(s) is not a multiple "
            f"of the {EVENT_ROW_BYTES}-byte row size"
        )
    count = len(payload) // EVENT_ROW_BYTES
    columns: dict[str, np.ndarray] = {}
    offset = 0
    for name, spec in COLUMNS:
        dtype = np.dtype(spec)
        columns[name] = np.frombuffer(
            payload, dtype=dtype, count=count, offset=offset
        )
        offset += count * dtype.itemsize
    _check_codes(columns, 0)
    return columns


def check_event_rows(payload: bytes) -> None:
    """Raise :class:`TraceStoreError` unless ``payload`` is whole rows
    holding only known type and kind codes (the serve daemon's check)."""
    _row_columns(payload)


def decode_event_rows(payload: bytes) -> list[TraceEvent]:
    """Inverse of :func:`encode_event_rows` (bit-identical round trip).

    Raises :class:`TraceStoreError` on a payload off the row grid or
    holding an unknown type or kind code.
    """
    return _decode_window(_row_columns(payload), 0)


class ColumnExecution:
    """One execution held as column views of an in-memory row payload.

    The serve path's form of a submitted execution (the ``ROWS`` body of
    :func:`encode_event_rows`): each column is a zero-copy
    ``np.frombuffer`` view of the payload, and the row grid and codes
    are checked once, here.  Like :class:`StoredExecution`, it yields
    its columns (:meth:`iter_column_chunks`) to the page-cache filter
    and to :class:`StoreWriter`, and builds only its fork/exit rows as
    events, so a shard worker replays and compacts it without an I/O
    event object; :meth:`iter_events` decodes, for the API edge.

    ``initial_pids`` is inserted in sorted order, as a compacted
    segment's :class:`StoredExecution` inserts it, so the set iterates
    alike whichever form the journal replays.
    """

    __slots__ = (
        "application", "execution_index", "initial_pids", "columns",
        "event_count", "start_time", "end_time", "_liveness",
    )

    def __init__(
        self,
        application: str,
        execution_index: int,
        initial_pids: Iterable[int],
        rows: bytes,
    ) -> None:
        self.application = application
        self.execution_index = execution_index
        self.initial_pids = frozenset(sorted(int(p) for p in initial_pids))
        self.columns = _row_columns(rows)
        times = self.columns["time"]
        self.event_count = len(times)
        self.start_time = float(times[0]) if len(times) else 0.0
        self.end_time = float(times[-1]) if len(times) else 0.0
        self._liveness: Optional[list[TraceEvent]] = None

    def liveness_events(self) -> list[TraceEvent]:
        """Fork/exit events, built from their rows alone (memoized)."""
        if self._liveness is None:
            self._liveness = _liveness_events(self.columns)
        return self._liveness

    def lifetimes(self) -> dict[int, tuple[float, float]]:
        """``pid -> (start, end)``, identical to the in-memory container."""
        return process_lifetimes(
            self.initial_pids,
            self.start_time,
            self.end_time,
            self.liveness_events(),
        )

    def iter_column_chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Yield the column views, as one window."""
        yield self.columns

    def iter_events(self) -> Iterator[TraceEvent]:
        """Decode every event in row order (the API edge only)."""
        return iter(_decode_window(self.columns, 0))


def _quarantine(path: Path) -> Path:
    """Rename a corrupt store file aside (``<file>.corrupt``).

    Keeps the evidence for post-mortem inspection, exactly like the
    artifact cache does; falls back to leaving the file in place when
    the rename itself fails.
    """
    aside = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, aside)
        return aside
    except OSError:
        return path


class StoreWriter:
    """Append-only builder of a trace store directory.

    Executions are written one at a time (``write_execution``): each is
    converted to column arrays and appended to the column files at once,
    so peak memory is one execution's rows — never the whole trace.  The
    chunk grid is fixed by ``chunk_rows`` alone.  ``close()`` (or
    exiting the context manager) publishes the manifest atomically; a
    store without a manifest is unreadable, so a killed writer never
    leaves a half-valid store behind.

    Each application's provenance fingerprint hashes its events' canonical
    tuples, unless the caller already knows it (``fingerprints``, e.g.
    the artifact cache's content-addressed trace key): then that value is
    recorded and the hashing pass is skipped.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        fingerprints: Optional[dict[str, str]] = None,
    ) -> None:
        if chunk_rows <= 0:
            raise TraceStoreError("chunk_rows must be positive")
        self.path = Path(path)
        self.chunk_rows = int(chunk_rows)
        if (self.path / MANIFEST_NAME).exists():
            raise TraceStoreError(
                f"refusing to overwrite existing trace store at {self.path}"
            )
        (self.path / _COLUMN_DIR).mkdir(parents=True, exist_ok=True)
        self._files = {
            name: open(self.path / _COLUMN_DIR / f"{name}.bin", "wb")
            for name, _ in COLUMNS
        }
        self._rows = 0
        #: application -> (digest, manifest entry) accumulated so far.
        self._apps: dict[str, dict] = {}
        self._digests: dict[str, "hashlib._Hash"] = {}
        #: application -> provenance fingerprint known to the caller.
        self._known: dict[str, str] = dict(fingerprints or {})
        self._closed = False

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # do not publish a manifest for an aborted pack
            self.abort()

    def _app_state(self, application: str) -> dict:
        entry = self._apps.get(application)
        if entry is None:
            entry = {
                "fingerprint": None,
                "io_events": 0,
                "executions": [],
            }
            self._apps[application] = entry
            digest = hashlib.blake2b(digest_size=20)
            digest.update(
                f"store:{STORE_VERSION}:{application}".encode("utf-8")
            )
            self._digests[application] = digest
        return entry

    def write_execution(self, execution) -> None:
        """Append one execution (any :class:`ExecutionLike`) to the store.

        An execution with column views (``iter_column_chunks``: a
        :class:`ColumnExecution` off the wire, a :class:`StoredExecution`
        being re-packed) is written from its columns; any other, such as
        an in-memory :class:`~repro.traces.trace.ExecutionTrace`, is
        consumed through ``iter_events()``.  Events must already be in
        canonical order.  Both branches write the same columns, manifest
        entry and provenance fingerprint for the same events.
        """
        if self._closed:
            raise TraceStoreError("writer is closed")
        application = execution.application
        entry = self._app_state(application)
        chunks = getattr(execution, "iter_column_chunks", None)
        packed = (
            _EventFields(execution.iter_events()) if chunks is None
            else _ColumnFields(chunks())
        )
        columns = packed.columns()
        for (name, _), column in zip(COLUMNS, columns):
            self._files[name].write(column.tobytes())
        rows = len(columns[0])
        liveness = packed.liveness()
        io_rows = rows - len(liveness)
        initial = sorted(execution.initial_pids)
        if application not in self._known:
            header = (execution.execution_index, tuple(initial), rows)
            self._digests[application].update(
                pickle.dumps((header, packed.tuples()), _PICKLE_PROTOCOL)
            )
        start_time, end_time = packed.span()
        entry["io_events"] += io_rows
        entry["executions"].append({
            "index": execution.execution_index,
            "row_start": self._rows,
            "rows": rows,
            "io_rows": io_rows,
            "initial_pids": initial,
            "start_time": start_time,
            "end_time": end_time,
            # ["fork", time, pid, parent] / ["exit", time, pid]
            "liveness": [list(event_tuple(event)) for event in liveness],
        })
        self._rows += rows

    def abort(self) -> None:
        """Close file handles without publishing a manifest."""
        if self._closed:
            return
        self._closed = True
        for handle in self._files.values():
            handle.close()

    def close(self) -> Path:
        """Close the column files and publish ``manifest.json`` atomically.

        Returns the manifest path.  The manifest is written to a private
        temporary file and renamed into place, so readers only ever see
        a complete store.
        """
        if self._closed:
            raise TraceStoreError("writer is closed")
        self._closed = True
        for handle in self._files.values():
            handle.flush()
            handle.close()
        store_digest = hashlib.blake2b(digest_size=20)
        store_digest.update(f"store-manifest:{STORE_VERSION}".encode("utf-8"))
        for application, entry in self._apps.items():
            entry["fingerprint"] = (
                self._known.get(application)
                or self._digests[application].hexdigest()
            )
            store_digest.update(
                f"{application}:{entry['fingerprint']}".encode("utf-8")
            )
        manifest = {
            "format": "repro-trace-store",
            "version": STORE_VERSION,
            "chunk_rows": self.chunk_rows,
            "rows": self._rows,
            "chunks": [
                [start, min(start + self.chunk_rows, self._rows)]
                for start in range(0, self._rows, self.chunk_rows)
            ],
            "columns": [list(column) for column in COLUMNS],
            "kind_codes": list(_KIND_VALUES),
            "fingerprint": store_digest.hexdigest(),
            "applications": self._apps,
        }
        target = self.path / MANIFEST_NAME
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path, prefix=".manifest-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump(manifest, stream)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target


class StoredExecution:
    """One execution of a store-backed trace (metadata only, lazy events).

    Implements the :class:`~repro.traces.trace.ExecutionLike` streaming
    protocol: :meth:`iter_events` decodes one chunk window of rows at a
    time from the memory-mapped columns, and :meth:`liveness_events`
    returns the fork/exit subset straight from the manifest without
    touching the columns at all.
    """

    __slots__ = (
        "_store", "application", "execution_index", "initial_pids",
        "start_time", "end_time", "event_count", "io_event_count",
        "row_start", "_liveness_raw", "_liveness",
    )

    def __init__(self, store: "TraceStore", application: str, meta: dict):
        self._store = store
        self.application = application
        self.execution_index = int(meta["index"])
        self.initial_pids = frozenset(
            int(p) for p in meta.get("initial_pids", ())
        )
        self.start_time = float(meta["start_time"])
        self.end_time = float(meta["end_time"])
        self.event_count = int(meta["rows"])
        self.io_event_count = int(meta["io_rows"])
        self.row_start = int(meta["row_start"])
        self._liveness_raw = meta.get("liveness", [])
        self._liveness: Optional[list[TraceEvent]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoredExecution({self.application!r}, "
            f"#{self.execution_index}, {self.event_count} events)"
        )

    def liveness_events(self) -> list[TraceEvent]:
        """Fork/exit events, decoded from the manifest (memoized)."""
        if self._liveness is None:
            events: list[TraceEvent] = []
            for record in self._liveness_raw:
                if record[0] == "fork":
                    events.append(ForkEvent(
                        time=record[1], pid=int(record[2]),
                        parent_pid=int(record[3]),
                    ))
                else:
                    events.append(ExitEvent(
                        time=record[1], pid=int(record[2])
                    ))
            self._liveness = events
        return self._liveness

    def chunk_windows(self) -> list[tuple[int, int]]:
        """This execution's row range clipped to the store's chunk grid."""
        return self._store.windows_for(
            self.row_start, self.row_start + self.event_count
        )

    def iter_event_chunks(self) -> Iterator[list[TraceEvent]]:
        """Yield events one chunk window at a time (the bounded path)."""
        for start, stop in self.chunk_windows():
            yield self._store.decode_rows(start, stop)

    def iter_column_chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Yield zero-copy column views of this execution's rows.

        One mapping per chunk window, each value a slice of the store's
        memory-mapped column array — no event objects are materialized
        and no bytes are copied.  The page-cache filter's store-backed
        fast path (:func:`repro.cache.filter.filter_execution`) consumes
        these directly, which is what lets a columnar replay tape be
        built from a store without per-chunk event decode.  Memory stays
        bounded by the chunk grid exactly like :meth:`iter_event_chunks`,
        and every window's codes are checked (:meth:`TraceStore.column_window`).
        """
        for start, stop in self.chunk_windows():
            yield self._store.column_window(start, stop)

    def iter_events(self) -> Iterator[TraceEvent]:
        """Iterate every event in canonical order, chunk by chunk."""
        for chunk in self.iter_event_chunks():
            yield from chunk

    @property
    def events(self) -> list[TraceEvent]:
        """The fully materialized event list.

        Provided for interoperability with list-oriented utilities;
        prefer :meth:`iter_events`, which does not defeat the store's
        memory bound.
        """
        return list(self.iter_events())

    @property
    def pids(self) -> set[int]:
        """Every pid alive at any point of the execution."""
        pids = set(self.initial_pids)
        pids.update(
            e.pid for e in self.liveness_events() if isinstance(e, ForkEvent)
        )
        return pids

    def lifetimes(self) -> dict[int, tuple[float, float]]:
        """``pid -> (start, end)``, identical to the in-memory container."""
        return process_lifetimes(
            self.initial_pids,
            self.start_time,
            self.end_time,
            self.liveness_events(),
        )

    def materialize(self) -> ExecutionTrace:
        """An in-memory :class:`ExecutionTrace` with identical events."""
        return ExecutionTrace(
            application=self.application,
            execution_index=self.execution_index,
            events=list(self.iter_events()),
            initial_pids=self.initial_pids,
        )


def _open_store_trace(path: str, application: str) -> "StoreBackedTrace":
    """Unpickling hook: reopen a store-backed trace from its path."""
    return TraceStore(path).trace(application)


class StoreBackedTrace:
    """A lazily-loading stand-in for :class:`ApplicationTrace`.

    Iterating yields :class:`StoredExecution` objects whose events decode
    chunk by chunk on demand.  The ``streaming`` marker tells the
    experiment runner to filter executions one at a time instead of
    memoizing the whole application, and ``fingerprint`` carries the
    manifest's provenance digest so artifact-cache keys and resilient
    checkpoints skip the per-event hashing pass.

    Pickles as ``(store path, application)`` — a few dozen bytes — so
    shipping a suite across process boundaries costs nothing.
    """

    #: Marks this trace as chunk-streaming for the experiment runner.
    streaming = True

    def __init__(self, store: "TraceStore", application: str) -> None:
        self._store = store
        self.application = application
        entry = store.application_entry(application)
        self.fingerprint: str = entry["fingerprint"]
        self.executions: list[StoredExecution] = [
            StoredExecution(store, application, meta)
            for meta in entry["executions"]
        ]
        self._io_events = int(entry["io_events"])

    def __iter__(self) -> Iterator[StoredExecution]:
        return iter(self.executions)

    def __len__(self) -> int:
        return len(self.executions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreBackedTrace({self.application!r}, "
            f"{len(self.executions)} executions, {self._io_events} I/O)"
        )

    def __reduce__(self):
        return (_open_store_trace, (str(self._store.path), self.application))

    @property
    def total_io_count(self) -> int:
        """Total I/O events across executions (from the manifest)."""
        return self._io_events

    @property
    def store(self) -> "TraceStore":
        """The owning store."""
        return self._store

    def materialize(self) -> ApplicationTrace:
        """The fully in-memory :class:`ApplicationTrace` equivalent."""
        return ApplicationTrace(
            application=self.application,
            executions=[e.materialize() for e in self.executions],
        )


class TraceStore:
    """Reader over a packed trace store directory.

    Columns are memory-mapped lazily on first touch and validated
    against the manifest's row count; a missing or truncated column file
    is quarantined and reported as a :class:`TraceStoreError`.  All
    decoding goes through :meth:`decode_rows`, which materializes one
    row window at a time.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except FileNotFoundError:
            raise TraceStoreError(
                f"{self.path} is not a trace store (no {MANIFEST_NAME}; "
                "pack one with `repro trace pack`)"
            ) from None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            aside = _quarantine(manifest_path)
            raise TraceStoreError(
                f"unreadable store manifest {manifest_path} "
                f"(quarantined to {aside}): {exc}"
            ) from exc
        self._manifest = manifest
        if manifest.get("format") != "repro-trace-store":
            raise TraceStoreError(
                f"{manifest_path} is not a trace-store manifest"
            )
        if manifest.get("version") != STORE_VERSION:
            raise TraceStoreError(
                f"store version {manifest.get('version')!r} is not "
                f"supported (this build reads version {STORE_VERSION})"
            )
        columns = [tuple(column) for column in manifest.get("columns", ())]
        if columns != list(COLUMNS):
            raise TraceStoreError(
                f"store column schema {columns!r} does not match this "
                "build's layout"
            )
        try:
            self.rows = int(manifest["rows"])
            self.chunk_rows = int(manifest["chunk_rows"])
            self.chunks = [
                (int(a), int(b)) for a, b in manifest.get("chunks", ())
            ]
            self.fingerprint = str(manifest["fingerprint"])
            self._applications: dict[str, dict] = manifest["applications"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError(
                f"malformed store manifest {manifest_path}: {exc!r}"
            ) from exc
        self._columns: dict[str, np.ndarray] = {}

    @property
    def applications(self) -> list[str]:
        """Application names packed in this store, in pack order."""
        return list(self._applications)

    def application_entry(self, application: str) -> dict:
        """The manifest entry of one application."""
        try:
            return self._applications[application]
        except KeyError:
            raise TraceStoreError(
                f"store {self.path} has no application {application!r}; "
                f"it holds {sorted(self._applications)}"
            ) from None

    def fingerprints(self) -> dict[str, str]:
        """``application -> provenance fingerprint`` from the manifest."""
        return {
            name: entry["fingerprint"]
            for name, entry in self._applications.items()
        }

    def trace(self, application: str) -> StoreBackedTrace:
        """The lazily-streaming trace of one application."""
        return StoreBackedTrace(self, application)

    def suite(
        self, applications: Optional[Iterable[str]] = None
    ) -> dict[str, StoreBackedTrace]:
        """A runner-ready ``{application: trace}`` mapping."""
        names = (
            list(applications) if applications is not None
            else self.applications
        )
        return {name: self.trace(name) for name in names}

    def windows_for(self, start: int, stop: int) -> list[tuple[int, int]]:
        """The row range ``[start, stop)`` cut along chunk boundaries.

        Boundary cases are exact: a range starting or ending on a chunk
        edge never produces an empty window, and a single final row gets
        a one-row window.  Out-of-range requests raise instead of being
        clamped (see :meth:`decode_rows`).
        """
        self._check_rows(start, stop)
        windows: list[tuple[int, int]] = []
        if stop <= start:
            return windows
        chunk = self.chunk_rows
        first = (start // chunk) * chunk
        for begin in range(first, stop, chunk):
            a = max(start, begin)
            b = min(stop, begin + chunk)
            if a < b:
                windows.append((a, b))
        return windows

    def _column(self, name: str, dtype_spec: str) -> np.ndarray:
        memo = self._columns.get(name)
        if memo is not None:
            return memo
        path = self.path / _COLUMN_DIR / f"{name}.bin"
        faults.corrupt_cache_read(path)
        dtype = np.dtype(dtype_spec)
        expected = self.rows * dtype.itemsize
        try:
            actual = os.stat(path).st_size
        except OSError:
            raise TraceStoreError(
                f"store column {path} is missing; the store is corrupt"
            ) from None
        if actual != expected:
            aside = _quarantine(path)
            raise TraceStoreError(
                f"store column {path} is truncated or corrupt "
                f"({actual} bytes, manifest expects {expected}); "
                f"quarantined to {aside} — re-pack the store"
            )
        if self.rows == 0:
            column: np.ndarray = np.empty(0, dtype=dtype)
        else:
            column = np.memmap(path, dtype=dtype, mode="r",
                               shape=(self.rows,))
        self._columns[name] = column
        return column

    def columns(self) -> dict[str, np.ndarray]:
        """All memory-mapped columns, keyed by name."""
        return {name: self._column(name, spec) for name, spec in COLUMNS}

    def _check_rows(self, start: int, stop: int) -> None:
        """Reject row windows outside ``[0, rows)``.

        NumPy slicing silently clamps an out-of-range window to the
        array, so an off-by-one caller would read a *shorter* stream and
        simulate on truncated data without any error.  Fail loudly
        instead.
        """
        if start < 0 or stop > self.rows:
            raise TraceStoreError(
                f"row window [{start}, {stop}) is outside the store's "
                f"{self.rows} row(s)"
            )

    def decode_rows(self, start: int, stop: int) -> list[TraceEvent]:
        """Materialize rows ``[start, stop)`` back into event objects.

        The slice is the only part of the store touched; callers that
        respect the chunk grid (:meth:`windows_for`) therefore never
        hold more than one chunk of events.  The window must lie inside
        the store's row range — a silent short read is an off-by-one
        bug, not a smaller result.
        """
        return _decode_window(self.column_window(start, stop), start)

    def column_window(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Zero-copy column views of rows ``[start, stop)``.

        The type and kind codes are checked first, so a corrupt column
        raises :class:`TraceStoreError` instead of decoding garbage.
        """
        self._check_rows(start, stop)
        window = {
            name: column[start:stop]
            for name, column in self.columns().items()
        }
        _check_codes(window, start)
        return window


def pack_jsonl(stream: IO[str], writer: StoreWriter) -> int:
    """Pack a JSON-lines trace stream (see :mod:`repro.traces.io_format`)
    into ``writer``, one execution at a time; returns executions packed."""
    from repro.traces.io_format import iter_executions

    count = 0
    for execution in iter_executions(stream):
        writer.write_execution(execution)
        count += 1
    return count


def pack_trace(trace, writer: StoreWriter) -> int:
    """Pack an application trace (in-memory or store-backed) into
    ``writer``; returns the number of executions packed."""
    count = 0
    for execution in trace:
        writer.write_execution(execution)
        count += 1
    return count
