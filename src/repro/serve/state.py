"""Crash-safe prediction state for one serve shard.

A shard's entire predictor state is **event-sourced**: the journal
records every execution the shard ever processed (its rows plus the
decision returned), and the in-memory prediction tables are always a
pure replay of that record.  That makes recovery trivial and exact —
a restarted worker replays the journal through fresh predictor specs
and ends with *bit-identical* table contents, because it runs the very
same :func:`~repro.sim.engine.run_global_execution` calls the live
worker ran.  :meth:`ShardJournal.replay` yields executions as column
views, never decoded: an inline record's rows as a
:class:`~repro.traces.store.ColumnExecution`, a compacted one as its
segment's :class:`~repro.traces.store.StoredExecution`.

Layout of ``state_dir/shard-<k>/``::

    journal.jsonl         # append-only, fsynced per record
    segments/seg-00000/   # compacted row data: a trace store
    quarantine/           # malformed frames, *.corrupt (daemon-owned)

Journal records::

    {"type": "provenance", "predictor": ..., "config": ..., "format": 1}
    {"type": "execution", "app_seq": 3, "application": "mozilla",
     "client": "c1", "client_seq": 2, "execution_index": 5,
     "initial_pids": [100], "rows": "<base64 columnar rows>",
     "decision": {...}}

Every ``checkpoint_every`` executions the journal is **compacted**: the
accumulated row payloads are packed into a trace-store segment
(:class:`~repro.traces.store.StoreWriter` — chunked column files plus
an atomically-published manifest carrying BLAKE2b provenance
fingerprints; the writer's column branch writes the received columns
as they are and hashes the fingerprint the event objects would give),
and the journal is atomically rewritten with each
compacted record's ``rows`` replaced by a ``{"segment": k, "pos": i}``
pointer.  Both steps are crash-ordered: the segment manifest is
published before the journal rewrite, and the rewrite itself is
tmp-file + ``os.replace`` + fsync, so a crash at any instant leaves
either the old journal (rows inline) or the new one (rows in a fully
published segment) — never a state that cannot replay.

A torn final journal line (crash mid-append) is truncated away on
load, mirroring :class:`repro.sim.resilience.CellCheckpoint`; the
daemon then re-answers the affected client's retry idempotently.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import ServeError
from repro.traces.store import (
    ColumnExecution,
    StoreBackedTrace,
    StoreWriter,
    TraceStore,
)
from repro.traces.trace import ExecutionLike

#: Journal schema version.
JOURNAL_FORMAT = 1

JOURNAL_NAME = "journal.jsonl"
_SEGMENT_DIR = "segments"


class ShardJournal:
    """Append-only, compacting execution journal of one shard."""

    def __init__(
        self,
        shard_dir: str | os.PathLike[str],
        *,
        provenance: Optional[dict] = None,
        checkpoint_every: int = 32,
    ) -> None:
        if checkpoint_every < 1:
            raise ServeError("checkpoint_every must be at least 1")
        self.shard_dir = Path(shard_dir)
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.shard_dir / JOURNAL_NAME
        self.checkpoint_every = checkpoint_every
        self.provenance: Optional[dict] = None
        #: Records in append order (the replay tape).
        self.records: list[dict] = []
        #: ``(client, client_seq) -> decision`` for idempotent retries.
        self.decisions: dict[tuple[str, int], dict] = {}
        self.torn_bytes = 0
        self._stream = None
        self._uncompacted = 0
        self._next_segment = 0
        #: ``(segment, application) -> StoreBackedTrace`` read so far.
        self._segment_traces: dict[tuple[int, str], StoreBackedTrace] = {}
        if self.path.exists():
            self._load()
        if provenance is not None:
            self._declare_provenance(provenance)

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        valid_end = 0
        for chunk in raw.split(b"\n"):
            end = min(len(raw), offset + len(chunk) + 1)
            line = chunk.decode("utf-8", errors="replace").strip()
            offset = end
            if not line:
                valid_end = end
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Only a torn tail is survivable; garbage mid-journal
                # means the shard state cannot be trusted.
                if any(rest.strip() for rest in
                       raw[end:].split(b"\n")):
                    raise ServeError(
                        f"shard journal {self.path} is corrupt "
                        "mid-stream; remove the shard directory to "
                        "reset its state"
                    ) from None
                break
            self._ingest(record)
            valid_end = end
        if valid_end < len(raw):
            self.torn_bytes = len(raw) - valid_end
            with open(self.path, "r+b") as stream:
                stream.truncate(valid_end)

    def _ingest(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "provenance":
            self.provenance = record
            return
        if rtype != "execution":
            raise ServeError(
                f"shard journal {self.path} holds an unknown record "
                f"type {rtype!r}"
            )
        self.records.append(record)
        self.decisions[
            (str(record["client"]), int(record["client_seq"]))
        ] = record["decision"]
        segment = record.get("segment")
        if segment is None:
            self._uncompacted += 1
        else:
            self._next_segment = max(self._next_segment,
                                     int(segment["segment"]) + 1)

    def _declare_provenance(self, provenance: dict) -> None:
        declared = {"type": "provenance", "format": JOURNAL_FORMAT,
                    **provenance}
        if self.provenance is not None:
            mismatched = {
                key for key in provenance
                if self.provenance.get(key) != provenance[key]
            }
            if mismatched:
                raise ServeError(
                    f"shard journal {self.path} was written under a "
                    f"different configuration ({sorted(mismatched)} "
                    "differ); remove the state directory or restart "
                    "with the original settings"
                )
            return
        self.provenance = declared
        self._append(declared)

    # -- appending -----------------------------------------------------
    def _append(self, record: dict) -> None:
        if self._stream is None:
            self._stream = open(self.path, "a", encoding="utf-8")
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def record_execution(
        self,
        *,
        client: str,
        client_seq: int,
        application: str,
        execution_index: int,
        initial_pids: list[int],
        rows: bytes,
        decision: dict,
    ) -> None:
        """Durably journal one processed execution (fsync before the
        decision is released to the client)."""
        record = {
            "type": "execution",
            "app_seq": len(self.records),
            "application": application,
            "client": client,
            "client_seq": client_seq,
            "execution_index": execution_index,
            "initial_pids": list(initial_pids),
            "rows": base64.b64encode(rows).decode("ascii"),
            "decision": decision,
        }
        self._append(record)
        self.records.append(record)
        self.decisions[(client, client_seq)] = decision
        self._uncompacted += 1
        if self._uncompacted >= self.checkpoint_every:
            self.compact()

    # -- compaction ----------------------------------------------------
    def compact(self) -> Optional[Path]:
        """Move inline row payloads into a trace-store segment.

        Returns the new segment path, or ``None`` when nothing was
        pending.  The segment is published (atomic manifest) *before*
        the journal is rewritten to point at it, so a crash between the
        two steps only costs the compaction, never the state.
        """
        pending = [r for r in self.records if r.get("segment") is None]
        if not pending:
            return None
        segment_index = self._next_segment
        segment_dir = (self.shard_dir / _SEGMENT_DIR /
                       f"seg-{segment_index:05d}")
        positions: dict[str, int] = {}
        with StoreWriter(segment_dir) as writer:
            for record in pending:
                execution = self._execution_from(record)
                writer.write_execution(execution)
                app = record["application"]
                record["segment"] = {
                    "segment": segment_index,
                    "pos": positions.get(app, 0),
                }
                record.pop("rows", None)
                positions[app] = positions.get(app, 0) + 1
        self._rewrite_journal()
        self._next_segment = segment_index + 1
        self._uncompacted = 0
        return segment_dir

    def _rewrite_journal(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        fd, tmp_name = tempfile.mkstemp(
            dir=self.shard_dir, prefix=".journal-", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            if self.provenance is not None:
                stream.write(json.dumps(self.provenance) + "\n")
            for record in self.records:
                stream.write(json.dumps(record) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, self.path)

    # -- replay --------------------------------------------------------
    def _segment_trace(self, index: int, application: str) -> StoreBackedTrace:
        key = (index, application)
        trace = self._segment_traces.get(key)
        if trace is None:
            store = TraceStore(
                self.shard_dir / _SEGMENT_DIR / f"seg-{index:05d}"
            )
            trace = self._segment_traces[key] = store.trace(application)
        return trace

    def _execution_from(self, record: dict) -> ExecutionLike:
        """One journaled execution, as columns: its inline rows, or the
        :class:`~repro.traces.store.StoredExecution` it was compacted to."""
        segment = record.get("segment")
        if segment is None:
            return ColumnExecution(
                str(record["application"]),
                int(record["execution_index"]),
                record["initial_pids"],
                base64.b64decode(record["rows"]),
            )
        trace = self._segment_trace(
            int(segment["segment"]), str(record["application"])
        )
        return trace.executions[int(segment["pos"])]

    def replay(self) -> Iterator[tuple[dict, ExecutionLike]]:
        """Yield ``(record, execution)`` in original processing order."""
        for record in self.records:
            yield record, self._execution_from(record)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "ShardJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
