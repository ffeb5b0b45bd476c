"""Persistent, content-addressed artifact cache for deterministic stages.

Two stages of every experiment are deterministic pure functions of their
inputs and dominate cold-start wall clock: workload trace generation
(:func:`repro.workloads.build_application`) and page-cache filtering
(:func:`repro.cache.filter.filter_execution`).  This module caches both
on disk so repeated runs — locally, in CI, and across the fork pool's
worker processes — skip straight to the simulation:

* **Two entry kinds.**  A generated application trace is stored as a
  one-application trace-store *segment* (:mod:`repro.traces.store`:
  column files plus a JSON manifest, in ``ab/<key>.seg/``, with the key
  as its provenance fingerprint) and read back as a memory-mapped
  :class:`~repro.traces.store.StoreBackedTrace` — no event objects are
  built.  Every other artifact (filter results, tapes,
  fused and fleet results) is a pickle in ``ab/<key>.pkl``.
* **Content addressing.**  Entries are keyed by a BLAKE2b digest over
  every input that determines the output: the application name and scale
  plus a schema version for generated traces; a fingerprint of the trace
  events plus the cache configuration plus a schema version for filtered
  results.  Changing any input (or bumping :data:`SCHEMA_VERSION` when
  the artifact layout changes) changes the key, so stale entries are
  never *read* — they are simply orphaned.  (Trace entries of the older
  pickled layout, ``<trace key>.pkl``, are never read either.)
* **Atomic writes, lock-free reads.**  A pickle is written to a private
  temporary file and published with :func:`os.replace`; a segment is
  packed into a private temporary directory and published with
  :func:`os.rename`.  Both are atomic on POSIX — a reader sees either
  the complete entry or nothing.  Concurrent writers of the same key
  (parallel workers racing on a cold cache) each build an identical
  artifact; for pickles the last rename wins, for segments the first
  one does and the others discard their copy.  No locking is needed.
* **Corruption recovery.**  A truncated or unreadable entry (killed
  writer that bypassed the temp-file protocol, disk corruption, a torn
  write) is treated as a miss: the entry — or the whole segment — is
  *quarantined*, renamed aside with a ``.corrupt`` suffix so the
  evidence survives for inspection (removed as a fallback), and the
  caller recomputes and rewrites it.  Segments are checked eagerly on
  read (manifest and every column size), so corruption never surfaces
  mid-run.  The :mod:`repro.faults` sites ``cache.corrupt-read`` (on
  pickles and segment columns) and ``cache.torn-write`` (on the temp
  pickle or the temp segment's manifest) exercise this path
  deliberately.

The cache is opt-in: pass ``--cache-dir`` on the CLI or set the
``REPRO_CACHE_DIR`` environment variable.  Cached pickles are exactly
the objects the uncached path builds and segments decode to the very
events that were packed, so simulation results are bit-identical with
the cache on or off.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro import faults
from repro.cache.page_cache import CacheConfig
from repro.errors import TraceStoreError
from repro.traces.events import event_tuple
from repro.traces.store import (
    MANIFEST_NAME,
    StoreBackedTrace,
    StoreWriter,
    TraceStore,
    pack_trace,
)
from repro.traces.trace import ApplicationTrace

#: Bump whenever the pickled artifact layout (or the meaning of a key
#: component) changes; old entries are orphaned rather than misread.
#: (Segments carry their own :data:`repro.traces.store.STORE_VERSION`.)
SCHEMA_VERSION = 1

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Pickle protocol pinned for stable artifact bytes across interpreters.
_PICKLE_PROTOCOL = 4


@dataclass(slots=True)
class ArtifactCacheStats:
    """Counters of one :class:`ArtifactCache` instance (not persisted)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but unreadable (treated as misses).
    corrupt: int = 0
    #: Corrupt entries renamed aside (``.corrupt``) for inspection.
    quarantined: int = 0


class ArtifactCache:
    """Content-addressed pickle and trace-segment store with atomic writes.

    The two-level directory layout (``ab/abcdef….pkl`` and
    ``ab/abcdef….seg/``) keeps directory sizes bounded; keys are hex
    digests produced by the ``*_key`` functions in this module.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = ArtifactCacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry (two-level fan-out by key)."""
        return self.root / key[:2] / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry or segment aside (``<name>.corrupt``).

        Renaming instead of deleting keeps the evidence for post-mortem
        inspection while still clearing the key for the recompute (an
        older quarantined copy of the same segment is replaced); if the
        rename fails the entry is removed best-effort.
        """
        self.stats.corrupt += 1
        aside = path.with_name(path.name + ".corrupt")
        try:
            if aside.is_dir():
                shutil.rmtree(aside)
            os.replace(path, aside)
            self.stats.quarantined += 1
        except OSError:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        Any failure to read or unpickle counts as a miss — never an
        exception to the caller; the offending entry is quarantined so
        the recompute can replace it.  A flipped byte can make the
        unpickler raise almost anything (``MemoryError`` from a huge
        frame length, ``KeyError``, ``TypeError``, ``OverflowError``…),
        so every :class:`Exception` is treated as corruption; only
        ``KeyboardInterrupt``/``SystemExit`` propagate.
        """
        path = self.path_for(key)
        faults.corrupt_cache_read(path)
        try:
            with open(path, "rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:
            self.stats.misses += 1
            self._quarantine(path)
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Publish ``value`` under ``key`` atomically (rename into place)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                pickle.dump(value, stream, protocol=_PICKLE_PROTOCOL)
            faults.tear_cache_write(tmp_name)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing and storing on a miss."""
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    def segment_path(self, key: str) -> Path:
        """On-disk directory of one trace segment (same fan-out)."""
        return self.root / key[:2] / f"{key}.seg"

    def get_trace(self, key: str) -> Optional[StoreBackedTrace]:
        """The memory-mapped trace of a cached segment, or ``None``.

        The manifest, every column size and every execution's row range
        are checked here, not lazily mid-run: a segment that fails any
        check is quarantined whole and counted as a miss, so the caller
        regenerates the trace.
        """
        path = self.segment_path(key)
        if not os.path.lexists(path):
            self.stats.misses += 1
            return None
        try:
            store = TraceStore(path)
            store.columns()
            (application,) = store.applications
            trace = store.trace(application)
            for execution in trace:
                execution.chunk_windows()  # row range inside the columns
        except (TraceStoreError, KeyError, TypeError, ValueError):
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return trace

    def put_trace(self, key: str, trace: ApplicationTrace) -> None:
        """Publish ``trace`` as a one-application store segment.

        The segment is packed into a private temporary directory and
        renamed into place.  When a racing writer published the key
        first, the rename fails and this copy is discarded: both hold
        the same deterministic trace.
        """
        path = self.segment_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        ))
        try:
            # The key addresses the trace's content, so it serves as the
            # segment's provenance fingerprint (no per-event hashing).
            fingerprints = {trace.application: key}
            with StoreWriter(tmp, fingerprints=fingerprints) as writer:
                pack_trace(trace, writer)
            faults.tear_cache_write(tmp / MANIFEST_NAME)
            try:
                os.rename(tmp, path)
            except OSError as error:
                if error.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
                shutil.rmtree(tmp, ignore_errors=True)
                return
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.stats.stores += 1


def _digest(*parts: object) -> str:
    """Hex BLAKE2b digest over the reprs of ``parts``.

    All key components are ints, floats, strings, or tuples thereof,
    whose reprs are deterministic across processes and platforms.
    """
    blob = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=20).hexdigest()


def trace_key(application: str, scale: float) -> str:
    """Cache key of one generated application trace."""
    return _digest("trace", SCHEMA_VERSION, application, scale)


#: Canonical event value tuples come from the trace layer so the trace
#: store's streaming fingerprint hashes the same field layout.
_event_tuple = event_tuple


def trace_fingerprint(trace: ApplicationTrace) -> str:
    """Digest of a trace's full event content.

    Filtered artifacts are keyed on this fingerprint (not on the trace's
    provenance), so regenerating a workload with different content —
    a generator change, a different scale, an imported trace — can never
    serve stale filtered results.
    """
    digest = hashlib.blake2b(digest_size=20)
    digest.update(
        f"{SCHEMA_VERSION}:{trace.application}:{len(trace)}".encode("utf-8")
    )
    for execution in trace:
        header = (
            execution.execution_index,
            tuple(sorted(execution.initial_pids)),
            len(execution.events),
        )
        payload = [_event_tuple(event) for event in execution.events]
        digest.update(pickle.dumps((header, payload), _PICKLE_PROTOCOL))
    return digest.hexdigest()


def filter_key(
    fingerprint: str, execution_index: int, cache_config: CacheConfig
) -> str:
    """Cache key of one execution's page-cache filtering result."""
    return _digest(
        "filtered",
        SCHEMA_VERSION,
        fingerprint,
        execution_index,
        cache_config.capacity_bytes,
        cache_config.block_size,
        cache_config.flush_interval,
    )


def tape_key(
    fingerprint: str, execution_index: int, config: "SimulationConfig"
) -> str:
    """Cache key of one execution's predictor-independent replay tape.

    Keyed on the trace fingerprint × execution × the *full* simulation
    configuration: the columnar tape bakes in gap boundaries, idle
    energies, feedback classes, and the busy-energy sum, which depend
    on the disk parameters, service times, cache geometry (through the
    filtered stream) and the breakeven/wait-window thresholds alike —
    ``repr(config)`` covers them all, like the variant-set digest.
    """
    return _digest(
        "tape", SCHEMA_VERSION, fingerprint, execution_index, repr(config)
    )


def variant_set_fingerprint(
    labels: tuple[str, ...] | list[str], config: "SimulationConfig"
) -> str:
    """Digest identifying a fused variant set under one configuration.

    Fused artifacts hold *every* lane's result, so their keys must
    change whenever the lane list (order included — lanes are positional)
    or the simulation configuration does.  Labels are the same
    predictor-identifying strings the classic per-cell path keys on
    (registry names, ``"TP@0.5"``-style sweep labels), which is what
    keeps classic and fused cache entries equally precise.
    """
    return _digest(
        "variant-set", SCHEMA_VERSION, tuple(labels), repr(config)
    )


def fused_key(
    fingerprint: str,
    config: "SimulationConfig",
    labels: tuple[str, ...] | list[str],
) -> str:
    """Cache key of one application's fused multi-variant pass."""
    return _digest(
        "fused",
        SCHEMA_VERSION,
        fingerprint,
        variant_set_fingerprint(labels, config),
    )


def fleet_fingerprint(
    device_fingerprints: tuple[str, ...] | list[str],
    labels: tuple[str, ...] | list[str],
    config: "SimulationConfig",
) -> str:
    """Digest identifying one fleet run.

    Built from the *ordered* per-device trace fingerprints crossed with
    the variant-set fingerprint: device order matters because the
    shared-table mode replays applications in first-seen device order
    (a reordered fleet evolves its shared tables differently), and the
    variant set pins down the predictor lanes exactly as fused keys do.
    """
    return _digest(
        "fleet",
        SCHEMA_VERSION,
        tuple(device_fingerprints),
        variant_set_fingerprint(labels, config),
    )


def fleet_key(
    fingerprint: str,
    tables: str,
) -> str:
    """Cache key of one fleet evaluation's shared replay artifact.

    ``fingerprint`` is :func:`fleet_fingerprint` (already covering the
    device population, lane list, and configuration); ``tables`` is the
    prediction-table mode, which changes the replay semantics without
    changing any input the fingerprint sees.
    """
    return _digest("fleet-run", SCHEMA_VERSION, fingerprint, tables)


def generated_suite_fingerprints(
    scale: float, applications: tuple[str, ...] | list[str]
) -> dict[str, str]:
    """Provenance fingerprints for a generator-built suite.

    Trace generation is a deterministic function of (application, scale,
    schema version) — the premise that makes caching the traces sound in
    the first place — so for generated suites the trace cache key can
    stand in for the (expensive, per-event) content fingerprint when
    keying filtered artifacts.  Pass the result to
    :meth:`~repro.sim.experiment.ExperimentRunner.declare_fingerprints`.
    Traces of any other provenance (imported, hand-built) must use
    :func:`trace_fingerprint`.
    """
    return {name: trace_key(name, scale) for name in applications}


def resolve_cache(
    cache_dir: Optional[str | os.PathLike[str]] = None,
) -> Optional[ArtifactCache]:
    """The artifact cache to use, or ``None`` when caching is off.

    An explicit ``cache_dir`` wins; otherwise the ``REPRO_CACHE_DIR``
    environment variable is consulted.  An empty value disables caching.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV_VAR) or None
    if cache_dir is None:
        return None
    return ArtifactCache(cache_dir)
