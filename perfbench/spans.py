"""In-memory spans and counters around calls into each layer of ``repro``.

The traced run installs wrappers on public functions of the program's
modules from here, the benchmark's own code; nothing in ``src/`` knows
it is being traced.  A wrapper opens a span (name, layer, start, end,
parent, thread, phase) and may bump counters from the call's arguments
and result.  Spans are kept in memory and written out once, when the
traced run ends.

A function imported by name into other modules (``from m import f``)
is replaced in every loaded ``repro`` module that holds the original
object, so calls through either name are seen.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Optional

from perfbench.metrics import attributed_time, self_times

#: Modules imported up front so that their functions can be wrapped
#: before the command runs (several are imported lazily by the CLI).
TRACED_MODULES = (
    "repro.cli",
    "repro.workloads.base",
    "repro.workloads.suite",
    "repro.traces.trace",
    "repro.traces.store",
    "repro.sim.artifact_cache",
    "repro.cache.filter",
    "repro.sim.engine",
    "repro.sim.experiment",
    "repro.sim.fused",
    "repro.sim.resilience",
    "repro.sim.parallel",
    "repro.analysis.tables",
    "repro.analysis.figures",
    "repro.analysis.report",
    "repro.analysis.compare",
    "repro.serve.client",
)

#: The layers, in pipeline order, for the share table.
LAYERS = ("cli", "workloads", "traces", "store", "artifact_cache", "filter",
          "engine", "experiment", "fused", "executor", "analysis", "serve",
          "tracing")

#: ``repro.predictors.registry.KNOWN_PREDICTORS`` at the time the
#: benchmark was defined; one ``experiment.cell_s.<name>`` metric each.
PREDICTORS = ("Base", "Ideal", "TP", "TP-BE", "LT", "LTa", "PCAP", "PCAPh",
              "PCAPf", "PCAPfh", "PCAPa", "PCAPc", "PCAPp", "EXP", "AT",
              "PB", "ST", "QDPM", "SKI", "PI")

#: The span around the whole traced command: ``repro.cli.main`` or the
#: serve load's stream.  Coverage is measured over it.
WINDOW_SPANS = ("cli.main", "serve.stream")
#: Spans that only frame the command; time in them and in no other span
#: is time no layer's wrapper saw.
CONTAINER_SPANS = ("cli.import", "cli.main", "tracing.install",
                   "serve.stream", "serve.client")


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.phase = "run"
        self.caches: list[tuple[str, Any]] = []
        self.filtered: dict[str, set] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str,
             parent: Optional[int] = None) -> dict:
        """Open a span under ``parent``, by default the calling thread's
        innermost open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = {
            "id": next(self._ids), "name": name, "layer": layer,
            "parent": parent,
            "thread": threading.get_ident(), "phase": self.phase,
            "start": time.perf_counter(), "end": None,
        }
        stack.append(span["id"])
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        """Close ``span`` (the calling thread's innermost open span)."""
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` for the current phase."""
        self.counters[f"{self.phase}:{name}"] += amount

    def counter(self, name: str, phase: str = "run") -> float:
        return self.counters.get(f"{phase}:{name}", 0)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Context manager form of :meth:`open`/:meth:`close`."""
        record = self.open(name, layer)
        try:
            yield record
        finally:
            self.close(record)


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(recorder, span, args, kwargs, result)
        return result

    return wrapper


def _replace(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _hook_function(recorder: Recorder, module: str, attr: str, name: str,
                   layer: str, after: Optional[Callable] = None) -> None:
    original = getattr(importlib.import_module(module), attr)
    _replace(original, _wrap(recorder, original, name, layer, after))


def _hook_method(recorder: Recorder, module: str, cls: str, attr: str,
                 name: str, layer: str,
                 after: Optional[Callable] = None) -> None:
    owner = getattr(importlib.import_module(module), cls)
    original = owner.__dict__[attr]
    setattr(owner, attr, _wrap(recorder, original, name, layer, after))


# -- counters taken at the wrapped boundaries ---------------------------

def _count_generated(recorder, span, args, kwargs, result) -> None:
    recorder.count("workloads.events", len(result.events))


def _count_lifetimes(recorder, span, args, kwargs, result) -> None:
    recorder.count("traces.lifetimes_calls")


def _count_packed(recorder, span, args, kwargs, result) -> None:
    execution = args[1]
    recorder.count("store.rows", len(execution.events))


def _count_cache_read(recorder, span, args, kwargs, result) -> None:
    cache, key = args[0], args[1]
    if result[0]:
        try:
            recorder.count("artifact_cache.bytes_read",
                           cache.path_for(key).stat().st_size)
        except OSError:
            pass


def _count_filter(recorder, span, args, kwargs, result) -> None:
    execution = args[0]
    recorder.count("filter.calls")
    recorder.filtered.setdefault(recorder.phase, set()).add(
        (execution.application, execution.execution_index)
    )
    stats = result.cache_stats
    recorder.count("filter.requests",
                   stats.read_hits + stats.read_misses + stats.writes)
    recorder.count("filter.accesses", len(result.accesses))


def _count_tape(recorder, span, args, kwargs, result) -> None:
    recorder.count("engine.tapes_built")


def _count_cell(recorder, span, args, kwargs, result) -> None:
    predictor = args[2] if len(args) > 2 else kwargs.get("predictor")
    label = predictor if isinstance(predictor, str) else getattr(
        predictor, "name", "?")
    span["name"] = f"experiment.cell.{label}"
    recorder.count("experiment.cells")


def _count_fused(recorder, span, args, kwargs, result) -> None:
    recorder.count("fused.replay_calls")


def _count_submit(recorder, span, args, kwargs, result) -> None:
    recorder.count("serve.submits")


def _count_attempt(recorder, span, args, kwargs, result) -> None:
    recorder.count("serve.attempts")


def install(recorder: Recorder) -> None:
    """Import the traced modules and wrap each layer's public calls."""
    for module in TRACED_MODULES:
        importlib.import_module(module)
    fn = functools.partial(_hook_function, recorder)
    method = functools.partial(_hook_method, recorder)

    # workloads: one span per generated execution.
    fn("repro.workloads.base", "build_execution", "workloads.generate",
       "workloads", _count_generated)
    space = importlib.import_module("repro.workloads.base").FileSpace
    inode = space.inode

    def counted_inode(self, name, _inode=inode, _count=recorder.count):
        _count("workloads.inode_calls")
        return _inode(self, name)

    space.inode = counted_inode

    # traces: validation and per-process lifetimes.
    method("repro.traces.trace", "ExecutionTrace", "validate",
           "traces.validate", "traces")
    method("repro.traces.trace", "ExecutionTrace", "lifetimes",
           "traces.lifetimes", "traces", _count_lifetimes)
    method("repro.traces.store", "StoredExecution", "lifetimes",
           "traces.lifetimes", "traces", _count_lifetimes)

    # traces.store: packing and opening.
    method("repro.traces.store", "StoreWriter", "write_execution",
           "store.pack", "store", _count_packed)
    method("repro.traces.store", "StoreWriter", "close", "store.pack",
           "store")
    method("repro.traces.store", "TraceStore", "__init__", "store.open",
           "store")

    # sim.artifact_cache: reads (with decode) and writes.
    cache_cls = importlib.import_module(
        "repro.sim.artifact_cache").ArtifactCache
    cache_init = cache_cls.__init__

    def traced_init(self, *args, _init=cache_init, **kwargs):
        _init(self, *args, **kwargs)
        recorder.caches.append((recorder.phase, self))

    cache_cls.__init__ = traced_init
    method("repro.sim.artifact_cache", "ArtifactCache", "get",
           "artifact_cache.get", "artifact_cache", _count_cache_read)
    method("repro.sim.artifact_cache", "ArtifactCache", "get_trace",
           "artifact_cache.get", "artifact_cache")
    method("repro.sim.artifact_cache", "ArtifactCache", "put",
           "artifact_cache.put", "artifact_cache")
    method("repro.sim.artifact_cache", "ArtifactCache", "put_trace",
           "artifact_cache.put", "artifact_cache")

    # cache.filter
    fn("repro.cache.filter", "filter_execution", "filter.execution",
       "filter", _count_filter)

    # sim.engine: replay tapes.
    fn("repro.sim.engine", "build_replay_tape", "engine.tape_build",
       "engine", _count_tape)

    # sim.experiment: one span per replayed cell.
    for name in ("run_global", "run_local"):
        method("repro.sim.experiment", "ExperimentRunner", name,
               "experiment.cell", "experiment", _count_cell)

    # sim.fused
    fn("repro.sim.fused", "replay_execution", "fused.replay", "fused",
       _count_fused)
    fn("repro.sim.fused", "run_fused_application", "fused.application",
       "fused")

    # sim.resilience / sim.parallel: the cell executors.
    fn("repro.sim.resilience", "run_cells", "executor.run_cells",
       "executor")
    fn("repro.sim.parallel", "execute_cells", "executor.execute_cells",
       "executor")

    # analysis: figure/table builders, renderers and shape checks.
    for module, names in (
        ("repro.analysis.tables", ("build_table1", "build_table2",
                                   "build_table3")),
        ("repro.analysis.figures", ("build_fig6", "build_fig7",
                                    "build_fig8", "build_fig9",
                                    "build_fig10")),
        ("repro.analysis.report", ("render_table1", "render_table2",
                                   "render_table3", "render_accuracy_figure",
                                   "render_energy_figure")),
        ("repro.analysis.compare", ("all_checks", "render_checks")),
    ):
        for name in names:
            fn(module, name, f"analysis.{name}", "analysis")

    # serve (client side; the daemon is a separate process).
    fn("repro.serve.client", "encode_event_rows", "serve.encode", "serve")
    method("repro.serve.client", "ServeClient", "submit_execution",
           "serve.submit", "serve", _count_submit)
    method("repro.serve.client", "ServeClient", "_attempt", "serve.wait",
           "serve", _count_attempt)


# -- reduction of one traced process to per-layer metrics ---------------

#: Metrics of set-up work, taken from the traced set-up command (the
#: store pack, the cache fill), since the timed command does none.
SETUP_METRICS = ("store.pack_s", "store.rows", "store.bytes",
                 "artifact_cache.put_s")


def snapshot(recorder: Recorder) -> dict:
    """The recorder as plain data: closed spans and all counters.

    Artifact-cache statistics and the distinct executions filtered are
    folded into counters, per phase.
    """
    now = time.perf_counter()
    for span in recorder.spans:
        if span["end"] is None:
            span["end"] = now
    counters = dict(recorder.counters)
    for phase, cache in recorder.caches:
        for name in ("hits", "misses", "corrupt"):
            key = f"{phase}:artifact_cache.{name}"
            counters[key] = counters.get(key, 0) + getattr(cache.stats, name)
    for phase, executions in recorder.filtered.items():
        counters[f"{phase}:filter.distinct"] = len(executions)
    return {"spans": recorder.spans, "counters": counters}


def layer_metrics(data: dict, *, wall_s: float, process_s: float = 0.0,
                  concurrency: int = 1) -> dict[str, float]:
    """Per-layer metrics of the ``run`` phase of one traced process.

    ``data`` is a :func:`snapshot`.  ``wall_s`` is the traced wall time
    the self times add up to; ``process_s`` is the interpreter's
    start-up and exit around the spans (counted as ``cli`` self time);
    ``concurrency`` is how many threads ran spans side by side (the
    serve load's clients), so that coverage is judged per thread.
    """
    spans = [s for s in data["spans"] if s["phase"] == "run"]
    selfs = self_times(spans)

    def counter(name: str) -> float:
        return data["counters"].get(f"run:{name}", 0)

    def self_sum(predicate) -> float:
        return sum(selfs[s["id"]] for s in spans if predicate(s))

    def named(prefix):
        return lambda s: s["name"].startswith(prefix)

    def layer(name):
        return lambda s: s["layer"] == name

    calls = counter("filter.calls")
    distinct = counter("filter.distinct")
    requests = counter("filter.requests")
    metrics: dict[str, float] = {
        "cli.import_s": sum(s["end"] - s["start"] for s in data["spans"]
                            if s["name"] == "cli.import"),
        "cli.process_s": process_s,
        "workloads.generate_s": self_sum(layer("workloads")),
        "workloads.events": counter("workloads.events"),
        "workloads.inode_calls": counter("workloads.inode_calls"),
        "traces.validate_s": self_sum(named("traces.validate")),
        "traces.lifetimes_s": self_sum(named("traces.lifetimes")),
        "traces.lifetimes_calls": counter("traces.lifetimes_calls"),
        "store.pack_s": self_sum(named("store.pack")),
        "store.rows": counter("store.rows"),
        "store.bytes": counter("store.bytes"),
        "store.open_s": self_sum(named("store.open")),
        "artifact_cache.get_s": self_sum(named("artifact_cache.get")),
        "artifact_cache.put_s": self_sum(named("artifact_cache.put")),
        "artifact_cache.hits": counter("artifact_cache.hits"),
        "artifact_cache.misses": counter("artifact_cache.misses"),
        "artifact_cache.corrupt": counter("artifact_cache.corrupt"),
        "artifact_cache.bytes_read": counter("artifact_cache.bytes_read"),
        "filter.self_s": self_sum(layer("filter")),
        "filter.calls": calls,
        "filter.redundancy": calls / distinct if distinct else 0.0,
        "filter.hit_ratio": (1.0 - counter("filter.accesses") / requests
                             if requests else 0.0),
        "engine.tape_build_s": self_sum(layer("engine")),
        "engine.tapes_built": counter("engine.tapes_built"),
        "experiment.replay_self_s": self_sum(layer("experiment")),
        "experiment.cells": counter("experiment.cells"),
        "fused.replay_calls": counter("fused.replay_calls"),
        "executor.overhead_s": self_sum(layer("executor")),
        "analysis.self_s": self_sum(layer("analysis")),
        "serve.encode_s": self_sum(named("serve.encode")),
        "serve.wait_s": self_sum(named("serve.wait")),
        "serve.retries": counter("serve.attempts") - counter("serve.submits"),
        # Read from the daemon by the serve workload; 0 elsewhere.
        "serve.restarts": counter("serve.restarts"),
        "serve.daemon_cpu_s": counter("serve.daemon_cpu_s"),
        "serve.worker_cpu_s": counter("serve.worker_cpu_s"),
        "serve.state_bytes": counter("serve.state_bytes"),
        "serve.shard_skew": counter("serve.shard_skew"),
    }
    for predictor in PREDICTORS:
        metrics[f"experiment.cell_s.{predictor}"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == f"experiment.cell.{predictor}"
        )
    metrics["trace.wall_s"] = wall_s
    # The self times plus process_s partition wall_s by construction;
    # the sum only confirms the bookkeeping.  Coverage is the check: the
    # share of the command's thread time spent inside a wrapped call of
    # some layer rather than in the container span around the command.
    metrics["trace.self_sum_s"] = sum(selfs.values()) + process_s
    window = next((s for s in spans if s["name"] in WINDOW_SPANS), None)
    length = window["end"] - window["start"] if window else 0.0
    metrics["trace.coverage"] = attributed_time(
        spans, window["start"], window["end"], CONTAINER_SPANS
    ) / (length * concurrency) if length > 0 else 0.0
    metrics["trace.spans"] = len(data["spans"])
    return metrics


def layer_shares(data: dict, process_s: float = 0.0) -> dict[str, float]:
    """Self seconds per layer over the ``run`` phase."""
    spans = [s for s in data["spans"] if s["phase"] == "run"]
    selfs = self_times(spans)
    shares = {name: 0.0 for name in LAYERS}
    shares["cli"] += process_s
    for span in spans:
        shares[span["layer"]] += selfs[span["id"]]
    return shares
