"""The six-application suite of the paper's Table 1.

:func:`build_suite` generates the full trace history of every
application — deterministic, so every run of the benchmarks sees the
same traces.  ``scale`` shrinks both the number of executions and the
actions per execution (tests use small scales; benches use 1.0).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.traces.trace import ApplicationTrace
from repro.workloads import impress, mozilla, mplayer, nedit, writer, xemacs
from repro.workloads.base import ApplicationSpec, build_application_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.store import StoreBackedTrace

#: Table 1 order.
APPLICATIONS = ("mozilla", "writer", "impress", "xemacs", "nedit", "mplayer")

_SPEC_BUILDERS = {
    "mozilla": mozilla.spec,
    "writer": writer.spec,
    "impress": impress.spec,
    "xemacs": xemacs.spec,
    "nedit": nedit.spec,
    "mplayer": mplayer.spec,
}


def application_spec(name: str) -> ApplicationSpec:
    """The behavioural spec of one suite application."""
    try:
        return _SPEC_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; suite has {APPLICATIONS}"
        ) from None


def build_application(
    name: str, *, scale: float = 1.0, cache=None
) -> ApplicationTrace | StoreBackedTrace:
    """Generate one application's full trace history.

    With an :class:`~repro.sim.artifact_cache.ArtifactCache` the
    generated trace is persisted as a trace-store segment keyed by
    (application, scale, schema version): the second process to ask
    skips generation entirely and gets the memory-mapped
    :class:`~repro.traces.store.StoreBackedTrace`, whose events are
    identical to a fresh build.  The process that fills the cache keeps
    the in-memory trace it generated, fingerprinted by the same key.
    """
    if cache is not None:
        from repro.sim.artifact_cache import trace_key

        key = trace_key(name, scale)
        trace = cache.get_trace(key)
        if trace is None:
            trace = build_application_trace(
                application_spec(name), scale=scale
            )
            cache.put_trace(key, trace)
            # Warm runs read the key back as the segment's fingerprint;
            # keying this run's filter artifacts by it too makes a warm
            # run hit them.
            trace.fingerprint = key
        return trace
    return build_application_trace(application_spec(name), scale=scale)


@lru_cache(maxsize=4)
def _cached_suite(scale: float) -> dict[str, ApplicationTrace]:
    return {
        name: build_application(name, scale=scale) for name in APPLICATIONS
    }


def build_suite(
    *,
    scale: float = 1.0,
    applications: tuple[str, ...] = APPLICATIONS,
    cache=None,
) -> dict[str, ApplicationTrace | StoreBackedTrace]:
    """Generate (and memoize) the suite's traces at the given scale.

    ``cache`` persists each application's trace on disk instead of the
    in-process memo (see :func:`build_application`), sharing the build
    across processes and runs; traces read back from it are
    store-backed.
    """
    if cache is not None:
        return {
            name: build_application(name, scale=scale, cache=cache)
            for name in applications
        }
    full = _cached_suite(scale)
    return {name: full[name] for name in applications}
