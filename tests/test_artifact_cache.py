"""Persistent artifact cache: addressing, recovery, bit-identity, and
trace segments."""

from __future__ import annotations

import json
import multiprocessing
import pickle

import pytest

from repro.cache.filter import filter_execution
from repro.cache.page_cache import CacheConfig
from repro.config import SimulationConfig
from repro.sim.artifact_cache import (
    CACHE_DIR_ENV_VAR,
    ArtifactCache,
    filter_key,
    resolve_cache,
    trace_fingerprint,
    trace_key,
)
from repro.sim.experiment import ExperimentRunner
from repro.traces.events import ForkEvent
from repro.traces.store import StoreBackedTrace
from repro.traces.trace import ApplicationTrace
from repro.workloads import build_application, build_suite
from tests.helpers import single_process_execution


def _tiny_suite() -> dict[str, ApplicationTrace]:
    """Two synthetic applications with real idle periods, two executions
    each — enough to exercise filtering, prediction, and energy."""
    suite = {}
    for app, base_pc in (("alpha", 0x1000), ("beta", 0x7000)):
        executions = []
        for index in range(2):
            points = []
            t = 0.0
            for rep in range(6):
                points.append((t, base_pc + (rep % 3) * 8))
                t += 25.0 + index
            executions.append(
                single_process_execution(
                    points,
                    application=app,
                    execution_index=index,
                    end_time=t,
                )
            )
        suite[app] = ApplicationTrace(app, executions)
    return suite


# -------------------------------------------------------------- store --


def test_put_get_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    hit, value = cache.get(key)
    assert not hit and value is None
    cache.put(key, {"payload": [1, 2, 3]})
    hit, value = cache.get(key)
    assert hit and value == {"payload": [1, 2, 3]}
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hits == 1


def test_entries_live_under_two_level_layout(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, "x")
    path = cache.path_for(key)
    assert path.exists()
    assert path.parent.name == key[:2]
    # The atomic-publish protocol leaves no temp files behind.
    assert not list(tmp_path.rglob("*.tmp"))


def test_keys_are_content_addressed():
    fingerprint = "ab" * 20
    base = CacheConfig()
    key = filter_key(fingerprint, 0, base)
    assert key == filter_key(fingerprint, 0, CacheConfig())
    # Any determining input changes the key: execution, fingerprint,
    # or each field of the cache configuration.
    assert key != filter_key(fingerprint, 1, base)
    assert key != filter_key("cd" * 20, 0, base)
    assert key != filter_key(
        fingerprint, 0, CacheConfig(capacity_bytes=512 * 1024)
    )
    assert key != filter_key(fingerprint, 0, CacheConfig(block_size=8192))
    assert key != filter_key(fingerprint, 0, CacheConfig(flush_interval=60.0))
    # Trace keys vary with application and scale.
    assert trace_key("alpha", 1.0) != trace_key("alpha", 0.5)
    assert trace_key("alpha", 1.0) != trace_key("beta", 1.0)


def test_corrupted_entry_recovers(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, [1, 2, 3])
    cache.path_for(key).write_bytes(b"\x00garbage, not a pickle")
    hit, value = cache.get(key)
    assert not hit and value is None
    assert cache.stats.corrupt == 1
    # The broken entry is gone, and the recompute path heals the cache.
    assert not cache.path_for(key).exists()
    assert cache.get_or_compute(key, lambda: [1, 2, 3]) == [1, 2, 3]
    assert cache.get(key) == (True, [1, 2, 3])


def test_truncated_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, list(range(1000)))
    blob = cache.path_for(key).read_bytes()
    cache.path_for(key).write_bytes(blob[: len(blob) // 2])
    assert cache.get(key) == (False, None)
    assert cache.stats.corrupt == 1


def test_get_trace_rejects_bogus_payload(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    # Unpickles fine, but is not a trace payload: handled as corruption.
    cache.put(key, ("definitely", "not", "a", "trace"))
    assert cache.get_trace(key) is None
    assert cache.stats.corrupt == 1
    assert not cache.path_for(key).exists()


def test_truncated_entry_quarantined_and_recomputed(tmp_path):
    """Hardened read path: a published entry truncated mid-payload is a
    miss, never an exception — the entry is renamed aside (quarantined)
    and the recompute heals the cache."""
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, list(range(1000)))
    path = cache.path_for(key)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.get_or_compute(key, lambda: list(range(1000))) == list(
        range(1000)
    )
    assert cache.stats.corrupt == 1
    assert cache.stats.quarantined == 1
    # The corrupt payload survives for inspection; the key was healed.
    aside = path.with_name(path.name + ".corrupt")
    assert aside.exists() and aside.read_bytes() == blob[: len(blob) // 2]
    assert cache.get(key) == (True, list(range(1000)))


def test_corrupt_read_fault_site_recovers(tmp_path):
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, list(range(500)))
    plan = FaultPlan([FaultSpec(site="cache.corrupt-read", at=1)])
    with faults.injected(plan):
        hit, value = cache.get(key)
    assert not hit and value is None
    assert cache.stats.quarantined == 1
    assert len(plan.fired) == 1
    # A missing entry never consumes the fault counter.
    other = FaultPlan([FaultSpec(site="cache.corrupt-read", at=1)])
    with faults.injected(other):
        assert cache.get(trace_key("missing", 1.0)) == (False, None)
    assert other.fired == []


def test_torn_write_fault_site_recovers(tmp_path):
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    plan = FaultPlan([FaultSpec(site="cache.torn-write", at=1)])
    with faults.injected(plan):
        cache.put(key, list(range(500)))
    # The torn entry was published; the next read quarantines it and the
    # compute path rewrites a good copy.
    assert cache.get_or_compute(key, lambda: list(range(500))) == list(
        range(500)
    )
    assert cache.stats.corrupt == 1
    assert cache.get(key) == (True, list(range(500)))


def test_get_or_compute_computes_once(tmp_path):
    cache = ArtifactCache(tmp_path)
    calls = []
    for _ in range(3):
        value = cache.get_or_compute("ab" * 20, lambda: calls.append(1) or 42)
        assert value == 42
    assert len(calls) == 1


# ----------------------------------------------------------- segments --


def _put_segment(cache, application="mozilla", scale=0.1):
    """Publish one generated trace as a segment; returns (key, trace)."""
    key = trace_key(application, scale)
    trace = build_application(application, scale=scale)
    cache.put_trace(key, trace)
    return key, trace


def _assert_quarantined(cache, key):
    path = cache.segment_path(key)
    assert path.with_name(path.name + ".corrupt").exists()
    assert cache.stats.corrupt == 1
    assert cache.stats.quarantined == 1


def test_trace_segment_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key, trace = _put_segment(cache)
    assert cache.segment_path(key).is_dir()
    assert not list(tmp_path.rglob("*.tmp"))
    loaded = cache.get_trace(key)
    # A hit is the memory-mapped store trace, not decoded events, and
    # its provenance fingerprint is the content-addressed key ...
    assert isinstance(loaded, StoreBackedTrace)
    assert loaded.fingerprint == key
    assert cache.stats.hits == 1
    # ... and materializes to an identical trace, event for event.
    decoded = loaded.materialize()
    assert decoded == trace
    assert decoded.application == trace.application
    forks = 0
    for original, rebuilt in zip(trace, decoded):
        assert rebuilt.initial_pids == original.initial_pids
        assert rebuilt.events == original.events
        assert [type(e) for e in rebuilt.events] == [
            type(e) for e in original.events
        ]
        forks += sum(isinstance(e, ForkEvent) for e in rebuilt.events)
    assert forks > 0  # the round trip covers every event type


def test_segment_roundtrip_preserves_fingerprint(tmp_path):
    cache = ArtifactCache(tmp_path)
    key, trace = _put_segment(cache, "mplayer")
    loaded = cache.get_trace(key)
    assert trace_fingerprint(loaded) == trace_fingerprint(trace)
    assert trace_fingerprint(loaded.materialize()) == trace_fingerprint(trace)


def test_pickled_trace_entries_are_never_read(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    # A trace entry of the older pickled layout sits beside the
    # segment's path: it is neither read nor quarantined.
    cache.put(key, ("application", ()))
    assert cache.get_trace(key) is None
    assert cache.stats.misses == 1 and cache.stats.corrupt == 0
    assert cache.path_for(key).exists()


def test_get_trace_rejects_bogus_payload(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    # Something that is not a store sits at the segment's path: handled
    # as corruption.
    path = cache.segment_path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps(("definitely", "not", "a", "trace")))
    assert cache.get_trace(key) is None
    assert cache.stats.misses == 1
    _assert_quarantined(cache, key)
    assert not cache.segment_path(key).exists()


def test_truncated_segment_column_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key, trace = _put_segment(cache)
    column = cache.segment_path(key) / "columns" / "time.bin"
    column.write_bytes(column.read_bytes()[:-8])
    assert cache.get_trace(key) is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    _assert_quarantined(cache, key)
    assert not cache.segment_path(key).exists()
    # Regeneration heals the key with a readable segment.
    healed = build_application("mozilla", scale=0.1, cache=cache)
    assert healed == trace
    assert cache.get_trace(key).materialize() == trace


def test_segment_without_manifest_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key, _ = _put_segment(cache)
    (cache.segment_path(key) / "manifest.json").unlink()
    assert cache.get_trace(key) is None
    _assert_quarantined(cache, key)
    assert not cache.segment_path(key).exists()


@pytest.mark.parametrize("damage", ["row_range", "no_executions"])
def test_segment_with_inconsistent_manifest_is_a_miss(tmp_path, damage):
    cache = ArtifactCache(tmp_path)
    key, _ = _put_segment(cache)
    manifest_path = cache.segment_path(key) / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    entry = manifest["applications"]["mozilla"]
    if damage == "row_range":
        entry["executions"][-1]["row_start"] = manifest["rows"]
    else:
        del entry["executions"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert cache.get_trace(key) is None
    assert not cache.segment_path(key).exists()
    _assert_quarantined(cache, key)


def test_segment_corrupt_read_fault_site_recovers(tmp_path):
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    cache = ArtifactCache(tmp_path)
    key, trace = _put_segment(cache)
    plan = FaultPlan([FaultSpec(site="cache.corrupt-read", at=1)])
    with faults.injected(plan):
        assert cache.get_trace(key) is None
        # A missing segment never consumes the fault counter.
        assert cache.get_trace(trace_key("missing", 1.0)) is None
    assert len(plan.fired) == 1
    _assert_quarantined(cache, key)
    assert build_application("mozilla", scale=0.1, cache=cache) == trace
    assert cache.get_trace(key).materialize() == trace


def test_segment_torn_write_fault_site_recovers(tmp_path):
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    cache = ArtifactCache(tmp_path)
    key = trace_key("mozilla", 0.1)
    plan = FaultPlan([FaultSpec(site="cache.torn-write", at=1)])
    with faults.injected(plan):
        built = build_application("mozilla", scale=0.1, cache=cache)
    assert len(plan.fired) == 1
    # The torn segment was published; the next read quarantines it and
    # the regeneration publishes a good copy.
    assert build_application("mozilla", scale=0.1, cache=cache) == built
    _assert_quarantined(cache, key)
    assert cache.get_trace(key).materialize() == built


def test_losing_segment_writer_discards_its_copy(tmp_path):
    first = ArtifactCache(tmp_path)
    key, trace = _put_segment(first)
    published = sorted(p.name for p in first.segment_path(key).rglob("*"))
    second = ArtifactCache(tmp_path)
    second.put_trace(key, trace)  # the target exists: no exception
    assert first.stats.stores == 1 and second.stats.stores == 0
    assert not list(tmp_path.rglob("*.tmp"))
    assert sorted(
        p.name for p in first.segment_path(key).rglob("*")
    ) == published
    assert second.get_trace(key).materialize() == trace


def _store_segment(args: tuple[str, str]) -> int:
    root, key = args
    cache = ArtifactCache(root)
    cache.put_trace(key, build_application("nedit", scale=0.1))
    return len(cache.get_trace(key).materialize().executions)


def test_racing_segment_writers_all_succeed(tmp_path):
    key = trace_key("nedit", 0.1)
    with multiprocessing.get_context("spawn").Pool(4) as pool:
        outcomes = pool.map(_store_segment, [(str(tmp_path), key)] * 8)
    expected = build_application("nedit", scale=0.1)
    assert outcomes == [len(expected)] * 8
    assert not list(tmp_path.rglob("*.tmp"))
    assert ArtifactCache(tmp_path).get_trace(key).materialize() == expected


def _trace_events(trace) -> tuple[str, list]:
    return trace.fingerprint, [e.events for e in trace]


def test_cached_trace_pickles_into_pool_worker(tmp_path):
    cache = ArtifactCache(tmp_path)
    key, trace = _put_segment(cache)
    loaded = cache.get_trace(key)
    assert len(pickle.dumps(loaded)) < 1024  # path and name, no events
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        fingerprint, events = pool.apply(_trace_events, (loaded,))
    assert fingerprint == loaded.fingerprint
    assert events == [e.events for e in trace]


def test_build_application_persists_trace(tmp_path):
    cold = ArtifactCache(tmp_path)
    built = build_application("nedit", scale=0.1, cache=cold)
    assert cold.stats.stores == 1
    # A fresh process (modeled by a fresh cache instance) loads the
    # stored trace instead of regenerating, and gets an identical one.
    warm = ArtifactCache(tmp_path)
    loaded = build_application("nedit", scale=0.1, cache=warm)
    assert warm.stats.hits == 1
    assert warm.stats.stores == 0
    assert loaded.materialize() == built


@pytest.mark.parametrize(
    ("offset", "value", "error"),
    [
        (7, 0xFF, MemoryError),
        (10, 0xFF, OverflowError),
        (57, 0x00, KeyError),
        (208, 0x00, TypeError),
    ],
)
def test_flipped_byte_in_filter_entry_is_a_miss(tmp_path, offset, value, error):
    """A one-byte flip can make the unpickler raise nearly anything; the
    read must still be a miss with the entry quarantined."""
    result = filter_execution(
        build_application("nedit", scale=0.05).executions[0], CacheConfig()
    )
    cache = ArtifactCache(tmp_path)
    key = filter_key("ab" * 20, 0, CacheConfig())
    cache.put(key, result)
    path = cache.path_for(key)
    blob = bytearray(path.read_bytes())
    assert len(blob) == 995  # the entry these offsets were found on
    blob[offset] = value
    path.write_bytes(bytes(blob))
    with pytest.raises(error), open(path, "rb") as stream:
        pickle.load(stream)
    assert cache.get(key) == (False, None)
    assert cache.stats.corrupt == cache.stats.quarantined == 1
    assert path.with_name(path.name + ".corrupt").read_bytes() == blob
    cache.put(key, result)
    assert cache.get(key)[0]


def test_interrupts_escape_get(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, [1, 2, 3])

    def interrupted(stream):
        raise KeyboardInterrupt

    monkeypatch.setattr(pickle, "load", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cache.get(key)
    assert cache.path_for(key).exists() and cache.stats.corrupt == 0


# ----------------------------------------------------- runner wiring --


def test_filtered_persists_and_reloads(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()
    cold_cache = ArtifactCache(tmp_path)
    cold = ExperimentRunner(suite, config, artifact_cache=cold_cache)
    cold_results = {app: cold.filtered(app) for app in suite}
    assert cold_cache.stats.stores == 4  # 2 apps x 2 executions

    warm_cache = ArtifactCache(tmp_path)
    warm = ExperimentRunner(suite, config, artifact_cache=warm_cache)
    warm_results = {app: warm.filtered(app) for app in suite}
    assert warm_cache.stats.hits == 4
    assert warm_cache.stats.stores == 0
    assert warm_results == cold_results

    # The in-process memo means the cache is consulted once per app.
    warm.filtered("alpha")
    assert warm_cache.stats.hits == 4


def test_cache_config_change_is_a_miss(tmp_path):
    suite = _tiny_suite()
    first = ExperimentRunner(
        suite, SimulationConfig(), artifact_cache=ArtifactCache(tmp_path)
    )
    first.filtered("alpha")

    bigger = SimulationConfig(cache=CacheConfig(capacity_bytes=512 * 1024))
    second_cache = ArtifactCache(tmp_path)
    second = ExperimentRunner(suite, bigger, artifact_cache=second_cache)
    second.filtered("alpha")
    # Same traces, different cache configuration: stale filtered
    # artifacts must never be served.
    assert second_cache.stats.hits == 0
    assert second_cache.stats.misses == 2


def test_results_bit_identical_cache_on_off(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()

    off = ExperimentRunner(suite, config)
    cold = ExperimentRunner(
        suite, config, artifact_cache=ArtifactCache(tmp_path)
    )
    warm = ExperimentRunner(
        suite, config, artifact_cache=ArtifactCache(tmp_path)
    )
    for predictor in ("PCAP", "TP", "Base"):
        for app in suite:
            result_off = off.run_global(app, predictor)
            result_cold = cold.run_global(app, predictor)
            result_warm = warm.run_global(app, predictor)
            assert result_cold == result_off
            assert result_warm == result_off


def test_traced_run_identical_with_cache(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()
    off = ExperimentRunner(suite, config, tracing=True)
    warm = ExperimentRunner(
        suite,
        config,
        tracing=True,
        artifact_cache=ArtifactCache(tmp_path),
    )
    warm.filtered("alpha")  # populate the on-disk entries
    warm._filtered.clear()  # force the reload path for the actual run
    result_off = off.run_global("alpha", "PCAP")
    result_warm = warm.run_global("alpha", "PCAP")
    assert result_warm.trace_summary == result_off.trace_summary
    assert result_warm.trace_events == result_off.trace_events


def test_parallel_suite_identical_with_cache(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()
    serial = ExperimentRunner(suite, config).run_suite("PCAP", jobs=1)
    parallel = ExperimentRunner(
        suite, config, artifact_cache=ArtifactCache(tmp_path)
    ).run_suite("PCAP", jobs=2)
    assert parallel == serial


def test_fill_and_warm_runs_key_filter_artifacts_alike(tmp_path):
    """A library caller of ``build_suite(cache=...)`` that declares no
    fingerprints: the fill run keys its filter artifacts by the trace
    key, which warm runs read back from the segment manifest, so the
    first warm run finds every filter result."""
    fill_cache = ArtifactCache(tmp_path)
    fill = build_suite(scale=0.1, applications=("nedit",), cache=fill_cache)
    assert fill["nedit"].fingerprint == trace_key("nedit", 0.1)
    runner = ExperimentRunner(fill, SimulationConfig(),
                              artifact_cache=fill_cache)
    fill_results = runner.filtered("nedit")
    executions = len(fill_results)
    assert executions > 1
    assert fill_cache.stats.stores == 1 + executions

    warm_cache = ArtifactCache(tmp_path)
    warm = build_suite(scale=0.1, applications=("nedit",), cache=warm_cache)
    assert isinstance(warm["nedit"], StoreBackedTrace)
    runner = ExperimentRunner(warm, SimulationConfig(),
                              artifact_cache=warm_cache)
    warm_results = [result for _, result in runner.iter_filtered("nedit")]
    assert warm_cache.stats.hits == 1 + executions
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.stores == 0
    assert warm_results == fill_results


def test_declared_fingerprints_skip_content_hashing(tmp_path):
    suite = _tiny_suite()
    runner = ExperimentRunner(
        suite, SimulationConfig(), artifact_cache=ArtifactCache(tmp_path)
    )
    runner.declare_fingerprints({"alpha": "seeded-alpha"})
    runner.filtered("alpha")
    assert runner._fingerprints["alpha"] == "seeded-alpha"
    # Undeclared applications fall back to content fingerprinting.
    runner.filtered("beta")
    assert runner._fingerprints["beta"] == trace_fingerprint(suite["beta"])


# ------------------------------------------------------- concurrency --


def _store_entry(args: tuple[str, str, int]) -> bool:
    root, key, _worker = args
    cache = ArtifactCache(root)
    # Every writer publishes the same logical value (as racing workers
    # on a cold cache do); rename-into-place keeps each publish atomic.
    cache.put(key, {"value": list(range(500))})
    return cache.get(key)[0]


def test_concurrent_writers_leave_readable_entry(tmp_path):
    key = trace_key("alpha", 1.0)
    with multiprocessing.get_context("fork").Pool(4) as pool:
        outcomes = pool.map(
            _store_entry, [(str(tmp_path), key, i) for i in range(8)]
        )
    assert all(outcomes)
    cache = ArtifactCache(tmp_path)
    hit, value = cache.get(key)
    assert hit and value == {"value": list(range(500))}
    assert not list(tmp_path.rglob("*.tmp"))


# --------------------------------------------------------- resolution --


def test_resolve_cache_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
    assert resolve_cache() is None
    assert resolve_cache(tmp_path / "explicit") is not None

    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "from-env"))
    from_env = resolve_cache()
    assert from_env is not None
    assert from_env.root == tmp_path / "from-env"
    # An explicit directory wins over the environment.
    explicit = resolve_cache(tmp_path / "explicit")
    assert explicit is not None and explicit.root == tmp_path / "explicit"

    monkeypatch.setenv(CACHE_DIR_ENV_VAR, "")
    assert resolve_cache() is None
