"""The online DPM service (repro.serve).

The contracts under test:

* the wire protocol round-trips frames through any chunking, and
  rejects hostile length prefixes before buffering their bodies;
* a shard journal is crash-safe — fsynced before decisions release,
  compaction keeps replay exact, a torn tail is truncated away — and
  dedups ``(client, client_seq)`` retries idempotently;
* a shard worker's decisions and final table state are bit-identical
  to an offline :meth:`ExperimentRunner.run_global` replay of the same
  feed, including after a cold restart that recovers from the journal;
* the daemon end to end: concurrent clients get decisions equal to the
  offline replay, a SIGKILLed shard worker is restarted with its state
  recovered, oversized executions are shed with a ``backpressure``
  NACK, and malformed frames are quarantined as ``*.corrupt``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct

import pytest

from repro.config import SimulationConfig
from repro.errors import ServeError, ServeProtocolError
from repro.predictors.registry import make_spec
from repro.serve import protocol
from repro.serve.client import control_request
from repro.serve.harness import (
    run_scenario,
    spawn_daemon,
    verify_equivalence,
)
from repro.serve.state import ShardJournal
from repro.serve.worker import (
    ShardWorker,
    _FiredSink,
    shard_of,
    table_snapshot,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.traces import store as store_module
from repro.traces.store import COLUMNS, StoreWriter, encode_event_rows
from repro.traces.trace import ApplicationTrace
from repro.workloads import build_suite


# -- protocol ---------------------------------------------------------

def test_frame_round_trip_survives_any_chunking():
    frames = [
        protocol.json_frame(protocol.HELLO, {"client": "c1"}),
        protocol.encode_frame(protocol.ROWS, bytes(range(66)) * 3),
        protocol.json_frame(protocol.EXEC_END, {}),
    ]
    wire = b"".join(frames)
    for chunk in (1, 3, 7, len(wire)):
        reader = protocol.FrameReader()
        seen = []
        for start in range(0, len(wire), chunk):
            reader.feed(wire[start:start + chunk])
            seen.extend(reader.frames())
        assert [f[0] for f in seen] == [
            protocol.HELLO, protocol.ROWS, protocol.EXEC_END,
        ]
        assert seen[1][1] == bytes(range(66)) * 3
        assert len(reader) == 0


def test_frame_reader_rejects_hostile_length_before_buffering():
    reader = protocol.FrameReader()
    reader.feed(struct.pack("!I", protocol.MAX_FRAME + 1))
    with pytest.raises(ServeProtocolError):
        list(reader.frames())
    reader = protocol.FrameReader()
    reader.feed(struct.pack("!I", 0))
    with pytest.raises(ServeProtocolError):
        list(reader.frames())


def test_encode_frame_rejects_oversized_payload():
    with pytest.raises(ServeProtocolError):
        protocol.encode_frame(protocol.ROWS, b"x" * protocol.MAX_FRAME)


def test_read_frame_distinguishes_clean_eof_from_torn_frame():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(protocol.json_frame(protocol.BYE, {}))
        a.close()
        assert protocol.read_frame(b) == (protocol.BYE, b"{}")
        assert protocol.read_frame(b) is None  # clean EOF
    a, b = socket.socketpair()
    with a, b:
        frame = protocol.json_frame(protocol.DECISION, {"seq": 1})
        a.sendall(frame[:len(frame) - 3])  # cut mid-body
        a.close()
        with pytest.raises(ServeProtocolError):
            protocol.read_frame(b)


def test_shard_mapping_is_stable_and_in_range():
    for shards in (1, 2, 5):
        for app in ("mozilla", "xemacs", "mplayer"):
            shard = shard_of(app, shards)
            assert 0 <= shard < shards
            assert shard == shard_of(app, shards)


# -- journal ----------------------------------------------------------

def _execution(suite, application, index=0):
    return suite[application].executions[index]


@pytest.fixture(scope="module")
def tiny_suite():
    return build_suite(scale=0.05, applications=("mozilla", "xemacs"))


def test_journal_records_dedup_and_compact_replay(tmp_path, tiny_suite):
    execution = _execution(tiny_suite, "mozilla")
    rows = encode_event_rows(execution.events)
    with ShardJournal(tmp_path / "shard-0", checkpoint_every=100,
                      provenance={"predictor": "PCAP"}) as journal:
        journal.record_execution(
            client="c1", client_seq=0, application="mozilla",
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=rows, decision={"seq": 0, "shutdowns": 3},
        )
        assert journal.decisions[("c1", 0)] == {"seq": 0, "shutdowns": 3}
        assert journal.compact() is not None
        # Rows now live in a store segment; replay must still be exact.
        replayed = [exec_ for _, exec_ in journal.replay()]
    assert len(replayed) == 1
    assert replayed[0].events == list(execution.events)
    assert replayed[0].initial_pids == execution.initial_pids
    # A fresh load sees the compacted journal and the same decision.
    with ShardJournal(tmp_path / "shard-0") as reloaded:
        assert reloaded.decisions[("c1", 0)] == {"seq": 0, "shutdowns": 3}
        assert [e.events for _, e in reloaded.replay()] == \
            [list(execution.events)]


def test_journal_truncates_torn_tail_on_load(tmp_path, tiny_suite):
    execution = _execution(tiny_suite, "mozilla")
    shard_dir = tmp_path / "shard-0"
    with ShardJournal(shard_dir, checkpoint_every=100) as journal:
        journal.record_execution(
            client="c1", client_seq=0, application="mozilla",
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=encode_event_rows(execution.events),
            decision={"seq": 0},
        )
    path = shard_dir / "journal.jsonl"
    with open(path, "ab") as stream:
        stream.write(b'{"type": "execution", "app_seq')  # torn append
    with ShardJournal(shard_dir) as journal:
        assert journal.torn_bytes > 0
        assert len(journal.records) == 1
        assert journal.decisions[("c1", 0)] == {"seq": 0}
    # The torn bytes are gone from disk, not just skipped.
    with ShardJournal(shard_dir) as journal:
        assert journal.torn_bytes == 0


def test_journal_rejects_mid_stream_corruption(tmp_path):
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    (shard_dir / "journal.jsonl").write_text(
        'not json at all\n{"type": "provenance", "format": 1}\n'
    )
    with pytest.raises(ServeError, match="corrupt"):
        ShardJournal(shard_dir)


def test_journal_rejects_provenance_drift(tmp_path):
    with ShardJournal(tmp_path / "s", provenance={"predictor": "PCAP"}):
        pass
    with pytest.raises(ServeError, match="different configuration"):
        ShardJournal(tmp_path / "s", provenance={"predictor": "TP"})


# -- worker -----------------------------------------------------------

def _feed_worker(worker, suite, application, client="c1"):
    decisions = []
    for execution in suite[application].executions:
        decisions.append(worker.process(
            client=client,
            client_seq=len(decisions),
            application=application,
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=encode_event_rows(execution.events),
        ))
    return decisions


def test_worker_matches_offline_run_global_bit_identically(
        tmp_path, tiny_suite):
    config = SimulationConfig()
    worker = ShardWorker(0, tmp_path, predictor="PCAP", config=config)
    decisions = _feed_worker(worker, tiny_suite, "mozilla")

    runner = ExperimentRunner(
        {"mozilla": ApplicationTrace(
            "mozilla", list(tiny_suite["mozilla"].executions))},
        config=config,
    )
    sink = _FiredSink()
    spec = make_spec("PCAP", config)
    offline = runner.run_global("mozilla", spec, tracer=sink)

    online_stats = PredictionStats.merged([
        PredictionStats.from_dict(d["stats"]) for d in decisions
    ])
    assert online_stats == offline.stats
    sums = {"busy": 0.0, "idle_short": 0.0, "idle_long": 0.0,
            "power_cycle": 0.0}
    for decision in decisions:
        for name in sums:
            sums[name] += decision["energy"][name]
    assert (sums["busy"] + sums["idle_short"] + sums["idle_long"]
            + sums["power_cycle"]) == offline.ledger.total
    assert sum(d["shutdowns"] for d in decisions) == offline.shutdowns
    assert [f for d in decisions for f in d["fired"]] == sink.fired
    assert worker.tables()["mozilla"] == table_snapshot(spec)


def test_worker_dedups_retries_and_recovers_from_journal(
        tmp_path, tiny_suite):
    worker = ShardWorker(0, tmp_path, predictor="PCAP",
                         checkpoint_every=1)
    decisions = _feed_worker(worker, tiny_suite, "xemacs")
    # A retry of an already-journaled seq must not re-run the engine:
    # the cached decision comes back, and table state does not move.
    before = worker.tables()
    execution = _execution(tiny_suite, "xemacs")
    replay = worker.process(
        client="c1", client_seq=0, application="xemacs",
        execution_index=execution.execution_index,
        initial_pids=sorted(execution.initial_pids),
        rows=encode_event_rows(execution.events),
    )
    assert replay == decisions[0]
    assert worker.tables() == before
    worker.close()

    # A cold restart replays the journal (compacted to segments by
    # checkpoint_every=1) into bit-identical tables and counters.
    recovered = ShardWorker(0, tmp_path, predictor="PCAP",
                            checkpoint_every=1)
    assert recovered.recovered == len(decisions)
    assert recovered.tables() == worker.tables()
    assert recovered.stats() == worker.stats()
    recovered.close()


def test_worker_recovers_from_mixed_segments_and_inline_rows(
        tmp_path, tiny_suite):
    """A worker stopped without compacting leaves its last executions
    inline in the journal, the earlier ones in segments; a restart
    replays both kinds into the tables and stats of a worker that was
    never stopped."""
    config = SimulationConfig()
    reference = ShardWorker(0, tmp_path / "reference", config=config)
    interrupted = ShardWorker(0, tmp_path / "state", config=config,
                              checkpoint_every=3)
    for application in ("mozilla", "xemacs"):
        for worker in (reference, interrupted):
            _feed_worker(worker, tiny_suite, application, client=application)
    interrupted.journal.close()  # no drain: the tail stays inline
    kinds = {record.get("segment") is None
             for record in interrupted.journal.records}
    assert kinds == {True, False}

    recovered = ShardWorker(0, tmp_path / "state", config=config,
                            checkpoint_every=3)
    assert recovered.recovered == interrupted.executions
    assert recovered.tables() == reference.tables()
    assert recovered.stats() == reference.stats()
    recovered.close()
    reference.close()


def _segment_manifests(shard_dir):
    return [
        json.loads((segment / "manifest.json").read_text())
        for segment in sorted((shard_dir / "segments").iterdir())
    ]


def test_compaction_packs_what_storewriter_packs_from_events(
        tmp_path, tiny_suite):
    """Compaction writes the received columns; its segments (manifests,
    provenance fingerprints included, and column files) equal a
    ``StoreWriter`` pack of the original event objects."""
    shard_dir = tmp_path / "shard-0"
    originals = []
    with ShardJournal(shard_dir, checkpoint_every=3) as journal:
        for application in ("mozilla", "xemacs"):
            for execution in tiny_suite[application].executions:
                journal.record_execution(
                    client="c", client_seq=len(originals),
                    application=application,
                    execution_index=execution.execution_index,
                    initial_pids=sorted(execution.initial_pids),
                    rows=encode_event_rows(execution.events),
                    decision={},
                )
                originals.append(execution)
        journal.compact()
    manifests = _segment_manifests(shard_dir)
    assert len(manifests) == 2
    packed = 0
    for index, manifest in enumerate(manifests):
        count = sum(len(entry["executions"])
                    for entry in manifest["applications"].values())
        reference = tmp_path / f"reference-{index}"
        with StoreWriter(reference) as writer:
            for execution in originals[packed:packed + count]:
                writer.write_execution(execution)
        packed += count
        assert manifest == json.loads(
            (reference / "manifest.json").read_text())
        segment = shard_dir / "segments" / f"seg-{index:05d}"
        for name, _ in COLUMNS:
            column = f"columns/{name}.bin"
            assert (segment / column).read_bytes() == \
                (reference / column).read_bytes()
    assert packed == len(originals)


def test_serve_path_builds_no_io_event_objects(tmp_path, tiny_suite,
                                              monkeypatch):
    """Between a ROWS payload and a compacted segment nothing decodes
    rows into event objects: processing, compaction and a restart's
    replay all run with the row decoder disabled."""
    expected = ShardWorker(0, tmp_path / "reference")
    expected_decisions = _feed_worker(expected, tiny_suite, "mozilla")

    def no_decode(*args, **kwargs):
        raise AssertionError("rows were decoded into event objects")

    monkeypatch.setattr(store_module, "_decode_column_lists", no_decode)
    worker = ShardWorker(0, tmp_path / "state", checkpoint_every=2)
    assert _feed_worker(worker, tiny_suite, "mozilla") == \
        expected_decisions
    worker.journal.close()
    recovered = ShardWorker(0, tmp_path / "state", checkpoint_every=2)
    assert recovered.tables() == expected.tables()
    recovered.close()
    assert not any(record.get("segment") is None
                   for record in recovered.journal.records)
    expected.close()


# -- daemon end to end ------------------------------------------------

@pytest.mark.slow
def test_daemon_decisions_match_offline_replay(tmp_path):
    scenario = run_scenario(
        socket_path=str(tmp_path / "serve.sock"),
        state_dir=str(tmp_path / "state"),
        clients=3, scale=0.05,
        applications=("mozilla", "xemacs"),
        stall_timeout=10.0,
    )
    assert scenario.client_errors == []
    assert scenario.exit_code == 0
    assert verify_equivalence(scenario) == []


@pytest.mark.slow
def test_daemon_survives_sigkilled_shard_worker(tmp_path):
    scenario = run_scenario(
        socket_path=str(tmp_path / "serve.sock"),
        state_dir=str(tmp_path / "state"),
        clients=2, scale=0.05,
        applications=("mozilla", "xemacs"),
        stall_timeout=10.0,
        kill_worker_after=1,
    )
    assert scenario.client_errors == []
    assert scenario.killed_pid is not None
    assert scenario.exit_code == 0
    kinds = {i.get("kind") for i in scenario.health.get("incidents", [])}
    assert "worker-restart" in kinds
    assert verify_equivalence(scenario) == []


def _raw_conn(socket_path, client):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(socket_path)
    sock.sendall(protocol.json_frame(protocol.HELLO, {"client": client}))
    ftype, payload = protocol.read_frame(sock)
    assert ftype == protocol.HELLO_OK
    assert protocol.parse_json(payload)["row_bytes"] == 66
    return sock


@pytest.mark.slow
def test_daemon_backpressure_and_quarantine(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    state_dir = str(tmp_path / "state")
    daemon = spawn_daemon(
        socket_path=socket_path, state_dir=state_dir, shards=1,
        extra_args=("--max-pending-bytes", "660"),
    )
    try:
        # An execution assembling more than max-pending-bytes of rows
        # is shed with a typed backpressure NACK.
        with _raw_conn(socket_path, "greedy") as sock:
            sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, {
                "application": "mozilla", "execution": 0, "seq": 0,
                "initial_pids": [100],
            }))
            sock.sendall(protocol.encode_frame(protocol.ROWS,
                                               b"\x00" * 66 * 11))
            ftype, payload = protocol.read_frame(sock)
            assert ftype == protocol.NACK
            assert protocol.parse_json(payload)["code"] == \
                protocol.NACK_BACKPRESSURE

        # A row payload off the 66-byte grid is NACKed malformed and
        # the bytes land in quarantine as *.corrupt.
        with _raw_conn(socket_path, "mangled") as sock:
            sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, {
                "application": "mozilla", "execution": 0, "seq": 0,
                "initial_pids": [100],
            }))
            sock.sendall(protocol.encode_frame(protocol.ROWS, b"\x00" * 65))
            sock.sendall(protocol.json_frame(protocol.EXEC_END, {}))
            ftype, payload = protocol.read_frame(sock)
            assert ftype == protocol.NACK
            assert protocol.parse_json(payload)["code"] == \
                protocol.NACK_MALFORMED
        # Whole rows holding an unknown kind code are malformed too:
        # the daemon rejects them before a worker can crash on them.
        rows = bytearray(66 * 2)
        rows[2 * 33 + 1] = 200  # row 1's kind byte (the sixth column)
        with _raw_conn(socket_path, "poisoned") as sock:
            sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, {
                "application": "mozilla", "execution": 0, "seq": 0,
                "initial_pids": [100],
            }))
            sock.sendall(protocol.encode_frame(protocol.ROWS, bytes(rows)))
            sock.sendall(protocol.json_frame(protocol.EXEC_END, {}))
            ftype, payload = protocol.read_frame(sock)
            assert ftype == protocol.NACK
            nack = protocol.parse_json(payload)
            assert nack["code"] == protocol.NACK_MALFORMED
            assert "unknown access kind code 200" in nack["detail"]
        health = control_request(socket_path + ".ctl", "health")
        assert all(shard["restarts"] == 0 for shard in health["shards"])
        corrupt = [
            name for name in os.listdir(os.path.join(state_dir,
                                                     "quarantine"))
            if name.endswith(".corrupt")
        ]
        assert any(name.startswith("mangled-") for name in corrupt)
        assert any(name.startswith("poisoned-") for name in corrupt)
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60.0)
    assert daemon.returncode == 0
