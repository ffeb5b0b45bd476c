"""Differential fuzzing of the tape kernel against the classic engine.

A hypothesis strategy generates short multi-process execution histories
with the shapes real traces hit only rarely: fork/exit interleavings,
zero-length and sub-wait-window gaps, back-to-back (serialized)
accesses, equal timestamps, flush bursts of buffered writes, and empty
or single-access executions.  For every generated history, replaying
``build_replay_tape`` through ``replay_execution`` must be bit-identical
(floats compared by ``float.hex``) to ``run_global_execution`` for every
lane class, with shared predictor state carried across executions.

On top of the equality, the results must meet the metamorphic
invariants that define correct output without reference to any
implementation: energy never below the standby floor, the Ideal oracle
at or below every policy, and the ledger buckets summing to the total.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.predictors.registry import make_spec, ski_spec
from repro.sim.engine import build_replay_tape, run_global_execution
from repro.sim.fused import replay_execution
from repro.traces.events import AccessType, ExitEvent, ForkEvent, IOEvent
from repro.traces.trace import ExecutionTrace

from .helpers import canonical

CONFIG = SimulationConfig()

#: One lane of every class: omniscient (Base, Ideal), constant-intent
#: (TP, TP-BE), generic per-process (PCAP, PCAPfh) and the learned ski
#: rental at both λ extremes.
LANES = {
    "Base": lambda: make_spec("Base", CONFIG),
    "Ideal": lambda: make_spec("Ideal", CONFIG),
    "TP": lambda: make_spec("TP", CONFIG),
    "TP-BE": lambda: make_spec("TP-BE", CONFIG),
    "PCAP": lambda: make_spec("PCAP", CONFIG),
    "PCAPfh": lambda: make_spec("PCAPfh", CONFIG),
    "SKI(λ=0)": lambda: ski_spec(CONFIG, lam=0.0),
    "SKI(λ=1)": lambda: ski_spec(CONFIG, lam=1.0),
}

#: Time between consecutive actions: equal timestamps, sub-EPS, inside
#: one service time (serialized behind the previous request), inside
#: the wait window, short, and long (past breakeven and the 30 s flush
#: interval).
DELTAS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e-9),
    st.floats(min_value=1e-4, max_value=0.01),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1.0, max_value=15.0),
    st.floats(min_value=15.0, max_value=90.0),
)

#: ``stray`` is an access by a pid the trace never introduced (its fork
#: went unobserved), which the engine registers on the spot.
ACTIONS = st.sampled_from(
    ("read", "read", "read", "reread", "write", "burst", "sync", "fork",
     "exit", "stray")
)

PCS = st.sampled_from((0x10, 0x20, 0x30, 0x40))


@st.composite
def executions(draw, index: int = 0) -> ExecutionTrace:
    """One execution built from a random action script.

    Every event comes from a live pid except ``stray`` accesses, so the
    trace is valid apart from those deliberate unknown pids.
    """
    roots = draw(st.sampled_from((0, 1, 1, 2)))
    alive = [100 + offset for offset in range(roots)]
    next_pid = 100 + roots
    next_block = 0
    read_blocks: list[int] = []
    events: list = []
    time = draw(st.floats(min_value=0.0, max_value=5.0))
    steps = draw(st.integers(min_value=0, max_value=30)) if alive else 0
    for _ in range(steps):
        time += draw(DELTAS)
        action = draw(ACTIONS)
        if not alive:
            break
        pid = draw(st.sampled_from(alive))
        pc = draw(PCS)
        if action == "fork":
            events.append(ForkEvent(time=time, pid=next_pid, parent_pid=pid))
            alive.append(next_pid)
            next_pid += 1
        elif action == "exit":
            events.append(ExitEvent(time=time, pid=pid))
            alive.remove(pid)
        elif action == "stray":
            events.append(IOEvent(time, 900 + next_pid, pc, 3,
                                  AccessType.READ, 7, next_block, 1))
            next_block += 4
        elif action == "reread" and read_blocks:
            block = draw(st.sampled_from(read_blocks))
            events.append(IOEvent(time, pid, pc, 3, AccessType.READ, 7,
                                  block, 1))
        else:
            kind = {
                "write": AccessType.WRITE,
                "burst": AccessType.WRITE,
                "sync": AccessType.SYNC_WRITE,
            }.get(action, AccessType.READ)
            count = draw(st.integers(2, 6)) if action == "burst" else 1
            for _ in range(count):
                events.append(IOEvent(time, pid, pc, 3, kind, 7,
                                      next_block, 1))
                if kind is AccessType.READ:
                    read_blocks.append(next_block)
                next_block += 4
    return ExecutionTrace(
        application="fuzz",
        execution_index=index,
        events=events,
        initial_pids=frozenset(range(100, 100 + roots)),
    ).sorted()


@st.composite
def histories(draw) -> list[ExecutionTrace]:
    count = draw(st.integers(min_value=1, max_value=3))
    return [draw(executions(index)) for index in range(count)]


def _replay_history(history, make, *, tape_path: bool):
    spec = make()
    results = []
    for execution in history:
        filtered = filter_execution(execution, CONFIG.cache)
        if tape_path:
            tape = build_replay_tape(execution, filtered, CONFIG)
            result = replay_execution(tape, spec, CONFIG)
        else:
            result = run_global_execution(execution, filtered, spec, CONFIG)
        results.append(result)
        spec.on_execution_end()
    return results


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(histories())
def test_tape_replay_is_bit_identical_to_classic(history):
    for name, make in LANES.items():
        classic = _replay_history(history, make, tape_path=False)
        replayed = _replay_history(history, make, tape_path=True)
        assert canonical(replayed) == canonical(classic), name


@FUZZ
@given(histories())
def test_replay_meets_metamorphic_invariants(history):
    cycle = CONFIG.disk.cycle_energy
    per_lane = {
        name: _replay_history(history, make, tape_path=True)
        for name, make in LANES.items()
    }
    for position, execution in enumerate(history):
        duration = execution.end_time - execution.start_time
        floor = CONFIG.disk.standby_power * duration
        oracle = per_lane["Ideal"][position].ledger.total
        busy = per_lane["Base"][position].ledger.busy
        assert per_lane["Base"][position].shutdowns == 0
        for name, results in per_lane.items():
            result = results[position]
            ledger = result.ledger
            total = ledger.total
            tolerance = 1e-9 * max(1.0, abs(total))
            assert total >= floor - tolerance, name
            assert oracle <= total + tolerance, name
            assert ledger.busy == busy, name
            assert min(ledger.busy, ledger.idle_short, ledger.idle_long,
                       ledger.power_cycle, ledger.standby) >= 0.0, name
            assert total == (ledger.busy + ledger.idle_short
                             + ledger.idle_long + ledger.power_cycle), name
            assert ledger.standby <= (
                ledger.idle_short + ledger.idle_long + tolerance
            ), name
            assert abs(ledger.power_cycle - cycle * result.shutdowns) <= (
                1e-9 * max(1.0, ledger.power_cycle)
            ), name
