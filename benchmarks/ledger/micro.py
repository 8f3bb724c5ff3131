"""Per-layer microbenchmarks: one public call path of one layer each.

Each function times a loop over public calls of a single module and
returns ``{metric name: (value, unit)}``.  They fold in (and supersede)
``bench_protocol_micro``, ``bench_sim_engine`` and ``bench_runtime``.
Every timing is the fastest of a few short repeats: these are
microsecond operations, where interference only ever adds time.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.core.automaton import HierarchicalLockAutomaton
from repro.core.clock import LamportClock
from repro.core.lockspace import LockSpace
from repro.core.messages import (
    Envelope,
    GrantMessage,
    ReleaseMessage,
    RequestMessage,
    TokenMessage,
    fresh_request_id,
)
from repro.core.modes import (
    REAL_MODES,
    LockMode,
    child_can_grant,
    compatible,
    freeze_set,
    should_queue,
)
from repro.faults.channel import ReliableChannel
from repro.faults.detector import HeartbeatDetector
from repro.faults.messages import HeartbeatMessage
from repro.leases import LeaseTable
from repro.naimi.automaton import NaimiAutomaton
from repro.obs.sink import ObsSink
from repro.persist import (
    FSYNC_BATCH,
    FileNodeStore,
    MemoryNodeStore,
    NodeJournal,
    recover_node_state,
)
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import ThreadedTransport
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import Exponential

Metrics = Dict[str, Tuple[float, str]]

#: Seconds a ping-pong may take before it counts as failed.
PINGPONG_TIMEOUT_S = 20.0


def best_of(fn: Callable[[], object], repeat: int = 5) -> float:
    """Fastest wall time of *repeat* calls of *fn*, in seconds."""

    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _token_node() -> HierarchicalLockAutomaton:
    return HierarchicalLockAutomaton(
        node_id=0, lock_id="L", clock=LamportClock(), parent=None, has_token=True
    )


def core_modes() -> Metrics:
    pairs = [(a, b) for a in REAL_MODES for b in REAL_MODES]
    rounds = 200

    def lookups() -> None:
        for _ in range(rounds):
            for left, right in pairs:
                compatible(left, right)
                child_can_grant(left, right)
                should_queue(left, right)

    def freezes() -> None:
        for _ in range(rounds):
            for left, right in pairs:
                freeze_set(left, right)

    return {
        "core.modes.lookup_ns": (
            1e9 * best_of(lookups) / (rounds * len(pairs) * 3), "ns"),
        "core.modes.freeze_set_ns": (
            1e9 * best_of(freezes) / (rounds * len(pairs)), "ns"),
    }


def core_automaton() -> Metrics:
    rounds = 2000
    local = _token_node()

    def reacquire() -> None:
        for _ in range(rounds):
            local.request(LockMode.IR)
            local.release(LockMode.IR)

    token = _token_node()
    token.request(LockMode.R)  # anchor: R copy grants stay at the token
    child_clock = LamportClock()

    def roundtrips() -> None:
        for _ in range(rounds // 4):
            child = HierarchicalLockAutomaton(
                node_id=1, lock_id="L", clock=child_clock,
                parent=0, has_token=False,
            )
            out = child.request(LockMode.R)
            grant = token.handle(out[0].message)
            child.handle(grant[0].message)
            release = child.release(LockMode.R)
            token.handle(release[0].message)

    def churn() -> None:
        for _ in range(20):
            node = _token_node()
            node.request(LockMode.W)
            for index in range(50):
                node.handle(RequestMessage(
                    lock_id="L", sender=index + 1, origin=index + 1,
                    mode=LockMode.IR,
                    request_id=fresh_request_id(index + 1, index + 1),
                ))
            if node.queue_length != 50:
                raise AssertionError("queue churn did not queue 50 requests")
            node.release(LockMode.W)
            if node.queue_length or node.has_token:
                raise AssertionError("queue churn did not drain with the token")

    return {
        "core.automaton.local_reacquire_us": (
            1e6 * best_of(reacquire) / rounds, "us"),
        "core.automaton.copy_grant_roundtrip_us": (
            1e6 * best_of(roundtrips) / (rounds // 4), "us"),
        "core.automaton.queue_churn_us": (1e6 * best_of(churn) / 20, "us"),
    }


def core_lockspace() -> Metrics:
    rounds = 1000

    def first_touch() -> None:
        space = LockSpace(node_id=0)
        for index in range(rounds):
            space.automaton(f"db/tickets/{index}")

    return {
        "core.lockspace.first_touch_us": (
            1e6 * best_of(first_touch) / rounds, "us"),
    }


def naimi() -> Metrics:
    rounds = 1000

    def roundtrips() -> None:
        for _ in range(rounds):
            root = NaimiAutomaton(node_id=0, lock_id="L", last=None)
            peer = NaimiAutomaton(node_id=1, lock_id="L", last=0)
            out = peer.request()
            token_out = root.handle(out[0].message)
            peer.handle(token_out[0].message)
            peer.release()

    return {
        "naimi.automaton.roundtrip_us": (
            1e6 * best_of(roundtrips) / rounds, "us"),
    }


def sim() -> Metrics:
    events = 10_000
    sends = 5_000

    def drain() -> None:
        simulator = Simulator()
        for index in range(events):
            simulator.schedule(index * 1e-4, lambda: None)
        simulator.run()

    message = ReleaseMessage(lock_id="L", sender=0, new_mode=LockMode.NONE)

    def network() -> None:
        simulator = Simulator()
        fabric = Network(
            simulator, latency=Exponential(0.150), rng=random.Random(1)
        )
        fabric.register(0, lambda msg: [])
        fabric.register(1, lambda msg: [])
        for _ in range(sends):
            fabric.send(0, [Envelope(1, message)])
        simulator.run()

    return {
        "sim.engine.events_per_s": (events / best_of(drain), "1/s"),
        "sim.network.send_us": (1e6 * best_of(network) / sends, "us"),
    }


def _pingpong(transport, rounds: int) -> float:
    """Seconds per round trip between nodes 0 and 1 of *transport*."""

    done = threading.Event()
    remaining = [rounds]
    ball = ReleaseMessage(lock_id="L", sender=0, new_mode=LockMode.NONE)

    def at_zero(_message):
        remaining[0] -= 1
        if remaining[0] <= 0:
            done.set()
            return []
        return [Envelope(1, ball)]

    transport.register(0, at_zero)
    transport.register(1, lambda _message: [Envelope(0, ball)])
    transport.start()
    try:
        started = time.perf_counter()
        transport.send(0, [Envelope(1, ball)])
        if not done.wait(PINGPONG_TIMEOUT_S):
            raise TimeoutError("ping-pong did not finish")
        return (time.perf_counter() - started) / rounds
    finally:
        transport.stop()


class _WireSizes(ObsSink):
    """Collects the frame sizes a transport reports."""

    __slots__ = ("sizes",)

    def __init__(self) -> None:
        self.sizes: List[int] = []

    def wire_sent(self, sender, dest, nbytes, seconds) -> None:
        self.sizes.append(nbytes)


def _sample_messages() -> List[object]:
    def request(origin: int) -> RequestMessage:
        return RequestMessage(
            lock_id="db/tickets", sender=origin, origin=origin,
            mode=LockMode.IR, request_id=fresh_request_id(origin, origin),
        )

    lease_rows = tuple(
        (f"db/tickets/{i}", "R", 0, (1 << 32) | (i + 1)) for i in range(16)
    )
    return [
        request(0),
        GrantMessage(
            lock_id="db/tickets", sender=0, mode=LockMode.IR,
            request_id=fresh_request_id(1, 1), attachment_seq=7,
        ),
        TokenMessage(
            lock_id="db/tickets", sender=0, granted_mode=LockMode.W,
            request_id=fresh_request_id(2, 1), prev_owner_mode=LockMode.NONE,
            queue=tuple(request(i + 2) for i in range(8)),
        ),
        ReleaseMessage(lock_id="db/tickets", sender=0, new_mode=LockMode.NONE),
        HeartbeatMessage(lock_id="", sender=0, leases=lease_rows),
    ]


def runtime() -> Metrics:
    metrics: Metrics = {
        "runtime.transport.pingpong_us": (
            1e6 * min(_pingpong(ThreadedTransport(), 2000) for _ in range(3)),
            "us",
        ),
    }
    failed = 0
    try:
        tcp_us = 1e6 * min(_pingpong(TcpTransport(), 500) for _ in range(3))
    except (TimeoutError, OSError):
        failed += 1
        tcp_us = 1e6 * PINGPONG_TIMEOUT_S
    sizes = _WireSizes()
    transport = TcpTransport(obs=sizes)
    received = threading.Semaphore(0)
    transport.register(0, lambda _message: [])
    transport.register(1, lambda _message: received.release() or [])
    transport.start()
    try:
        samples = _sample_messages()
        for message in samples:
            transport.send(0, [Envelope(1, message)])
        for _ in samples:
            if not received.acquire(timeout=PINGPONG_TIMEOUT_S):
                failed += 1
    finally:
        transport.stop()
    metrics["runtime.tcp.pingpong_us"] = (tcp_us, "us")
    metrics["runtime.tcp.frame_bytes"] = (
        sum(sizes.sizes) / max(1, len(sizes.sizes)), "bytes")
    metrics["runtime.tcp.failed"] = (failed, "count")
    return metrics


class _ManualScheduler:
    """``now``/``call_later`` that never fires (timers are not timed)."""

    def now(self) -> float:
        return 0.0

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        pass


def faults() -> Metrics:
    rounds = 1000
    scheduler = _ManualScheduler()
    channels: Dict[int, ReliableChannel] = {}

    def make(node: int, peer: int) -> ReliableChannel:
        return ReliableChannel(
            node, scheduler,
            send=lambda dest, message: channels[dest].handle(message),
            deliver=lambda _peer, _payload: None,
        )

    channels[0], channels[1] = make(0, 1), make(1, 0)
    payload = ReleaseMessage(lock_id="L", sender=0, new_mode=LockMode.NONE)

    def frames() -> None:
        for _ in range(rounds):
            channels[0].send(1, payload)  # frame out, delivered, acked back

    peers = list(range(1, 41))

    def sweeps() -> None:
        detector = HeartbeatDetector(peers, timeout=2.5)
        for tick in range(100):
            now = 0.5 * tick
            for peer in peers:
                detector.beat(peer, now)
            detector.check(now)

    return {
        "faults.channel.frame_us": (1e6 * best_of(frames) / rounds, "us"),
        "faults.detector.sweep_us": (1e6 * best_of(sweeps) / 100, "us"),
    }


def leases() -> Metrics:
    rounds = 500
    rows = [(f"db/tickets/{i}", "R", 1, (1 << 32) | (i + 1)) for i in range(4)]

    def cycles() -> None:
        own = LeaseTable()
        remote = LeaseTable()
        for tick in range(rounds):
            now = 0.5 * tick
            own.grant("db/tickets", "IR", 0, (1 << 32) | tick, now)
            own.renew("db/tickets", 0, now)
            remote.observe(1, rows, now)
            remote.expired(now)
            own.drop("db/tickets", 0)

    return {"leases.table_cycle_us": (1e6 * best_of(cycles) / rounds, "us")}


def persist(scratch_root: str) -> Metrics:
    rounds = 500
    automaton = _token_node()
    automaton.request(LockMode.IR)

    def records() -> None:
        journal = NodeJournal(MemoryNodeStore(), 0, compact_every=1 << 30)
        for _ in range(rounds):
            journal.record(automaton, "grant")

    record = {
        "v": 1, "lock": "L", "kind": "grant",
        "state": automaton.persisted_state(),
    }
    os.makedirs(scratch_root, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="wal-", dir=scratch_root)
    try:
        def appends() -> None:
            store = FileNodeStore(directory, fsync=FSYNC_BATCH)
            try:
                for _ in range(rounds):
                    store.append(record)
                store.sync()
            finally:
                store.close()

        file_append_s = best_of(appends, repeat=3) / rounds
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # other runs still use it

    store = MemoryNodeStore()
    for index in range(1000):
        store.append(dict(record, lock=f"L{index % 50}"))

    def recover() -> None:
        state, report = recover_node_state(store)
        if report["records_replayed"] != 1000 or len(state) != 50:
            raise AssertionError(f"unexpected recovery report {report}")

    return {
        "persist.journal.record_us": (1e6 * best_of(records) / rounds, "us"),
        "persist.store.file_append_us": (1e6 * file_append_s, "us"),
        "persist.recover_ms": (1e3 * best_of(recover), "ms"),
    }


def run_all(scratch_root: str) -> Metrics:
    """Every microbenchmark, keyed by metric name."""

    metrics: Metrics = {}
    for part in (
        core_modes, core_automaton, core_lockspace, naimi, sim, runtime,
        faults, leases,
    ):
        metrics.update(part())
    metrics.update(persist(scratch_root))
    return metrics
