"""The five workloads: build a cluster, drive a script, check, collect.

Every workload is a closed loop (a client issues its next lock request
only after the previous one was granted) driven through the clusters'
public client calls.  One *unit* is one run of a workload on one script;
the runner in :mod:`benchmarks.ledger.cli` repeats units for the
measuring time and pools them.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.lockspace import hashed_token_home
from repro.core.modes import LockMode
from repro.errors import InvariantViolation, SimulationError
from repro.faults.plan import DROP, FaultPlan, FaultRule
from repro.faults.recovery import RecoveryConfig
from repro.faults.runtime import ResilientThreadedCluster
from repro.faults.simcluster import ResilientSimCluster
from repro.obs.collect import RunObserver
from repro.obs.live import audit_view, classify_crash_findings
from repro.persist import MemoryPersistence
from repro.sim.cluster import SimHierarchicalCluster, SimNaimiCluster
from repro.sim.engine import Process, Simulator, Timeout
from repro.sim.rng import Exponential
from repro.verification.invariants import (
    CompatibilityMonitor,
    Monitor,
    MonitorSet,
)

from .calibrate import SLICE_WALL_S, speed_factor, spin
from .scripts import (
    LINK_CAP_S,
    LINK_MEAN_S,
    PAPER_MIX,
    TABLE,
    WRITE_MIX,
    Op,
    Script,
    flat_step,
    make_script,
    nested_steps,
    script_digest,
)

#: Simulator callbacks a single unit may use; more means livelock.
EVENT_BUDGET = 30_000_000

#: Wall seconds a threaded client waits for one grant before failing.
ACQUIRE_TIMEOUT_S = 20.0

#: Rungs of the layer ladder, each adding one layer to the one before.
RUNGS = ("bare", "recovery", "wal", "flight", "observer")


@dataclasses.dataclass(frozen=True)
class Workload:
    """Parameters of one named workload."""

    name: str
    kind: str             # "bare", "stack" or "threaded"
    nodes: int
    mix: Tuple[Tuple[str, float], ...]
    ops_per_node: int     # bare: to completion; stack: script length;
                          # threaded: per node and unit
    pool: int             # scripts pooled under one --seed
    entries: int
    window_s: float = 0.0   # stack: clients issue for this long
    drain_s: float = 0.0    # stack: then the run drains this long
    drop: float = 0.0       # stack: share of messages dropped
    crash_at: float = 0.0   # stack: crash the table token holder then
    restart_at: float = 0.0
    retry_base_s: float = 0.0  # stack: first request retransmit (0 = default)
    warmup_ops: int = 0     # threaded: per node, before measuring


#: Why each is here is recorded in BENCHMARK.json and the README.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper120", "bare", 120, PAPER_MIX, 60, pool=8, entries=120),
        Workload("writes120", "bare", 120, WRITE_MIX, 40, pool=6, entries=120),
        # retry_base_s: a retransmitted request that was only queued can
        # wedge its lock (README, known defects), so the fault-free stack
        # never retransmits and the crashing one only what waited 5 s.
        Workload(
            "stack40", "stack", 40, PAPER_MIX, 400, pool=8, entries=40,
            window_s=40.0, drain_s=15.0, retry_base_s=20.0,
        ),
        Workload(
            "crash16", "stack", 16, PAPER_MIX, 400, pool=12, entries=16,
            window_s=40.0, drain_s=40.0, drop=0.01,
            crash_at=10.0, restart_at=20.0, retry_base_s=5.0,
        ),
        Workload(
            "service4", "threaded", 4, PAPER_MIX, 200, pool=1, entries=8,
            warmup_ops=50,
        ),
    )
}


def quick(workload: Workload) -> Workload:
    """CI-sized variant: 8 nodes (4 threaded), 5 operations, short window.

    The crash still outlasts the detector's 2.5 s suspect timeout: a node
    that is back before anyone suspected it loses tokens today (13 of 40
    seeds with a one-second crash), which is not what this smoke run is for.
    """

    return dataclasses.replace(
        workload,
        nodes=min(workload.nodes, 8),
        entries=min(workload.entries, 8),
        ops_per_node=5 if workload.kind != "stack" else 80,
        pool=1,
        window_s=min(workload.window_s, 8.0),
        crash_at=min(workload.crash_at, 2.0),
        restart_at=min(workload.restart_at, 7.0),
        warmup_ops=min(workload.warmup_ops, 2),
    )


@dataclasses.dataclass
class UnitResult:
    """What one unit measured."""

    digest: str
    issued: int = 0
    granted: int = 0
    failed: int = 0            # ungranted at the end, by surviving nodes
    window_granted: int = 0    # granted inside the measured window
    messages: int = 0          # fabric messages inside the measured window
    wall_s: float = 0.0        # wall time of the measured window
    speed: float = 1.0         # calibration factor: wall_s * speed = reference s
    latencies_s: List[float] = dataclasses.field(default_factory=list)
    #: The subset that needed the fabric (not granted locally).
    remote_latencies_s: List[float] = dataclasses.field(default_factory=list)
    table_grants: List[float] = dataclasses.field(default_factory=list)
    crashed_at: Optional[float] = None
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)


class CappedExponential(Exponential):
    """The paper's exponential link latency, truncated at LINK_CAP_S.

    The cap (ten times the mean) touches one message in 22 000 and moves
    the mean by 0.005 %, but it bounds the silence a live peer can show to
    heartbeat interval + cap = 2.0 s, below the detector's 2.5 s suspect
    timeout.  Without it about 0.7 % of fault-free 40-node runs see a
    false suspicion, which the stack does not survive (README, defects).
    """

    def sample(self, rng) -> float:
        return min(super().sample(rng), LINK_CAP_S)


def timed_run(
    sim: Simulator, until: Optional[float], calibrate: bool
) -> Tuple[float, float]:
    """Run *sim* to *until* (``None``: until nothing is scheduled).

    Returns the wall seconds spent in the engine and the calibration
    factor of that time.  With *calibrate* the run is cut into slices of
    about ``SLICE_WALL_S`` wall seconds with one calibration spin between
    slices; where the cuts fall does not change what the simulation does.
    """

    if not calibrate:
        started = time.perf_counter()
        sim.run(until=until, max_events=EVENT_BUDGET)
        return time.perf_counter() - started, 1.0
    wall = 0.0
    spins = [spin()]
    step = 0.05  # virtual seconds; adapted to the slice's wall time
    while sim.pending_events and (until is None or sim.now < until):
        target = sim.now + step
        if until is not None:
            target = min(target, until)
        started = time.perf_counter()
        sim.run(until=target, max_events=EVENT_BUDGET)
        took = time.perf_counter() - started
        wall += took
        spins.append(spin())
        step *= min(2.0, max(0.5, SLICE_WALL_S / max(took, 1e-6)))
    return wall, speed_factor(spins)


def cluster_seed(seed: int, sub: int) -> int:
    """Integer seed of the cluster's own (latency, fault) streams."""

    return seed * 1009 + sub


# ---------------------------------------------------------------------------
# Simulated workloads.
# ---------------------------------------------------------------------------


class _SimRun:
    """Book-keeping shared by the client processes of one simulated unit."""

    def __init__(self, sim: Simulator, cluster, window: Optional[float]) -> None:
        self.sim = sim
        self.cluster = cluster
        self.window = window
        #: [node, issued_at, granted_at or None, lock] per request.
        self.records: List[list] = []
        self.is_crashed: Callable[[int], bool] = getattr(
            cluster, "is_crashed", lambda node: False
        )

    def client(self, node: int, ops: Sequence[Op], nested: bool, upgrade: bool):
        """Process body of *node*: think, lock, hold, unlock, repeat."""

        sim, records, window = self.sim, self.records, self.window
        client = self.cluster.client(node)
        for op in ops:
            yield Timeout(sim, op.think_s)
            if window is not None and sim.now >= window:
                return
            if self.is_crashed(node):
                return
            if not upgrade and op.draw == "U":
                op = op._replace(draw="R")
            steps = nested_steps(op) if nested else [flat_step(op)]
            for lock, mode in steps:
                record = [node, sim.now, None, lock]
                records.append(record)
                try:
                    event = client.acquire(lock, LockMode(mode))
                except SimulationError:
                    return  # the node crashed or was fenced under us
                yield event
                record[2] = sim.now
            yield Timeout(sim, op.hold_s)
            if op.draw == "U":
                record = [node, sim.now, None, TABLE]
                records.append(record)
                yield client.upgrade(TABLE)
                record[2] = sim.now
                yield Timeout(sim, op.hold2_s)
                client.release(TABLE, LockMode.W)
                continue
            if self.is_crashed(node):
                return
            for lock, mode in reversed(steps):
                client.release(lock, LockMode(mode))
        if window is not None:
            raise SimulationError(
                f"node {node} ran out of script before t={window}"
            )

    def spawn(self, script: Script, nested: bool, upgrade: bool) -> List[Process]:
        return [
            Process(self.sim, self.client(node, script[node], nested, upgrade))
            for node in sorted(script)
        ]

    def fill(self, result: UnitResult, processes: List[Process]) -> None:
        """Fold the request records and process states into *result*."""

        crashed = {
            int(entry["node"])
            for entry in getattr(self.cluster, "crash_log", ())
        }
        horizon = self.window if self.window is not None else float("inf")
        for node, issued_at, granted_at, lock in self.records:
            result.issued += 1
            if granted_at is None:
                if node not in crashed:
                    result.failed += 1
                continue
            result.granted += 1
            if granted_at <= horizon:
                result.window_granted += 1
            result.latencies_s.append(granted_at - issued_at)
            if granted_at > issued_at:  # a local grant takes no virtual time
                result.remote_latencies_s.append(granted_at - issued_at)
            if lock == TABLE and node not in crashed:
                result.table_grants.append(granted_at)
        for index, process in enumerate(processes):
            if process.error is not None:
                result.problems.append(
                    f"client {index} crashed: "
                    f"{type(process.error).__name__}: {process.error}"
                )
            elif not process.done.triggered and index not in crashed:
                result.problems.append(f"client {index} never finished")


def run_bare(
    workload: Workload,
    seed: int,
    sub: int,
    monitor: bool = False,
    observe: bool = False,
    calibrate: bool = False,
    on_ready: Optional[Callable[[], None]] = None,
    on_window: Optional[Callable[[], None]] = None,
) -> UnitResult:
    """One unit of a bare-protocol workload, run to completion.

    *on_ready* runs once everything is built, just before the measured
    window; *on_window* right after it.
    """

    script = make_script(
        workload.name, seed, sub, range(workload.nodes),
        workload.ops_per_node, workload.mix, workload.entries,
    )
    compat = CompatibilityMonitor() if monitor else None
    sim = Simulator()
    cluster = SimHierarchicalCluster(
        workload.nodes,
        sim=sim,
        latency=CappedExponential(LINK_MEAN_S),
        seed=cluster_seed(seed, sub),
        token_home=hashed_token_home(workload.nodes),
        monitor=compat,
        obs=RunObserver(clock=lambda: sim.now) if observe else None,
    )
    run = _SimRun(sim, cluster, window=None)
    processes = run.spawn(script, nested=True, upgrade=True)
    result = UnitResult(digest=script_digest(script))
    if on_ready is not None:
        on_ready()
    gc.collect()
    try:
        result.wall_s, result.speed = timed_run(sim, None, calibrate)
    except (InvariantViolation, SimulationError) as exc:
        result.problems.append(f"{type(exc).__name__}: {exc}")
    if on_window is not None:
        on_window()
    run.fill(result, processes)
    result.messages = cluster.network.messages_sent
    result.counters["events"] = sim.events_processed
    if not result.problems:
        try:
            if compat is not None:
                compat.assert_all_released()
            cluster.assert_quiescent_invariants()
        except InvariantViolation as exc:
            result.problems.append(f"InvariantViolation: {exc}")
    return result


def run_naimi_pure(workload: Workload, seed: int, sub: int) -> UnitResult:
    """The paper's reference curve: one global Naimi token, same script."""

    script = make_script(
        workload.name, seed, sub, range(workload.nodes),
        workload.ops_per_node, workload.mix, workload.entries,
    )
    sim = Simulator()
    cluster = SimNaimiCluster(
        workload.nodes,
        sim=sim,
        latency=CappedExponential(LINK_MEAN_S),
        seed=cluster_seed(seed, sub),
        token_home=hashed_token_home(workload.nodes),
    )
    result = UnitResult(digest=script_digest(script))

    def body(node: int, ops: Sequence[Op]):
        client = cluster.client(node)
        for op in ops:
            yield Timeout(sim, op.think_s)
            result.issued += 1
            yield client.acquire("global")
            result.granted += 1
            yield Timeout(sim, op.hold_s)
            client.release("global")

    processes = [Process(sim, body(n, script[n])) for n in sorted(script)]
    sim.run(max_events=EVENT_BUDGET)
    result.failed = result.issued - result.granted
    result.window_granted = result.granted
    result.messages = cluster.network.messages_sent
    result.problems.extend(
        f"client {i} crashed: {p.error}"
        for i, p in enumerate(processes) if p.error is not None
    )
    return result


def run_stack(
    workload: Workload,
    seed: int,
    sub: int,
    monitor: bool = False,
    rung: str = "flight",
    nested: bool = False,
    calibrate: bool = False,
    on_ready: Optional[Callable[[], None]] = None,
    on_window: Optional[Callable[[], None]] = None,
) -> UnitResult:
    """One unit of a windowed workload on the ladder rung *rung*.

    Clients issue for ``window_s`` virtual seconds; every counter is read
    at the end of the window; the run then drains for ``drain_s`` more so
    that every request in flight can still be granted.
    """

    script = make_script(
        workload.name, seed, sub, range(workload.nodes),
        workload.ops_per_node, workload.mix, workload.entries,
    )
    compat = CompatibilityMonitor() if monitor else None
    sim = Simulator()
    common = dict(
        sim=sim,
        latency=CappedExponential(LINK_MEAN_S),
        seed=cluster_seed(seed, sub),
        token_home=hashed_token_home(workload.nodes),
        monitor=compat,
    )
    persistence = None
    if rung == "bare":
        cluster = SimHierarchicalCluster(workload.nodes, **common)
    else:
        plan = None
        if workload.drop:
            plan = FaultPlan(
                rules=(FaultRule(action=DROP, probability=workload.drop),),
                seed=cluster_seed(seed, sub),
                name=workload.name,
            )
        level = RUNGS.index(rung)
        if level >= RUNGS.index("wal"):
            persistence = MemoryPersistence()
        config = RecoveryConfig()
        if workload.retry_base_s:
            config = dataclasses.replace(
                config,
                retry_base=workload.retry_base_s,
                retry_cap=max(workload.retry_base_s, config.retry_cap),
            )
        cluster = ResilientSimCluster(
            workload.nodes,
            plan=plan,
            config=config,
            persistence=persistence,
            reclaim=persistence is not None,
            flight={} if level >= RUNGS.index("flight") else None,
            obs=(
                RunObserver(clock=lambda: sim.now)
                if level >= RUNGS.index("observer") else None
            ),
            **common,
        )
    run = _SimRun(sim, cluster, window=workload.window_s)
    processes = run.spawn(script, nested=nested, upgrade=False)
    result = UnitResult(digest=script_digest(script))

    def crash_token_holder() -> None:
        holders = cluster.cluster_view().token_believers(TABLE)
        if not holders:
            sim.schedule(0.05, crash_token_holder)  # token in flight
            return
        victim = holders[0]
        result.crashed_at = sim.now
        cluster.crash(victim)
        sim.schedule(
            workload.restart_at - workload.crash_at,
            lambda: cluster.restart(victim),
        )

    if workload.crash_at:
        sim.schedule(workload.crash_at, crash_token_holder)
    if on_ready is not None:
        on_ready()
    gc.collect()
    try:
        result.wall_s, result.speed = timed_run(
            sim, workload.window_s, calibrate
        )
        if on_window is not None:
            on_window()
        result.messages = cluster.network.messages_sent
        result.counters = stack_counters(cluster, persistence)
        result.counters["events"] = sim.events_processed
        sim.run(
            until=workload.window_s + workload.drain_s,
            max_events=EVENT_BUDGET,
        )
    except (InvariantViolation, SimulationError) as exc:
        result.problems.append(f"{type(exc).__name__}: {exc}")
    run.fill(result, processes)
    result.problems.extend(_audit(cluster, bool(workload.crash_at)))
    return result


def stack_counters(cluster, persistence) -> Dict[str, float]:
    """Exact counters of a cluster so far, from public attributes only."""

    managers = list(getattr(cluster, "managers", {}).values())
    counters: Dict[str, float] = {
        "channel_retransmits": sum(m.channel.retransmits for m in managers),
        "app_retransmits": sum(m.app_retransmits for m in managers),
        "lease_renewals": sum(m.lease_renewals_sent for m in managers),
    }
    if persistence is not None:
        stats = persistence.stats()
        counters["wal_appends"] = stats["appends"]
        counters["wal_bytes"] = stats["bytes_written"]
    return counters


def _audit(cluster, crashed_any: bool) -> List[str]:
    """Post-drain audit; every violation is a problem (durable runs)."""

    report = audit_view(cluster.cluster_view(), quiescent=True)
    regressions, _expected = classify_crash_findings(
        report.findings, crashed_any, durable=True
    )
    return [
        f"audit {f['rule']} on {f.get('lock')}: {f.get('detail')}"
        for f in regressions
        if f["severity"] == "violation"
    ]


# ---------------------------------------------------------------------------
# The threaded workload.
# ---------------------------------------------------------------------------


class _GrantThreads(Monitor):
    """Remembers which thread delivered the last grant per (node, lock).

    A grant the automaton can give locally is delivered inside the
    client's own ``acquire`` call; one that needed the fabric arrives on a
    transport thread.  That is the only way to tell the two apart through
    the public surface, and the latency percentiles need it (see README).
    """

    def __init__(self) -> None:
        self.last: Dict[Tuple[int, str], int] = {}

    def on_grant(self, time, node, lock_id, mode) -> None:
        self.last[(node, lock_id)] = threading.get_ident()


class ServiceSession:
    """``service4``: one fresh threaded cluster, warmed up, measured once.

    Two client threads (one per core of the sizing machine), each owning
    two nodes and alternating between them; no think or hold time, so the
    loop is bound by the lock service alone.  A run pools many sessions:
    where the tokens and copyset trees settle during warm-up decides a
    session's speed for its whole life (throughput differs by a third
    between sessions), so one long session would measure one draw of that
    lottery.
    """

    THREADS = 2

    def __init__(
        self, workload: Workload, seed: int, sub: int, monitor: bool = False
    ) -> None:
        if workload.nodes != 2 * self.THREADS:
            raise ValueError("service workload needs two nodes per thread")
        self.workload = workload
        self.seed = seed
        self.sub = sub
        self.compat = CompatibilityMonitor() if monitor else None
        self.grant_threads = _GrantThreads()
        self.persistence = MemoryPersistence()
        self.cluster = ResilientThreadedCluster(
            workload.nodes,
            token_home=hashed_token_home(workload.nodes),
            monitor=(
                MonitorSet([self.compat, self.grant_threads])
                if monitor else self.grant_threads
            ),
            seed=cluster_seed(seed, sub),
            # The library's timers, not the test-speed FAST_RECOVERY the
            # class defaults to: its 80 ms request retransmit fires on any
            # hiccup and a retransmitted queued request can wedge the lock
            # (1 session in ~200 timed out; see README, known defects).
            config=RecoveryConfig(),
            persistence=self.persistence,
            flight={},
        )

    def warm_up(self) -> UnitResult:
        return self._drive("warm", self.workload.warmup_ops)

    def measure(self) -> UnitResult:
        return self._drive("run", self.workload.ops_per_node)

    def _drive(self, phase: str, ops_per_node: int) -> UnitResult:
        """Run one script; returns when both client threads finished."""

        w = self.workload
        script = make_script(
            f"{w.name}/{phase}", self.seed, self.sub, range(w.nodes),
            ops_per_node, w.mix, w.entries, timed=False,
        )
        result = UnitResult(digest=script_digest(script))
        outcomes: List[Optional[UnitResult]] = [None] * self.THREADS
        cluster = self.cluster
        granted_by = self.grant_threads.last

        def worker(index: int) -> None:
            mine = UnitResult(digest="")
            me = threading.get_ident()
            scripts = (script[2 * index], script[2 * index + 1])
            try:
                for step in range(2 * len(scripts[0])):
                    node = 2 * index + (step & 1)
                    op = scripts[step & 1][step >> 1]
                    if op.draw == "U":
                        op = op._replace(draw="R")
                    client = cluster.client(node)
                    steps = nested_steps(op)
                    for lock, mode in steps:
                        mine.issued += 1
                        before = time.perf_counter()
                        client.acquire(
                            lock, LockMode(mode), timeout=ACQUIRE_TIMEOUT_S
                        )
                        after = time.perf_counter()
                        mine.granted += 1
                        mine.latencies_s.append(after - before)
                        if granted_by[(node, lock)] != me:
                            mine.remote_latencies_s.append(after - before)
                        if lock == TABLE:
                            mine.table_grants.append(after)
                    for lock, mode in reversed(steps):
                        client.release(lock, LockMode(mode))
            except (TimeoutError, SimulationError, InvariantViolation) as exc:
                mine.problems.append(
                    f"thread {index}: {type(exc).__name__}: {exc}"
                )
            outcomes[index] = mine

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"ledger-client-{i}")
            for i in range(self.THREADS)
        ]
        gc.collect()
        sent_before = cluster.transport.messages_sent
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - started
        result.messages = cluster.transport.messages_sent - sent_before
        for mine in outcomes:
            result.issued += mine.issued
            result.granted += mine.granted
            result.latencies_s.extend(mine.latencies_s)
            result.remote_latencies_s.extend(mine.remote_latencies_s)
            result.table_grants.extend(mine.table_grants)
            result.problems.extend(mine.problems)
        result.failed = result.issued - result.granted
        result.window_granted = result.granted
        return result

    def counters(self) -> Dict[str, float]:
        """Exact counters of the session so far."""

        return stack_counters(self.cluster, self.persistence)

    def finish(self) -> List[str]:
        """Drain, audit, shut down; returns the problems found."""

        problems: List[str] = []
        try:
            self.cluster.transport.drain()
            problems.extend(_audit(self.cluster, crashed_any=False))
            if self.compat is not None:
                self.compat.assert_all_released()
        except InvariantViolation as exc:
            problems.append(f"InvariantViolation: {exc}")
        finally:
            self.cluster.shutdown()
        return problems
