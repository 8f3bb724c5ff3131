"""The chaos harness behind ``python -m repro chaos``.

:func:`run_chaos` runs a scripted multi-lock workload on a
:class:`~repro.faults.simcluster.ResilientSimCluster` under a
:class:`~repro.faults.plan.FaultPlan`, with the
:class:`~repro.verification.invariants.CompatibilityMonitor` attached
throughout, and distils the outcome into a JSON-friendly verdict:

* **Rule-1 safety** — no two incompatible modes were ever held
  concurrently, faults or not (the monitor raises the instant this
  breaks; the verdict records it instead of crashing the harness).
* **Eventual grant** — every request issued by a node that survived the
  run was granted by the end of the drain window.  Requests issued by
  nodes the plan crashed are tallied separately (``abandoned_by_crash``)
  — a dead requester has no liveness claim.  Likewise requests whose
  issuer left the cluster mid-run (``abandoned_by_departure``).
* **Membership convergence** — when the plan scripts churn (joins,
  drains, decommissions), all live members must agree on the view epoch
  and member list at the end of the drain window; the verdict's
  ``membership`` section carries the event log, join settle latencies
  and drain latencies.

Everything is seed-deterministic: the workload, the latency stream and
the fault stream each derive from the run seed, so a failing verdict is
replayable bit-for-bit with the same CLI arguments.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Union

from ..core.modes import LockMode
from ..errors import InvariantViolation, SimulationError
from ..obs.collect import RunObserver
from ..obs.live import audit_view, classify_crash_findings
from ..obs.sink import ObsSink
from ..sim.engine import Process, Timeout
from ..sim.rng import derive_rng
from ..verification.invariants import CompatibilityMonitor
from .plan import DRAIN, JOIN, FaultPlan, MembershipEvent, named_plan
from .recovery import RecoveryConfig
from .simcluster import ResilientSimCluster

#: Modes the scripted workload draws from (upgrade flows are exercised by
#: dedicated tests; the chaos workload sticks to plain acquires).
WORKLOAD_MODES = (LockMode.IR, LockMode.R, LockMode.IW, LockMode.W)

#: Extra simulated time after the issue window for recovery to converge
#: (covers suspect timeout + probe timeout + several retry backoffs).
DEFAULT_GRACE = 15.0

#: Ring-buffer caps applied to the chaos harness's observer so nightly
#: sweeps stay memory-bounded: retained series windows per metric and
#: retained request spans (run-level totals stay exact — see
#: :class:`repro.obs.series.WindowedCounter`).
CHAOS_OBS_MAX_BUCKETS = 4096
CHAOS_OBS_MAX_SPANS = 65536


@dataclasses.dataclass
class ChaosVerdict:
    """Outcome of one chaos run."""

    data: Dict[str, object]

    @property
    def ok(self) -> bool:
        """True iff safety held and liveness converged."""

        return bool(self.data.get("ok"))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the verdict for the CLI."""

        return json.dumps(self.data, indent=indent, sort_keys=True)


def run_chaos(
    plan: Union[str, FaultPlan] = "smoke",
    seed: int = 0,
    nodes: int = 5,
    duration: float = 30.0,
    locks: int = 3,
    grace: float = DEFAULT_GRACE,
    config: Optional[RecoveryConfig] = None,
    obs: Optional[ObsSink] = None,
    durable: bool = False,
    persistence=None,
    reclaim: bool = False,
    flight_dir: Optional[str] = None,
) -> ChaosVerdict:
    """Run one chaos scenario and return its verdict.

    *plan* is a :class:`FaultPlan` or the name of a canned one (seeded
    with *seed*).  *duration* bounds the issue window; the simulation
    then drains for *grace* more seconds so in-flight recovery finishes.

    With ``durable=True`` every node journals its protocol state through
    :mod:`repro.persist` (*persistence* supplies the backend; default an
    in-memory one) and restarted nodes replay snapshot + WAL instead of
    rejoining blank.  Durability removes the blank-rejoin excuse: crash
    findings that a volatile run classifies as the expected
    :data:`~repro.obs.live.BLANK_REJOIN_GAP` become hard failures.

    With ``reclaim=True`` (durable runs only) a restarted node's
    surviving application sessions re-assert their restored holds under
    fresh leases instead of disowning them — see
    :mod:`repro.services.sessions`.

    With *flight_dir* set, every node records its inputs into a
    :class:`~repro.obs.flightrec.FlightRecorder` ring buffer; if the
    verdict fails (``ok=false``) or the post-drain audit finds
    violations, all ring buffers are dumped into that directory for
    ``python -m repro replay`` (the verdict's ``"flight"`` section names
    the file).
    """

    if isinstance(plan, str):
        plan = named_plan(plan, seed)
    if persistence is not None:
        durable = True
    elif durable:
        from ..persist import MemoryPersistence

        persistence = MemoryPersistence()
    monitor = CompatibilityMonitor()
    if isinstance(obs, RunObserver):
        # Spans/series should be stamped in simulated time, not wall time.
        sim_clock_pending = obs
    else:
        sim_clock_pending = None
    cluster = ResilientSimCluster(
        num_nodes=nodes,
        plan=plan,
        seed=seed,
        monitor=monitor,
        config=config if config is not None else RecoveryConfig(),
        obs=obs,
        persistence=persistence,
        reclaim=reclaim,
        flight={} if flight_dir is not None else None,
    )
    sim = cluster.sim
    if sim_clock_pending is not None:
        sim_clock_pending.bind_clock(lambda: sim.now)
    #: One record per issued request; mutated by the workload bodies.
    records: List[Dict[str, object]] = []
    releases = [0]

    def workload(node: int):
        rng = derive_rng(seed, "chaos", node)
        client = cluster.client(node)
        while sim.now < duration:
            if cluster.is_crashed(node):
                return
            lock_id = f"lock-{rng.randrange(locks)}"
            mode = WORKLOAD_MODES[rng.randrange(len(WORKLOAD_MODES))]
            record = {"node": node, "lock": lock_id, "mode": str(mode),
                      "granted": False, "issued_at": round(sim.now, 6)}
            records.append(record)
            try:
                event = client.acquire(lock_id, mode)
            except SimulationError:
                return  # Crashed under our feet.
            yield event  # Never fires if the node crashes while waiting.
            record["granted"] = True
            record["granted_at"] = round(sim.now, 6)
            yield Timeout(sim, rng.uniform(0.05, 0.30))
            if cluster.is_crashed(node):
                return  # Crashed while holding; the monitor was told.
            client.release(lock_id, mode)
            releases[0] += 1
            yield Timeout(sim, rng.uniform(0.05, 0.25))

    processes = [Process(sim, workload(n)) for n in range(nodes)]

    # Scripted membership churn: joins boot a fresh node (and put it to
    # work), drains and decommissions remove one.  A churn step that is
    # impossible when its moment arrives (e.g. draining a node the fault
    # stream crashed first) is recorded, not fatal — the plan scripts
    # intent, the run decides feasibility.
    joined_nodes: List[int] = []
    churn_errors: List[str] = []

    def _apply_churn(event: MembershipEvent) -> None:
        try:
            if event.action == JOIN:
                node = cluster.join_node()
                joined_nodes.append(node)
                processes.append(Process(sim, workload(node)))
            elif event.action == DRAIN:
                cluster.drain_node(event.node, successor=event.successor)
            else:  # DECOMMISSION
                if not cluster.is_crashed(event.node):
                    cluster.crash(event.node)
                cluster.decommission_node(event.node)
        except SimulationError as exc:
            churn_errors.append(f"{event.action}@{event.at}: {exc}")

    for churn_event in plan.churn:
        sim.schedule(
            churn_event.at, lambda e=churn_event: _apply_churn(e)
        )

    violation: Optional[str] = None
    try:
        sim.run(until=duration + grace)
    except InvariantViolation as exc:
        violation = str(exc)
    process_errors = [
        f"{type(p.error).__name__}: {p.error}"
        for p in processes
        if p.error is not None
    ]

    issued = len(records)
    granted = sum(1 for r in records if r["granted"])
    latencies = sorted(
        float(r["granted_at"]) - float(r["issued_at"])  # type: ignore[arg-type]
        for r in records
        if r["granted"]
    )
    ungranted = [r for r in records if not r["granted"]]
    # A request is abandoned when its waiter died in a crash: the node is
    # still down, or it crashed at any point after the request was issued
    # (restarts don't resurrect the waiting process — with durability the
    # rejoin explicitly disowns the restored pending request, since its
    # application context died with the old incarnation).
    crash_times: Dict[int, List[float]] = {}
    for crash in cluster.crash_log:
        crash_times.setdefault(int(crash["node"]), []).append(
            float(crash["at"])
        )

    def _abandoned(record: Dict[str, object]) -> bool:
        node = int(record["node"])
        if cluster.is_crashed(node):
            return True
        issued_at = float(record["issued_at"])  # type: ignore[arg-type]
        return any(t >= issued_at for t in crash_times.get(node, ()))

    abandoned = [r for r in ungranted if _abandoned(r)]
    # A lease-fenced node (quorum-silent past the lease duration, e.g.
    # the minority side of an unhealed partition) abandons its pending
    # requests at the fence and rejects new acquires: those waiters have
    # no liveness claim either — the majority's progress does.
    fence_times = {
        n: m.leases.fenced_at
        for n, m in cluster.managers.items()
        if m.leases.fenced_at is not None
    }
    remaining = [r for r in ungranted if not _abandoned(r)]
    abandoned_by_expiry = [
        r for r in remaining if int(r["node"]) in fence_times
    ]
    remaining = [r for r in remaining if int(r["node"]) not in fence_times]
    # A node that left the cluster (drained or decommissioned) takes its
    # never-granted requests with it: the waiter process died with the
    # departure, so those carry no liveness claim either.
    departed_nodes = {
        int(e["node"])
        for e in cluster.membership_log
        if e["event"] in ("drained", "decommissioned")
    }
    departed_nodes.update(
        n
        for n, m in cluster.managers.items()
        if m.membership.departing
    )
    abandoned_by_departure = [
        r for r in remaining if int(r["node"]) in departed_nodes
    ]
    outstanding = [
        r for r in remaining if int(r["node"]) not in departed_nodes
    ]
    eventual_grant = violation is None and not outstanding

    # Post-drain cluster audit: the run is quiescent now (nothing more
    # will be injected), so every surviving disagreement is structural.
    view = cluster.cluster_view()
    audit = audit_view(
        view,
        quiescent=True,
        mean_grant_latency=(
            sum(latencies) / len(latencies) if latencies else None
        ),
    )
    crashed_any = bool(cluster.crash_log)
    audit_findings, expected_findings = classify_crash_findings(
        audit.findings, crashed_any, durable=durable
    )
    audit_healthy = not any(
        f["severity"] == "violation" for f in audit_findings
    )

    membership_info = _membership_stats(
        cluster, joined_nodes, churn_errors
    )
    membership_ok = True
    if plan.churn:
        membership_ok = (
            bool(membership_info["epoch_agreement"])
            and bool(membership_info["membership_agreement"])
            and not churn_errors
        )

    ok = (
        violation is None
        and eventual_grant
        and not process_errors
        and audit_healthy
        and membership_ok
    )

    flight_info: Optional[Dict[str, object]] = None
    if cluster.flight is not None:
        flight_info = {
            "recorded": True,
            "last_seq": {
                str(n): rec.last_seq
                for n, rec in sorted(cluster.flight.items())
            },
        }
        if not ok or audit_findings:
            import os

            from ..obs.flightrec import write_dump

            os.makedirs(flight_dir, exist_ok=True)
            dump_path = os.path.join(
                flight_dir, f"{plan.name}-seed{seed}.flight"
            )
            write_dump(
                dump_path,
                cluster.flight,
                meta={
                    "plan": plan.name,
                    "seed": seed,
                    "nodes": nodes,
                    "durable": durable,
                    "ok": ok,
                },
            )
            flight_info["dump"] = dump_path

    injector = cluster.network.injector
    faults: Dict[str, object] = (
        dict(injector.counters()) if injector is not None else {}
    )
    faults["crashes"] = list(cluster.crash_log)
    faults["messages_sent"] = cluster.network.messages_sent
    faults["messages_by_plane"] = cluster.network.messages_by_plane
    faults["messages_dropped"] = cluster.network.messages_dropped

    data: Dict[str, object] = {
        "plan": plan.name,
        "seed": seed,
        "nodes": nodes,
        "locks": locks,
        "duration": duration,
        "grace": grace,
        "sim_time": round(sim.now, 6),
        "durable": durable,
        "ok": ok,
        "requests": {
            "issued": issued,
            "granted": granted,
            "abandoned_by_crash": len(abandoned),
            "abandoned_by_expiry": len(abandoned_by_expiry),
            "abandoned_by_departure": len(abandoned_by_departure),
            "outstanding": len(outstanding),
        },
        "latency": {
            "mean": round(sum(latencies) / len(latencies), 6)
            if latencies else None,
            "p95": round(latencies[int(0.95 * (len(latencies) - 1))], 6)
            if latencies else None,
            "max": round(latencies[-1], 6) if latencies else None,
        },
        "releases": releases[0],
        "faults": faults,
        "recovery": cluster.recovery_stats(),
        "leases": _lease_stats(cluster, fence_times),
        "invariants": {
            "rule1_violations": 0 if violation is None else 1,
            "violation": violation,
            "eventual_grant": eventual_grant,
        },
        "cluster_audit": {
            "healthy": audit_healthy,
            "quiescent": True,
            "locks_checked": audit.locks_checked,
            "nodes_checked": audit.nodes_checked,
            "findings": audit_findings,
            "expected_findings": expected_findings,
            "known_gaps": sorted(
                {str(f["expected"]) for f in expected_findings}
            ),
        },
    }
    if plan.churn or cluster.membership_log:
        data["membership"] = membership_info
    if flight_info is not None:
        data["flight"] = flight_info
    if durable:
        data["durability"] = {
            "backend": persistence.backend,
            "reclaim": reclaim,
            "restarts": list(cluster.durability_log),
            "wal": persistence.stats(),
        }
    if process_errors:
        data["process_errors"] = process_errors
    if outstanding:
        data["outstanding_requests"] = outstanding[:10]
    return ChaosVerdict(data=data)


def _membership_stats(
    cluster: ResilientSimCluster,
    joined_nodes: List[int],
    churn_errors: List[str],
) -> Dict[str, object]:
    """Distil the membership layer's outcome for the verdict.

    Agreement is judged over the *live* members only: departed nodes are
    silenced and crashed-but-not-decommissioned nodes legitimately hold
    a stale view until they restart or are excised.
    """

    live = cluster.live_nodes()
    views = {n: cluster.managers[n].membership.view for n in live}
    join_settle: List[Dict[str, object]] = []
    drain_begin: Dict[int, float] = {}
    drain_latency: List[Dict[str, object]] = []
    for entry in cluster.membership_log:
        node = int(entry["node"])  # type: ignore[arg-type]
        at = float(entry["at"])  # type: ignore[arg-type]
        if entry["event"] == "join":
            # Settled when the joiner installs its first real view that
            # contains it (the bootstrap guess is epoch-less, so any
            # recorded install counts).
            latency: Optional[float] = None
            manager = cluster.managers.get(node)
            if manager is not None:
                for installed_at, install in manager.membership.installs:
                    if node in install.members:
                        latency = round(installed_at - at, 6)
                        break
            join_settle.append({"node": node, "settle_latency": latency})
        elif entry["event"] == "drain-begin":
            drain_begin[node] = at
        elif entry["event"] == "drained":
            started = drain_begin.get(node)
            drain_latency.append(
                {
                    "node": node,
                    "drain_latency": (
                        round(at - started, 6)
                        if started is not None
                        else None
                    ),
                }
            )
    managers = cluster.managers.values()
    info: Dict[str, object] = {
        "events": list(cluster.membership_log),
        "joined_nodes": list(joined_nodes),
        "view_epochs": {str(n): v.epoch for n, v in sorted(views.items())},
        "epoch_agreement": len({v.epoch for v in views.values()}) <= 1,
        "membership_agreement": len({v.members for v in views.values()}) <= 1,
        "join_settle": join_settle,
        "drain_latency": drain_latency,
        "views_proposed": sum(m.events["view-propose"] for m in managers),
        "handoffs_accepted": sum(m.events["handoff-accept"] for m in managers),
        "children_adopted": sum(
            m.membership.children_adopted for m in managers
        ),
    }
    if churn_errors:
        info["churn_errors"] = list(churn_errors)
    return info


def _lease_stats(
    cluster: ResilientSimCluster, fence_times: Dict[int, float]
) -> Dict[str, object]:
    """Aggregate the lease layer's counters for the verdict."""

    managers = cluster.managers.values()
    latencies = [
        lat for m in managers for lat in m.leases.revoke_latencies
    ]
    return {
        "renewals_sent": sum(m.leases.renewals_sent for m in managers),
        "renewals_received": sum(
            m.leases.renewals_received for m in managers
        ),
        "revoked": sum(m.events["lease-revoke"] for m in managers),
        "revoke_latency_mean": (
            round(sum(latencies) / len(latencies), 6) if latencies else None
        ),
        "fenced_nodes": sorted(fence_times),
        "fenced_at": {
            str(n): round(t, 6) for n, t in sorted(fence_times.items())
        },
        "holds_reclaimed": sum(
            m.custody.report.get("holds_reclaimed", 0) for m in managers
        ),
        "sessions_gced": sum(m.leases.sessions_gced for m in managers),
    }
