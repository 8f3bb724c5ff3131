"""Live cluster introspection: snapshots, aggregation, online audit.

The protocol distributes its state — token position, copyset grant
trees, local queues, frozen modes — across every node, which makes a
*running* cluster opaque: spans and traces explain a run after it ends,
but say nothing about the cluster's health right now.  This module adds
the online half of the observability stack:

* **Snapshots** — every protocol automaton (hierarchical, Naimi,
  Raymond) exposes a read-only ``snapshot()`` returning a
  :class:`LockSnapshot`; :func:`snapshot_node` folds one node's lock
  snapshots (plus optional :class:`RecoveryHealth` from the recovery
  manager) into a :class:`NodeSnapshot`, and a cluster of those is a
  :class:`ClusterView`.  Snapshots are pure reads: taking one never
  touches protocol state, RNG streams or message flow, so a monitored
  run stays bit-identical to an unmonitored one.
* **Audit** — :func:`audit_view` reconciles the per-node beliefs of one
  :class:`ClusterView` and reports :class:`AuditFinding` entries for
  every invariant that does not hold globally: exactly one token
  believer per lock, copyset edges acyclic and rooted at the token
  node, no references to dead peers, Rule-1 compatibility of
  concurrently believed holds, and a starvation watch over queue ages.
  Transient in-flight states (a token mid-transfer) are *warnings*;
  with ``quiescent=True`` — after a drain, when nothing can be in
  flight — they escalate to violations.
* **Polling** — :class:`LiveMonitor` wraps a view source (any cluster's
  ``cluster_view``) and tracks queue entries across polls, which is
  where entry *ages* come from: the automata never timestamp their
  queues (that would perturb state), the poller does.

The HTTP exposition and the ``python -m repro monitor`` CLI live in
:mod:`repro.obs.monitor`; docs/MONITORING.md walks the schema and every
audit rule.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.contract import (
    BOOL,
    FLOAT,
    INT,
    RAW,
    STR,
    Codec,
    field,
    listing,
    optional,
    record,
    tupled,
)
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode, compatible

#: Finding severities: a ``violation`` fails the audit, a ``warning``
#: records a state that is legal while messages are in flight.
VIOLATION = "violation"
WARNING = "warning"

#: Starvation threshold: flag queue entries older than this multiple of
#: the mean grant latency.
STARVATION_FACTOR = 10.0

#: Audit rules, in the order findings are reported.
AUDIT_RULES = (
    "token-split",
    "token-missing",
    "copyset-cycle",
    "copyset-unrooted",
    "dead-reference",
    "rule1",
    "expired-but-held",
    "double-active-lease",
    "stuck-request",
    "view-skew",
    "starvation",
    "deadlock",
)

def classify_crash_findings(
    findings: Sequence["AuditFinding"],
    crashed_any: bool,
    durable: bool = False,
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Every audit finding as a regression payload: ``(regressions, [])``.

    A restart excuses no finding, durable or not.  The benchmark ledger
    (``benchmarks/ledger/workloads.py``) is the only caller left.
    """

    return [finding.to_payload() for finding in findings], []


# ---------------------------------------------------------------------------
# Snapshot records.
# ---------------------------------------------------------------------------


@record(
    field("origin", RAW),
    field("mode", STR),
    field("key", STR),
    field("age", RAW, default=None),
)
@dataclasses.dataclass(frozen=True)
class QueueEntry:
    """One locally queued request, as seen by the queueing node."""

    #: The requesting node (for Raymond: the neighbour the edge request
    #: came from, or the queueing node itself for its own entry).
    origin: NodeId
    #: Requested mode (baselines always queue for exclusive ``W``).
    mode: str
    #: Canonical span key of the request — stable across polls, which is
    #: what lets :class:`LiveMonitor` age entries without the automata
    #: keeping timestamps.
    key: str
    #: Seconds this entry has been observed queued; ``None`` until a
    #: :class:`LiveMonitor` has seen it on at least one earlier poll.
    age: Optional[float] = None


@record(
    field("lock", RAW),
    field("token", BOOL, "believes_token"),
    field("parent", RAW, default=None),
    field("children", listing(tupled(RAW, STR), tuple), default=()),
    field("held", listing(tupled(STR, INT), tuple), default=()),
    field("pending", RAW, default=None),
    field("queue", listing(QueueEntry.CODEC, tuple), default=()),
    field("frozen", listing(STR, tuple), default=()),
    field("token_epoch", INT, default=0),
    field("fenced", BOOL, default=False),
)
@dataclasses.dataclass(frozen=True)
class LockSnapshot:
    """One automaton's local beliefs about one lock.

    The same shape serves all three protocols: for the baselines,
    ``parent`` is Naimi's probable-owner (``last``) or Raymond's
    ``holder`` edge, ``children`` is empty, and holds/pending collapse
    to exclusive ``W``.
    """

    lock: LockId
    #: Whether this node believes it holds the token/privilege/root.
    believes_token: bool
    #: Edge toward the believed token (copyset parent / ``last`` /
    #: ``holder``); ``None`` at a node that believes itself the root.
    parent: Optional[NodeId]
    #: Copyset edges as sorted ``(child, recorded_mode)`` pairs.
    children: Tuple[Tuple[NodeId, str], ...] = ()
    #: Locally held modes as sorted ``(mode, count)`` pairs.
    held: Tuple[Tuple[str, int], ...] = ()
    #: This node's own in-flight request mode (``None`` if none).
    pending: Optional[str] = None
    #: Local queue entries, FIFO order.
    queue: Tuple[QueueEntry, ...] = ()
    #: Modes frozen at this node (Rule 6), sorted.
    frozen: Tuple[str, ...] = ()
    #: Token incarnation floor (recovery extension; 0 = original token).
    token_epoch: int = 0
    #: Whether the lease layer fenced this node's holds (see
    #: :mod:`repro.leases`): its grants were revoked, so its residual
    #: beliefs — including a stale token claim on a partitioned minority
    #: — no longer count toward token-split or Rule-1 reconciliation.
    fenced: bool = False

    @classmethod
    def exclusive(
        cls,
        lock: LockId,
        believes_token: bool,
        parent: Optional[NodeId],
        in_cs: bool,
        requesting: bool,
        waiters: Iterable[NodeId],
    ) -> "LockSnapshot":
        """The view of a mutual-exclusion protocol's automaton.

        The critical section is an exclusive ``W`` hold, an unserved
        request a pending ``W``, and *waiters* the nodes this automaton
        knows to be queued, in service order.
        """

        return cls(
            lock=lock,
            believes_token=believes_token,
            parent=parent,
            held=(("W", 1),) if in_cs else (),
            pending="W" if requesting else None,
            queue=tuple(
                QueueEntry(origin=node, mode="W", key=f"{lock}:{node}")
                for node in waiters
            ),
        )

    def held_modes(self) -> List[LockMode]:
        """The held multiset as :class:`LockMode` values (with repeats)."""

        modes: List[LockMode] = []
        for mode, count in self.held:
            modes.extend([LockMode(mode)] * count)
        return modes


@record(
    field("boot", INT),
    field("suspected", listing(RAW, tuple), default=()),
    field("live_peers", listing(RAW, tuple), default=()),
    field("channel_backlog", INT, default=0),
    field("channel_retransmits", INT, default=0),
    field("app_retransmits", INT, default=0),
    field("token_hints", listing(tupled(RAW, RAW, INT), tuple), default=()),
    field("custody_pending", listing(RAW, tuple), default=()),
    field("view_epoch", INT, default=0),
    field("view_members", listing(RAW, tuple), default=()),
    field(
        "durability",
        optional(
            Codec(dict, lambda raw: {str(k): int(v) for k, v in raw.items()})
        ),
        omit=None,
    ),
    field("leases", Codec(dict, dict), omit={}),
)
@dataclasses.dataclass(frozen=True)
class RecoveryHealth:
    """One recovery manager's health, captured with its snapshot."""

    #: This node's boot incarnation (bumped on restart).
    boot: int
    #: Peers currently suspected by the failure detector.
    suspected: Tuple[NodeId, ...] = ()
    #: Peers currently considered alive.
    live_peers: Tuple[NodeId, ...] = ()
    #: Session-channel frames sent but not yet acknowledged.
    channel_backlog: int = 0
    #: Cumulative channel-level frame retransmissions.
    channel_retransmits: int = 0
    #: Cumulative application-level request retransmissions.
    app_retransmits: int = 0
    #: Last announced token placements: ``(lock, holder, epoch)``.
    token_hints: Tuple[Tuple[LockId, NodeId, int], ...] = ()
    #: Locks whose durably restored token custody is still fenced
    #: (queueing, not granting) pending rejoin reconciliation.
    custody_pending: Tuple[LockId, ...] = ()
    #: Durability journal counters (``appends``, ``compactions``,
    #: ``locks_restored``, ``custody_confirmed``, ``custody_fenced``)
    #: when the node runs with a :mod:`repro.persist` journal attached;
    #: ``None`` on volatile nodes.
    durability: Optional[Mapping[str, int]] = None
    #: Lease-layer health (see :mod:`repro.leases`): ``fenced``, the
    #: ``own``/``remote`` lease tables as ``[lock, mode, holder, token,
    #: deadline]`` rows, and renewal/revocation counters.
    leases: Mapping[str, object] = dataclasses.field(default_factory=dict)
    #: Installed membership view epoch (0 = bootstrap view; see
    #: :mod:`repro.membership`) and its member list.
    view_epoch: int = 0
    view_members: Tuple[NodeId, ...] = ()


@record(
    field("node", RAW),
    field("alive", BOOL, default=True),
    field("locks", listing(LockSnapshot.CODEC, tuple), default=()),
    field("recovery", optional(RecoveryHealth.CODEC), omit=None),
)
@dataclasses.dataclass(frozen=True)
class NodeSnapshot:
    """One node's beliefs across every lock it has touched."""

    node: NodeId
    #: ``False`` for a crashed node (its volatile state is gone; the
    #: snapshot then carries no locks).
    alive: bool = True
    locks: Tuple[LockSnapshot, ...] = ()
    #: Recovery-layer health, present when the node runs with
    #: ``ProtocolOptions(recovery=True)`` behind a recovery manager.
    recovery: Optional[RecoveryHealth] = None

    def lock(self, lock_id: LockId) -> Optional[LockSnapshot]:
        """This node's snapshot of *lock_id*, if it has touched it."""

        for snapshot in self.locks:
            if snapshot.lock == lock_id:
                return snapshot
        return None


@record(
    field("protocol", STR, default="?"),
    field("captured_at", FLOAT, default=0.0),
    field("nodes", listing(NodeSnapshot.CODEC, tuple), default=()),
)
@dataclasses.dataclass(frozen=True)
class ClusterView:
    """Every node's snapshot at (approximately) one instant.

    "Approximately" because capture walks nodes one at a time, each
    under its own mutex on the threaded runtimes; the audit therefore
    treats in-flight disagreements as warnings unless told the cluster
    is quiescent.
    """

    protocol: str
    #: Capture time in the cluster's own timebase (simulated seconds for
    #: sim clusters, monotonic wall seconds for threaded ones).
    captured_at: float
    nodes: Tuple[NodeSnapshot, ...] = ()

    def node(self, node_id: NodeId) -> Optional[NodeSnapshot]:
        """The snapshot of *node_id*, if present."""

        for snapshot in self.nodes:
            if snapshot.node == node_id:
                return snapshot
        return None

    def alive_nodes(self) -> List[NodeId]:
        """Ids of nodes captured alive, in capture order."""

        return [snapshot.node for snapshot in self.nodes if snapshot.alive]

    def lock_ids(self) -> List[LockId]:
        """Every lock any node has state for, sorted."""

        locks: Set[LockId] = set()
        for snapshot in self.nodes:
            locks.update(entry.lock for entry in snapshot.locks)
        return sorted(locks, key=str)

    def token_believers(self, lock_id: LockId) -> List[NodeId]:
        """Alive nodes believing they hold *lock_id*'s token.

        A lease-fenced believer is excluded: a partitioned minority that
        fenced itself may still carry a stale token claim, but that
        claim no longer serves grants (its residual held state is the
        ``expired-but-held`` rule's business instead).
        """

        believers = []
        for snapshot in self.nodes:
            if not snapshot.alive:
                continue
            entry = snapshot.lock(lock_id)
            if entry is not None and entry.believes_token and not entry.fenced:
                believers.append(snapshot.node)
        return believers


def snapshot_node(
    node_id: NodeId,
    lockspace,
    alive: bool = True,
    recovery: Optional[RecoveryHealth] = None,
) -> NodeSnapshot:
    """Snapshot every instantiated automaton of one lock space.

    Callers on threaded runtimes must hold the node's mutex around this
    call; the capture itself is a pure read.
    """

    locks = tuple(
        sorted(
            (automaton.snapshot() for automaton in lockspace.automata()),
            key=lambda snapshot: str(snapshot.lock),
        )
    )
    return NodeSnapshot(node=node_id, alive=alive, locks=locks, recovery=recovery)


# ---------------------------------------------------------------------------
# The online invariant audit.
# ---------------------------------------------------------------------------


@record(
    field("rule", STR),
    field("severity", STR),
    field("detail", STR),
    field("lock", RAW, default=None),
    field("nodes", listing(RAW, tuple), default=()),
)
@dataclasses.dataclass(frozen=True)
class AuditFinding:
    """One invariant the cluster view does not satisfy."""

    rule: str
    severity: str
    detail: str
    lock: Optional[LockId] = None
    nodes: Tuple[NodeId, ...] = ()

    def __str__(self) -> str:
        where = f" lock={self.lock!r}" if self.lock is not None else ""
        who = f" nodes={list(self.nodes)}" if self.nodes else ""
        return f"[{self.severity}] {self.rule}{where}{who}: {self.detail}"


@record(
    field("ok", BOOL),
    field("quiescent", BOOL, default=False),
    field("locks_checked", INT, default=0),
    field("nodes_checked", INT, default=0),
    field("findings", listing(AuditFinding.CODEC, tuple), default=()),
)
@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing one :class:`ClusterView`."""

    findings: Tuple[AuditFinding, ...]
    locks_checked: int
    nodes_checked: int
    #: Whether the audit ran with quiescent (post-drain) semantics.
    quiescent: bool = False

    @property
    def ok(self) -> bool:
        """True iff no finding is a violation (warnings allowed)."""

        return not self.violations()

    def violations(self) -> List[AuditFinding]:
        """Findings of severity ``violation``."""

        return [f for f in self.findings if f.severity == VIOLATION]

    def warnings(self) -> List[AuditFinding]:
        """Findings of severity ``warning``."""

        return [f for f in self.findings if f.severity == WARNING]

    def verdict(self) -> str:
        """One-line human summary."""

        status = "HEALTHY" if self.ok else "UNHEALTHY"
        return (
            f"{status}: {len(self.violations())} violations, "
            f"{len(self.warnings())} warnings over {self.locks_checked} "
            f"locks / {self.nodes_checked} nodes"
        )


def _transient(quiescent: bool) -> str:
    """Severity of a finding that a message in flight could explain."""

    return VIOLATION if quiescent else WARNING


def _audit_lock(
    lock_id: LockId,
    snaps: Dict[NodeId, LockSnapshot],
    alive: Set[NodeId],
    quiescent: bool,
    findings: List[AuditFinding],
) -> None:
    """Audit one lock's per-node beliefs; append findings."""

    def flag(rule: str, severity: str, nodes, detail: str) -> None:
        findings.append(
            AuditFinding(rule, severity, detail, lock=lock_id, nodes=tuple(nodes))
        )

    believers = sorted(
        node
        for node, snap in snaps.items()
        if snap.believes_token and not snap.fenced
    )
    if len(believers) > 1:
        flag(
            "token-split",
            VIOLATION,
            believers,
            f"{len(believers)} nodes believe they hold the token",
        )
    elif not believers:
        fenced_believers = sorted(
            node
            for node, snap in snaps.items()
            if snap.believes_token and snap.fenced
        )
        if not fenced_believers:
            # A fenced believer is not "missing": the token exists but
            # its holder revoked itself; liveness resumes through
            # regeneration on the quorum side, and any residual holds
            # there are the expired-but-held rule's business.
            flag(
                "token-missing",
                _transient(quiescent),
                sorted(snaps),
                "no alive node believes it holds the token",
            )

    # -- copyset/tree edges: acyclic, rooted at the token believer ------
    seen_cycles: Set[frozenset] = set()
    for start in sorted(snaps):
        path: List[NodeId] = []
        on_path: Set[NodeId] = set()
        node: Optional[NodeId] = start
        while node is not None:
            if node in on_path:
                cycle = path[path.index(node):]
                key = frozenset(cycle)
                if key in seen_cycles:
                    break  # Already reported via another walk start.
                seen_cycles.add(key)
                pivot = cycle.index(min(cycle, key=str))
                cycle = cycle[pivot:] + cycle[:pivot]
                # A cycle of entirely idle nodes is stale routing residue
                # (e.g. pre-heal edges left behind by partition recovery;
                # a fresh request re-routes via recovery token hints), so
                # it stays a warning even at quiescence.  Any member with
                # live state makes it a real structural fault.
                idle = all(
                    quiescent_idle(snaps[member])
                    for member in cycle
                    if member in snaps
                )
                detail = "parent edges form a cycle " + " -> ".join(
                    str(n) for n in cycle + [cycle[0]]
                )
                if idle:
                    detail += " (all members idle: stale routing residue)"
                flag(
                    "copyset-cycle",
                    WARNING if idle else _transient(quiescent),
                    cycle,
                    detail,
                )
                break
            path.append(node)
            on_path.add(node)
            snap = snaps.get(node)
            if snap is None:
                # The chain leads to an alive node with no state for this
                # lock: a restarted node that has not re-created it yet.
                flag(
                    "copyset-unrooted",
                    _transient(quiescent),
                    (path[-2] if len(path) > 1 else start, node),
                    f"edge points at node {node}, which has no "
                    "state for this lock",
                )
                break
            if snap.parent is None:
                if not snap.believes_token and not quiescent_idle(snap):
                    flag(
                        "copyset-unrooted",
                        _transient(quiescent),
                        (start, node),
                        f"edge chain from node {start} ends at "
                        f"node {node}, which does not believe it "
                        "holds the token",
                    )
                break
            node = snap.parent
        if len(path) > 64 * max(1, len(alive)):  # pragma: no cover - guard
            break

    # -- references to dead peers ---------------------------------------
    for node, snap in sorted(snaps.items()):
        if snap.parent is not None and snap.parent not in alive:
            flag(
                "dead-reference",
                _transient(quiescent),
                (node, snap.parent),
                f"node {node} still points at dead node "
                f"{snap.parent}",
            )
        for child, mode in snap.children:
            if child not in alive:
                flag(
                    "dead-reference",
                    _transient(quiescent),
                    (node, child),
                    f"node {node} records dead node {child} "
                    f"as a {mode} child",
                )
        for entry in snap.queue:
            if entry.origin not in alive:
                flag(
                    "dead-reference",
                    _transient(quiescent),
                    (node, entry.origin),
                    f"node {node} queues a {entry.mode} request "
                    f"from dead node {entry.origin}",
                )

    # -- Rule 1: concurrently believed holds pairwise compatible --------
    holds: List[Tuple[NodeId, LockMode]] = []
    for node, snap in sorted(snaps.items()):
        holds.extend((node, mode) for mode in snap.held_modes())
    for index, (node_a, mode_a) in enumerate(holds):
        for node_b, mode_b in holds[index + 1:]:
            if node_a == node_b:
                continue  # One node may stack self-compatible holds.
            if not compatible(mode_a, mode_b):
                flag(
                    "rule1",
                    VIOLATION,
                    (node_a, node_b),
                    f"node {node_a} holds {mode_a} while node "
                    f"{node_b} holds incompatible {mode_b}",
                )

    # -- quiescence: no request may remain pending or queued ------------
    if quiescent:
        for node, snap in sorted(snaps.items()):
            if snap.pending is not None:
                flag(
                    "stuck-request",
                    VIOLATION,
                    (node,),
                    f"node {node} still has a pending "
                    f"{snap.pending} request after the drain",
                )
            if snap.queue:
                flag(
                    "stuck-request",
                    VIOLATION,
                    (node,),
                    f"node {node} still queues "
                    f"{len(snap.queue)} requests after the drain",
                )


def _audit_leases(
    view: ClusterView, findings: List[AuditFinding]
) -> None:
    """Reconcile the lease layer's beliefs with the lock automata.

    Two rules over every alive recovery node's lease health
    (``RecoveryHealth.leases``):

    * ``expired-but-held`` — a node that lease-fenced itself (its leases
      expired while it was quorum-silent) must have force-released every
      hold; any residual held mode means the fence failed.
    * ``double-active-lease`` — two different holders advertising active
      leases in incompatible modes on one lock is the lease-level
      Rule-1 break: a revocation granted over a hold that was still
      covered.
    """

    now = view.captured_at
    active: Dict[LockId, List[Tuple[NodeId, str, int]]] = {}
    for node in view.nodes:
        if not node.alive or node.recovery is None:
            continue
        info = node.recovery.leases
        if info.get("fenced"):
            for snap in node.locks:
                if snap.held:
                    findings.append(
                        AuditFinding(
                            rule="expired-but-held",
                            severity=VIOLATION,
                            lock=snap.lock,
                            nodes=(node.node,),
                            detail=f"node {node.node} is lease-fenced but "
                            f"still holds {list(snap.held)}",
                        )
                    )
        for row in info.get("own", ()):
            lock, mode, holder, _token, deadline = row
            if float(deadline) > now:
                active.setdefault(lock, []).append(
                    (holder, str(mode), int(_token))
                )
    for lock_id in sorted(active, key=str):
        entries = active[lock_id]
        for index, (node_a, mode_a, _ta) in enumerate(entries):
            for node_b, mode_b, _tb in entries[index + 1:]:
                if node_a == node_b:
                    continue
                if not compatible(LockMode(mode_a), LockMode(mode_b)):
                    findings.append(
                        AuditFinding(
                            rule="double-active-lease",
                            severity=VIOLATION,
                            lock=lock_id,
                            nodes=(node_a, node_b),
                            detail=f"node {node_a} leases {mode_a} while "
                            f"node {node_b} leases incompatible {mode_b}",
                        )
                    )


def _audit_views(
    view: ClusterView, quiescent: bool, findings: List[AuditFinding]
) -> None:
    """Check that every alive recovery node agrees on the membership view.

    While a view change is in flight some nodes legitimately run one
    epoch behind (the install broadcast races the snapshot), so
    disagreement is a warning; at quiescence nothing is in flight —
    heartbeat anti-entropy must have converged every member — and a
    skew escalates to a violation.  Nodes on the *same* epoch but with
    different member lists are always a violation: epochs name views
    uniquely, so that state is unreachable through correct installs.
    """

    epochs: Dict[NodeId, Tuple[int, Tuple[NodeId, ...]]] = {}
    for node in view.nodes:
        if not node.alive or node.recovery is None:
            continue
        epochs[node.node] = (
            node.recovery.view_epoch,
            tuple(node.recovery.view_members),
        )
    if len(epochs) < 2:
        return
    seen_epochs = {epoch for epoch, _members in epochs.values()}
    if len(seen_epochs) > 1:
        findings.append(
            AuditFinding(
                rule="view-skew",
                severity=_transient(quiescent),
                nodes=tuple(sorted(epochs)),
                detail="nodes disagree on the view epoch: "
                + ", ".join(
                    f"node {node}@{epochs[node][0]}"
                    for node in sorted(epochs)
                ),
            )
        )
    for epoch in sorted(seen_epochs):
        members = {
            epochs[node][1]
            for node in epochs
            if epochs[node][0] == epoch and epochs[node][1]
        }
        if len(members) > 1:
            findings.append(
                AuditFinding(
                    rule="view-skew",
                    severity=VIOLATION,
                    nodes=tuple(
                        sorted(
                            node
                            for node in epochs
                            if epochs[node][0] == epoch
                        )
                    ),
                    detail=f"nodes at view epoch {epoch} disagree on the "
                    "member list",
                )
            )


def quiescent_idle(snap: LockSnapshot) -> bool:
    """Whether *snap* shows no activity that needs a root to resolve.

    A node that merely remembers an old parent edge (no holds, no queue,
    no pending request) is harmless even if that edge is stale; flagging
    it would make every finished Naimi run look unrooted.
    """

    return (
        not snap.held
        and not snap.queue
        and snap.pending is None
        and not snap.children
    )


def audit_view(
    view: ClusterView,
    quiescent: bool = False,
    mean_grant_latency: Optional[float] = None,
    deadlocks: int = 0,
) -> AuditReport:
    """Run the online invariant audit over *view*.

    With ``quiescent=True`` (after a drain, when no message can be in
    flight) transient findings escalate to violations.  The starvation
    watch fires for queue entries older than :data:`STARVATION_FACTOR`
    times *mean_grant_latency* (skipped when no latency baseline is known).
    *deadlocks* is the number of confirmed wait-for cycles reported by
    the deadlock watchdog, surfaced as a finding so application
    deadlocks appear in the same verdict as protocol invariants.
    """

    findings: List[AuditFinding] = []
    alive = set(view.alive_nodes())
    lock_ids = view.lock_ids()
    for lock_id in lock_ids:
        snaps: Dict[NodeId, LockSnapshot] = {}
        for node in view.nodes:
            if not node.alive:
                continue
            snap = node.lock(lock_id)
            if snap is not None:
                snaps[node.node] = snap
        _audit_lock(lock_id, snaps, alive, quiescent, findings)

    # -- lease reconciliation (nodes exposing lease health only) --------
    _audit_leases(view, findings)

    # -- membership view agreement (nodes exposing recovery health) -----
    _audit_views(view, quiescent, findings)

    if mean_grant_latency is not None and mean_grant_latency > 0:
        threshold = STARVATION_FACTOR * mean_grant_latency
        for node in view.nodes:
            for snap in node.locks:
                for entry in snap.queue:
                    if entry.age is not None and entry.age > threshold:
                        findings.append(
                            AuditFinding(
                                rule="starvation",
                                severity=WARNING,
                                lock=snap.lock,
                                nodes=(node.node, entry.origin),
                                detail=f"request {entry.key} ({entry.mode}) "
                                f"queued at node {node.node} for "
                                f"{entry.age:.3f}s (> {STARVATION_FACTOR:g}x "
                                f"mean grant latency "
                                f"{mean_grant_latency:.3f}s)",
                            )
                        )

    if deadlocks > 0:
        findings.append(
            AuditFinding(
                rule="deadlock",
                severity=VIOLATION,
                detail=f"the wait-for-graph watchdog confirmed "
                f"{deadlocks} deadlock cycle(s)",
            )
        )

    order = {rule: index for index, rule in enumerate(AUDIT_RULES)}
    findings.sort(key=lambda f: (order.get(f.rule, len(order)), str(f.lock)))
    return AuditReport(
        findings=tuple(findings),
        locks_checked=len(lock_ids),
        nodes_checked=len(view.nodes),
        quiescent=quiescent,
    )


# ---------------------------------------------------------------------------
# The stateful poller.
# ---------------------------------------------------------------------------


def observed_mean_grant_latency(observer) -> Optional[float]:
    """Mean issue-to-grant latency over an observer's completed spans."""

    if observer is None:
        return None
    samples = [
        span.latency
        for span in observer.completed_spans()
        if span.latency is not None
    ]
    if not samples:
        return None
    return sum(samples) / len(samples)


class LiveMonitor:
    """Polls a cluster view source, ages queue entries, runs the audit.

    The automata deliberately keep no timestamps in their queues (that
    would mutate protocol state per poll); instead this monitor records
    when it *first saw* each queue entry's span key and attributes ages
    on subsequent polls — in the cluster's own timebase, since ages are
    differences of ``captured_at`` values.

    Thread-safe: the HTTP endpoint polls from request-handler threads.
    """

    def __init__(
        self,
        source: Callable[[], ClusterView],
        observer=None,
    ) -> None:
        self._source = source
        #: Optional :class:`~repro.obs.collect.RunObserver`: supplies the
        #: mean-grant-latency baseline for the starvation watch and the
        #: deadlock fault counter.
        self._observer = observer
        self._mutex = threading.Lock()
        self._first_seen: Dict[Tuple[NodeId, LockId, str], float] = {}

    def poll(
        self, quiescent: bool = False
    ) -> Tuple[ClusterView, AuditReport]:
        """Capture one view, age its queues and audit it."""

        view = self._source()
        with self._mutex:
            view = self._with_ages(view)
        deadlocks = 0
        if self._observer is not None:
            deadlocks = int(self._observer.faults.total("deadlock"))
        report = audit_view(
            view,
            quiescent=quiescent,
            mean_grant_latency=observed_mean_grant_latency(self._observer),
            deadlocks=deadlocks,
        )
        return view, report

    def _with_ages(self, view: ClusterView) -> ClusterView:
        """Rebuild *view* with queue-entry ages; prune vanished entries."""

        now = view.captured_at
        seen: Set[Tuple[NodeId, LockId, str]] = set()
        nodes: List[NodeSnapshot] = []
        for node in view.nodes:
            locks: List[LockSnapshot] = []
            for snap in node.locks:
                if not snap.queue:
                    locks.append(snap)
                    continue
                entries: List[QueueEntry] = []
                for entry in snap.queue:
                    slot = (node.node, snap.lock, entry.key)
                    seen.add(slot)
                    first = self._first_seen.setdefault(slot, now)
                    entries.append(
                        dataclasses.replace(entry, age=max(0.0, now - first))
                    )
                locks.append(
                    dataclasses.replace(snap, queue=tuple(entries))
                )
            nodes.append(dataclasses.replace(node, locks=tuple(locks)))
        for slot in [s for s in self._first_seen if s not in seen]:
            del self._first_seen[slot]
        return dataclasses.replace(view, nodes=tuple(nodes))
